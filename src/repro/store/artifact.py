"""The ``.daspz`` artifact — one DASP plan, versioned and checksummed.

Layout (all integers little-endian)::

    [ 0: 8]  magic  b"DASPZ001"  (on-disk layout revision)
    [ 8:16]  uint64 header length H
    [16:16+H] JSON header (utf-8)
    ...      zero padding to a 64-byte boundary
    payload  raw array bytes, each array 64-byte aligned

The JSON header carries the semantic format version, the plan kind
(``dasp`` or ``sharded``), the owning fingerprint, the full ``meta``
dict from :meth:`~repro.core.DASPMatrix.to_arrays`, a ``modeled``
section (scalar inputs of the load-vs-rebuild cost comparison,
see :mod:`repro.store.tier`) and one record per array: name, dtype,
shape, payload-relative offset, byte length and CRC32.  Offsets are
relative to the payload section, so the header can be grown without a
fixpoint computation.  ``aux.``-prefixed records carry auxiliary
arrays (e.g. the large-k SpMM row-reorder permutation) that plan
reconstruction never touches — see :func:`save_artifact` /
:func:`read_aux`.  The header's ``base_version`` names the matrix
version the payload holds (0 for the original matrix); later versions
live in the fingerprint's delta log, not in the artifact.

The delta log (``<fingerprint>.dlog`` beside the artifact) is an
append-only sequence of CRC-framed records, one per matrix version::

    [ 0: 4]  magic  b"DLG1"
    [ 4: 8]  uint32 body length L
    [ 8:16]  uint64 version
    [16:20]  uint32 CRC32 of bytes [4:16] (length and version)
    [20:24]  uint32 CRC32 of the body
    [24:24+L] body: uint32 spec length S, JSON spec
              ``[[name, dtype, shape], ...]``, then the raw arrays

A frame whose header or body runs past the end of the file is a torn
append (a crash mid-write) and is ignored.  A bad magic or a CRC
mismatch is corruption and raises :class:`ArtifactError` — the header
CRC keeps a corrupt length from passing for a torn tail.

Payloads are loadable through ``np.memmap`` (the default): a warm start
maps the file and the plan's arrays are read-only views into the page
cache — near-zero-copy.  ``verify=True`` streams every array through
CRC32 first, which both detects corruption (a single flipped payload
byte fails the load with :class:`ArtifactError`) and faults the pages
in sequentially.

Every malformed-artifact condition — bad magic, unsupported version,
undecodable header, truncated payload, checksum mismatch, fingerprint
mismatch — raises the same typed :class:`ArtifactError`, which the
store quarantines and the serving layer absorbs by rebuilding.
"""

from __future__ import annotations

import json
import os
import struct
import zlib

import numpy as np

from .._util import ReproError

#: On-disk layout revision (magic prefix).  Bumped only when the binary
#: framing itself changes; semantic changes bump FORMAT_VERSION.
MAGIC = b"DASPZ001"

#: Semantic artifact version; readers reject anything else.
FORMAT_VERSION = 1

#: Array payload alignment (bytes) — memmap-friendly for every dtype.
ALIGN = 64

#: Canonical artifact file extension.
EXTENSION = ".daspz"

#: Delta-log file extension (one log beside each versioned artifact).
LOG_EXTENSION = ".dlog"

#: Delta-log frame magic.
LOG_MAGIC = b"DLG1"

# magic, body length, version, CRC32 of length+version, CRC32 of body
_FRAME = struct.Struct("<4sIQII")

#: Aux-name prefix of the retired in-artifact delta layout
#: (``aux.delta.*``).  Such an artifact holds its base version in the
#: payload and its later versions in records no reader replays any
#: more; :func:`read_header` rejects it so it is quarantined and
#: rebuilt instead of being served at its base version.
RETIRED_DELTA_AUX = "delta."


class ArtifactError(ReproError):
    """A plan artifact is corrupt, truncated or incompatible.

    Deliberately *not* transient: retrying the same bytes cannot
    succeed.  The store quarantines the file and the registry falls
    back to a fresh build.
    """

    transient = False


def _align(offset: int) -> int:
    return (offset + ALIGN - 1) // ALIGN * ALIGN


def _crc32(arr: np.ndarray) -> int:
    a = np.ascontiguousarray(arr)
    return zlib.crc32(a.view(np.uint8).reshape(-1)) & 0xFFFFFFFF


def _modeled_scalars(plan) -> dict:
    """Scalar inputs of the load-vs-rebuild comparison (tier.py).

    Stored in the header so the decision needs no payload read: rows /
    nnz / stored elements feed the host-byte accounting of
    :func:`repro.core.preprocess.dasp_preprocess_events`, ``sort_keys``
    the medium-row sort term, ``allocations`` the per-plan device
    allocations (4 per band).
    """
    plans = [d for _, _, d in plan.bands()]
    return {
        "rows": int(plan.shape[0]),
        "nnz": int(plan.nnz),
        "stored_elements": int(sum(p.stored_elements for p in plans)),
        "sort_keys": int(sum(p.classification.n_medium for p in plans)),
        "allocations": 4 * len(plans),
    }


#: Record-name prefix for auxiliary (non-plan) arrays.  Plan
#: reconstructors fetch their arrays by explicit name, so ``aux.*``
#: records ride along without a format-version bump and old readers
#: simply never look at them.
AUX_PREFIX = "aux."


def save_artifact(path, plan, *, fingerprint: str | None = None,
                  aux: dict | None = None, base_version: int = 0) -> dict:
    """Write *plan* (a ``DASPMatrix`` or ``ShardedPlan``) to *path*.

    ``aux`` maps names to extra arrays stored alongside the plan —
    e.g. the large-k SpMM row-reorder permutation — under
    ``aux.``-prefixed records (CRC-checked like plan arrays, listed in
    the header's ``aux`` key, invisible to plan reconstruction and to
    the load-vs-rebuild cost model's ``packed_bytes``).
    ``base_version`` is the matrix version *plan* holds (its delta log
    continues from there).

    Returns the header dict that was written.  The write is plain (not
    atomic) — :meth:`repro.store.PlanStore.put` layers write-then-rename
    publishing on top.
    """
    meta, arrays = plan.to_arrays()
    for name in aux or ():
        if name.startswith(RETIRED_DELTA_AUX):
            raise ArtifactError(f"aux name {name!r} uses the retired "
                                f"in-artifact delta layout")
        key = AUX_PREFIX + name
        if key in arrays:  # pragma: no cover — plan arrays never use aux.
            raise ArtifactError(f"aux name collides with plan array {key!r}")
        arrays[key] = np.asarray((aux or {})[name])
    records = []
    offset = 0
    packed_bytes = 0
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        arrays[name] = arr
        offset = _align(offset)
        records.append({
            "name": name,
            "dtype": arr.dtype.str,
            "shape": [int(d) for d in arr.shape],
            "offset": offset,
            "nbytes": int(arr.nbytes),
            "crc32": _crc32(arr),
        })
        offset += arr.nbytes
        if not name.endswith(("csr.indptr", "csr.indices", "csr.data")) \
                and name != "row_starts" \
                and not name.startswith(AUX_PREFIX):
            packed_bytes += arr.nbytes
    header = {
        "magic": MAGIC.decode(),
        "version": FORMAT_VERSION,
        "kind": meta["kind"],
        "fingerprint": fingerprint,
        "dtype": meta["dtype"],
        "meta": meta,
        "aux": sorted(aux) if aux else [],
        "base_version": int(base_version),
        "modeled": dict(_modeled_scalars(plan),
                        payload_bytes=int(offset),
                        packed_bytes=int(packed_bytes)),
        "arrays": records,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode()
    payload_start = _align(len(MAGIC) + 8 + len(header_bytes))
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(len(header_bytes).to_bytes(8, "little"))
        f.write(header_bytes)
        f.write(b"\x00" * (payload_start - f.tell()))
        for rec, arr in zip(records, arrays.values()):
            f.write(b"\x00" * (payload_start + rec["offset"] - f.tell()))
            f.write(np.ascontiguousarray(arr).view(np.uint8).reshape(-1)
                    .tobytes())
        f.flush()
        os.fsync(f.fileno())
    return header


def read_header(path) -> tuple[dict, int]:
    """Parse and validate an artifact's header without touching payload.

    Returns ``(header, payload_start)``.  Raises :class:`ArtifactError`
    on any framing problem: bad magic, short file, unsupported version,
    undecodable or incomplete JSON.
    """
    try:
        with open(path, "rb") as f:
            prefix = f.read(len(MAGIC) + 8)
            if len(prefix) < len(MAGIC) + 8:
                raise ArtifactError(f"{path}: too short to be an artifact")
            if prefix[:len(MAGIC)] != MAGIC:
                raise ArtifactError(
                    f"{path}: bad magic {prefix[:len(MAGIC)]!r} "
                    f"(not a {EXTENSION} artifact)")
            hlen = int.from_bytes(prefix[len(MAGIC):], "little")
            if hlen > 64 * 1024 * 1024:
                raise ArtifactError(f"{path}: implausible header length {hlen}")
            header_bytes = f.read(hlen)
    except OSError as exc:
        raise ArtifactError(f"{path}: unreadable artifact: {exc}") from exc
    if len(header_bytes) < hlen:
        raise ArtifactError(f"{path}: truncated header "
                            f"({len(header_bytes)} of {hlen} bytes)")
    try:
        header = json.loads(header_bytes.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ArtifactError(f"{path}: undecodable header: {exc}") from exc
    version = header.get("version")
    if version != FORMAT_VERSION:
        raise ArtifactError(
            f"{path}: unsupported artifact version {version!r} "
            f"(this reader handles {FORMAT_VERSION})")
    for key in ("kind", "meta", "arrays", "modeled"):
        if key not in header:
            raise ArtifactError(f"{path}: header missing {key!r}")
    if any(n.startswith(RETIRED_DELTA_AUX) for n in header.get("aux") or ()):
        raise ArtifactError(f"{path}: retired in-artifact delta layout "
                            f"(aux.{RETIRED_DELTA_AUX}* records)")
    return header, _align(len(MAGIC) + 8 + hlen)


def _read_arrays(path, header: dict, payload_start: int, *,
                 mmap: bool, verify: bool) -> dict:
    payload_bytes = int(header["modeled"]["payload_bytes"])
    try:
        actual = os.path.getsize(path)
    except OSError as exc:
        raise ArtifactError(f"{path}: unreadable artifact: {exc}") from exc
    if actual < payload_start + payload_bytes:
        raise ArtifactError(
            f"{path}: truncated payload ({actual} bytes on disk, "
            f"{payload_start + payload_bytes} expected)")
    if mmap and payload_bytes:
        buf = np.memmap(path, dtype=np.uint8, mode="r")
    else:
        with open(path, "rb") as f:
            buf = np.frombuffer(bytearray(f.read()), dtype=np.uint8)
    arrays = {}
    for rec in header["arrays"]:
        start = payload_start + int(rec["offset"])
        nbytes = int(rec["nbytes"])
        raw = buf[start:start + nbytes]
        if verify and (zlib.crc32(raw) & 0xFFFFFFFF) != int(rec["crc32"]):
            raise ArtifactError(
                f"{path}: checksum mismatch in array {rec['name']!r}")
        try:
            arr = raw.view(np.dtype(rec["dtype"])).reshape(rec["shape"])
        except (TypeError, ValueError) as exc:
            raise ArtifactError(
                f"{path}: malformed array record {rec['name']!r}: "
                f"{exc}") from exc
        arrays[rec["name"]] = arr
    return arrays


def load_artifact(path, *, mmap: bool = True, verify: bool = True,
                  fingerprint: str | None = None):
    """Load a plan from *path*; returns ``(plan, header)``.

    ``mmap=True`` maps the payload so arrays are read-only views into
    the page cache; ``verify=True`` CRC-checks every array first.
    ``fingerprint`` (when given) must match the header's — a mismatch
    means the file was renamed or tampered with and raises
    :class:`ArtifactError` like any other corruption.
    """
    header, payload_start = read_header(path)
    if fingerprint is not None and header.get("fingerprint") != fingerprint:
        raise ArtifactError(
            f"{path}: fingerprint mismatch (header says "
            f"{str(header.get('fingerprint'))[:12]!r}, expected "
            f"{fingerprint[:12]!r})")
    arrays = _read_arrays(path, header, payload_start,
                          mmap=mmap, verify=verify)
    kind = header["kind"]
    try:
        if kind == "dasp":
            from ..core.format import DASPMatrix

            return DASPMatrix.from_arrays(header["meta"], arrays), header
        if kind == "sharded":
            from ..shard.plan import ShardedPlan

            return ShardedPlan.from_arrays(header["meta"], arrays), header
    except ArtifactError:
        raise
    except Exception as exc:  # noqa: BLE001 — malformed meta, bad shapes...
        raise ArtifactError(
            f"{path}: cannot reconstruct {kind!r} plan: {exc}") from exc
    raise ArtifactError(f"{path}: unknown plan kind {kind!r}")


def read_aux(path, *, mmap: bool = True, verify: bool = True) -> dict:
    """Read an artifact's auxiliary arrays (``aux.*`` records).

    Returns ``{name: array}`` with the ``aux.`` prefix stripped —
    empty when the artifact carries none (including artifacts written
    before aux support existed).  Raises :class:`ArtifactError` on the
    same framing/corruption conditions as :func:`load_artifact`.
    """
    header, payload_start = read_header(path)
    sub = dict(header,
               arrays=[r for r in header["arrays"]
                       if r["name"].startswith(AUX_PREFIX)])
    if not sub["arrays"]:
        return {}
    arrays = _read_arrays(path, sub, payload_start, mmap=mmap, verify=verify)
    return {name[len(AUX_PREFIX):]: arr for name, arr in arrays.items()}


def verify_artifact(path) -> dict:
    """Full integrity check (header + every CRC); returns the header.

    Raises :class:`ArtifactError` on the first problem found — the
    backing check of ``repro plan verify``.
    """
    header, payload_start = read_header(path)
    _read_arrays(path, header, payload_start, mmap=True, verify=True)
    return header


# ----------------------------------------------------------------------
# Delta log
# ----------------------------------------------------------------------
def encode_delta_frame(version: int, arrays: dict) -> bytes:
    """One delta-log frame holding *arrays* for matrix *version*."""
    arrays = {n: np.ascontiguousarray(a) for n, a in arrays.items()}
    spec = json.dumps([[n, a.dtype.str, list(a.shape)]
                       for n, a in arrays.items()]).encode()
    body = b"".join([len(spec).to_bytes(4, "little"), spec,
                     *(a.tobytes() for a in arrays.values())])
    lv = len(body).to_bytes(4, "little") + int(version).to_bytes(8, "little")
    return _FRAME.pack(LOG_MAGIC, len(body), int(version), zlib.crc32(lv),
                       zlib.crc32(body)) + body


def _decode_body(path, version: int, body: bytes) -> dict:
    try:
        slen = int.from_bytes(body[:4], "little")
        spec = json.loads(body[4:4 + slen].decode())
        arrays, at = {}, 4 + slen
        for name, dtype, shape in spec:
            dt = np.dtype(dtype)
            n = dt.itemsize * int(np.prod(shape, dtype=np.int64))
            if at + n > len(body):
                raise ValueError("array runs past the frame")
            arrays[name] = np.frombuffer(body, dtype=dt, count=n // dt.itemsize,
                                         offset=at).reshape(shape).copy()
            at += n
    except (ValueError, TypeError, UnicodeDecodeError) as exc:
        raise ArtifactError(
            f"{path}: malformed delta record for version {version}: "
            f"{exc}") from exc
    return arrays


def read_delta_log(path, *, decode: bool = True):
    """Parse a delta log; returns ``(records, ends)``.

    ``records`` is ``[(version, arrays), ...]`` in file order
    (``arrays`` is ``None`` with ``decode=False``; the CRC is checked
    either way) and ``ends[i]`` the byte offset just past record *i* —
    ``ends[-1]`` is less than the file size only after a torn append.
    A missing file is an empty log.  Raises :class:`ArtifactError` on a
    complete frame with a bad magic or CRC, or on versions that do not
    run contiguously.
    """
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except FileNotFoundError:
        return [], []
    except OSError as exc:
        raise ArtifactError(f"{path}: unreadable delta log: {exc}") from exc
    records, ends, at = [], [], 0
    while at + _FRAME.size <= len(blob):
        magic, blen, version, hcrc, bcrc = _FRAME.unpack_from(blob, at)
        if magic != LOG_MAGIC or zlib.crc32(blob[at + 4:at + 16]) != hcrc:
            raise ArtifactError(f"{path}: corrupt delta-log frame header "
                                f"at byte {at}")
        end = at + _FRAME.size + blen
        if end > len(blob):
            break  # torn final frame
        body = blob[at + _FRAME.size:end]
        if zlib.crc32(body) != bcrc:
            raise ArtifactError(f"{path}: checksum mismatch in delta "
                                f"record for version {version}")
        if records and version != records[-1][0] + 1:
            raise ArtifactError(f"{path}: delta log jumps from version "
                                f"{records[-1][0]} to {version}")
        records.append((version, _decode_body(path, version, body)
                        if decode else None))
        ends.append(end)
        at = end
    return records, ends
