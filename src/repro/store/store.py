"""`PlanStore` — a content-addressed directory of plan artifacts.

Layout under the store root::

    plans/<fingerprint>.daspz       published artifacts
    plans/<fingerprint>.dlog        append-only delta log (versioned only)
    quarantine/<fingerprint>.daspz  artifacts that failed to load
    quarantine/<fingerprint>.dlog   ... and their delta logs
    quarantine/<fingerprint>.reason one-line failure description
    tmp/                            in-flight writes (crash debris only)

Publishing is atomic: :meth:`PlanStore.put` serializes into ``tmp/``
(with an fsync) and ``os.replace``-renames into ``plans/`` — readers
never observe a half-written artifact, and concurrent writers of the
same fingerprint are idempotent (last rename wins, both files are
identical by content addressing).

Matrix updates never rewrite the artifact: :meth:`PlanStore.put_delta`
appends one CRC-framed record to the fingerprint's delta log and fsyncs
it, so a version costs O(delta) bytes of durable write.  The artifact
holds the plan at its ``base_version``; :meth:`PlanStore.load` replays
the log's later records.  Only a fold (more than :data:`DELTA_RETAIN`
retained records) rewrites the artifact — at the new base — and then
the log; records at or below the base are skipped, so a crash between
the two renames still reads back a consistent version.

Loads are fail-safe: any :class:`~repro.store.artifact.ArtifactError`
(corruption, truncation, version mismatch, fingerprint mismatch) moves
the offending file to ``quarantine/``, counts it, and returns a miss —
the caller rebuilds from CSR.  A load is also skipped (counted as
``store.load_skipped_total``) when the cost model says rebuilding is
cheaper than reading the artifact back (:mod:`repro.store.tier`).

Counters flow through :mod:`repro.obs` (``store.*``), so a store bound
to a server's handle reports in the same ``ServerStats`` facade as the
plan cache it backs.

The store is safe under **concurrent multi-instance use** of one root
directory — the cluster's replicas each open their own ``PlanStore``
over the shared store and warm-start in parallel.  All instances on a
root share one process-wide advisory lock, so an artifact read can
never race another instance's gc/quarantine unlink; removals by a
*different process* surface as plain misses (the caller rebuilds), and
byte accounting tolerates files vanishing mid-scan.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import threading
import time
from pathlib import Path

import numpy as np

from .._util import check
from .artifact import (
    EXTENSION,
    LOG_EXTENSION,
    ArtifactError,
    encode_delta_frame,
    load_artifact,
    read_aux,
    read_delta_log,
    read_header,
    save_artifact,
    verify_artifact,
)
from .tier import load_beats_rebuild, modeled_load_time

# One advisory lock per store root, shared by every PlanStore instance
# opened on that directory in this process: N replicas warm-starting
# from one shared store must not race an artifact read against another
# instance's gc/quarantine unlink.  (An RLock because quarantine runs
# under load's lock.)  Cross-process races are handled by tolerance
# instead: a vanished file reads as a miss, never an exception.
_ROOT_LOCKS: dict[str, threading.RLock] = {}
_ROOT_LOCKS_GUARD = threading.Lock()

# process-wide tmp-file sequence: two instances over one root must not
# collide on in-flight write names (the pid alone no longer suffices)
_TMP_SEQ = itertools.count(1)

#: How many delta-log records a fingerprint retains before the oldest
#: are folded forward into the artifact's plan payload (gc of
#: superseded versions).  Retained deltas are the rollback window.
DELTA_RETAIN = 8


def _root_lock(root: Path) -> threading.RLock:
    key = str(root.resolve())
    with _ROOT_LOCKS_GUARD:
        lock = _ROOT_LOCKS.get(key)
        if lock is None:
            lock = _ROOT_LOCKS[key] = threading.RLock()
        return lock


def fingerprint_csr(csr) -> str:
    """Canonical content fingerprint of a CSR matrix.

    Hashes the shape, dtype and the raw ``indptr`` / ``indices`` /
    ``data`` payloads (blake2b-128): two matrices share a fingerprint
    iff they are bytewise-identical CSR structures.  This is the one
    key the plan cache, the artifact store and request routing all
    agree on; :func:`repro.serve.matrix_fingerprint` is an alias.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(repr((tuple(csr.shape), str(csr.data.dtype))).encode())
    h.update(np.ascontiguousarray(csr.indptr).tobytes())
    h.update(np.ascontiguousarray(csr.indices).tobytes())
    h.update(np.ascontiguousarray(csr.data).tobytes())
    return h.hexdigest()


class PlanStore:
    """Durable, capacity-bounded artifact store keyed by fingerprint.

    Parameters
    ----------
    root:
        Store directory (created if missing, including parents).
    capacity_bytes:
        Optional cap on published artifact bytes; exceeding it after a
        :meth:`put` garbage-collects least-recently-used artifacts
        (by file access/modify time — loads touch their artifact).
    device:
        Device whose cost model gates load-vs-rebuild (default A100).
    obs:
        :class:`repro.obs.Obs` handle for the ``store.*`` counters;
        a fresh private one by default.  Components that adopt a
        pre-built store call :meth:`bind` to repoint the counters at
        their shared handle.
    """

    def __init__(self, root, *, capacity_bytes: int | None = None,
                 device="A100", obs=None) -> None:
        self.root = Path(root)
        self.plans_dir = self.root / "plans"
        self.quarantine_dir = self.root / "quarantine"
        self.tmp_dir = self.root / "tmp"
        for d in (self.plans_dir, self.quarantine_dir, self.tmp_dir):
            d.mkdir(parents=True, exist_ok=True)
        if capacity_bytes is not None:
            check(capacity_bytes >= 0, "capacity_bytes must be non-negative")
        self.capacity_bytes = capacity_bytes
        self.device = device
        self._lock = _root_lock(self.root)
        self.bind(obs)

    def bind(self, obs) -> None:
        """(Re)point the ``store.*`` instruments at *obs*' registry."""
        from ..obs import Obs

        if obs is None or not obs.enabled:
            obs = Obs()
        self.obs = obs
        self._hits = obs.counter("store.hits_total")
        self._misses = obs.counter("store.misses_total")
        self._writes = obs.counter("store.writes_total")
        self._load_failures = obs.counter("store.load_failures_total")
        self._load_skipped = obs.counter("store.load_skipped_total")
        self._quarantined = obs.counter("store.quarantined_total")
        self._gc_removed = obs.counter("store.gc_removed_total")
        self._load_seconds = obs.counter("store.load_seconds_total")
        self._delta_writes = obs.counter("store.delta_writes_total")
        self._delta_replayed = obs.counter("store.delta_replayed_total")
        self._delta_folded = obs.counter("store.delta_folded_total")
        self._rollbacks = obs.counter("store.rollbacks_total")
        self._bytes = obs.gauge("store.bytes")
        self._bytes.set(self.nbytes())

    # ------------------------------------------------------------------
    # layout
    # ------------------------------------------------------------------
    def path_for(self, fingerprint: str) -> Path:
        return self.plans_dir / f"{fingerprint}{EXTENSION}"

    def log_path_for(self, fingerprint: str) -> Path:
        return self.plans_dir / f"{fingerprint}{LOG_EXTENSION}"

    def contains(self, fingerprint: str) -> bool:
        return self.path_for(fingerprint).exists()

    __contains__ = contains

    def fingerprints(self) -> list[str]:
        """Published fingerprints, sorted."""
        return sorted(p.stem for p in self.plans_dir.glob(f"*{EXTENSION}"))

    def __len__(self) -> int:
        return len(self.fingerprints())

    def nbytes(self) -> int:
        """Total published artifact and delta-log bytes (tolerant of
        concurrent removal — a file another instance unlinks mid-scan
        counts 0)."""
        total = 0
        for p in self.plans_dir.iterdir():
            if p.suffix not in (EXTENSION, LOG_EXTENSION):
                continue
            try:
                total += p.stat().st_size
            except OSError:
                continue
        return total

    # ------------------------------------------------------------------
    # write path
    # ------------------------------------------------------------------
    def put(self, fingerprint: str, plan, *, overwrite: bool = True,
            aux: dict | None = None) -> Path:
        """Atomically publish *plan* under *fingerprint*.

        Serializes to ``tmp/`` then renames into place; a reader never
        sees a partial file.  With ``overwrite=False`` an existing
        artifact is kept (content addressing makes the bytes identical
        anyway).  ``aux`` arrays (e.g. a tuned row-reorder permutation)
        ride along in the artifact — see
        :func:`repro.store.artifact.save_artifact`.  The plan is
        published as the matrix's original version: any delta log of
        an earlier chain is dropped, never replayed onto it.  Returns
        the published path.
        """
        final = self.path_for(fingerprint)
        if not overwrite and final.exists():
            return final
        with self._lock:
            self.log_path_for(fingerprint).unlink(missing_ok=True)
            self._publish(fingerprint, plan, aux=aux)
        self._writes.inc()
        self._bytes.set(self.nbytes())
        if self.capacity_bytes is not None:
            self.gc()
        return final

    def _tmp_path(self, fingerprint: str) -> Path:
        return self.tmp_dir / (f"{fingerprint}.{os.getpid()}"
                               f".{next(_TMP_SEQ)}.part")

    def _publish(self, fingerprint: str, plan, *, aux: dict | None = None,
                 base_version: int = 0) -> None:
        """Write-then-rename *plan*'s artifact (its log is untouched)."""
        tmp = self._tmp_path(fingerprint)
        try:
            save_artifact(tmp, plan, fingerprint=fingerprint, aux=aux,
                          base_version=base_version)
            os.replace(tmp, self.path_for(fingerprint))
        finally:
            tmp.unlink(missing_ok=True)  # failed before the rename

    # ------------------------------------------------------------------
    # read path
    # ------------------------------------------------------------------
    def peek_header(self, fingerprint: str) -> dict | None:
        """Header of a published artifact, or ``None`` when absent.

        A malformed header quarantines the artifact (and returns
        ``None``) just like a failed load.
        """
        path = self.path_for(fingerprint)
        with self._lock:  # a gc/quarantine unlink cannot race the read
            if not path.exists():
                return None
            try:
                header, _ = read_header(path)
                return header
            except FileNotFoundError:
                return None  # cross-process removal: plain absence
            except ArtifactError as exc:
                self._load_failures.inc()
                self.quarantine(fingerprint, str(exc))
                return None

    def load(self, fingerprint: str, *, mmap: bool = True,
             gate: bool = True):
        """Load *fingerprint*'s plan; ``(plan, modeled_load_s)`` or ``None``.

        ``None`` means the caller should build from CSR: the artifact
        is absent (a miss), modeled slower to read than to rebuild
        (skipped, with ``gate=True``), or corrupt (quarantined).  A
        successful load verifies every CRC of the artifact and of its
        delta log, replays the log's records past the artifact's base
        version, counts a hit, charges the wall-clock into
        ``store.load_seconds_total`` and touches the artifact for LRU
        garbage collection.  The modeled seconds cover streaming both
        files plus the replayed patches.
        """
        path = self.path_for(fingerprint)
        t0 = time.perf_counter()
        with self._lock:  # a gc/quarantine unlink cannot race the read
            if not path.exists():
                self._misses.inc()
                return None
            try:
                header, _ = read_header(path)
                if gate and not load_beats_rebuild(header, self.device):
                    self._load_skipped.inc()
                    return None
                pending, log_bytes = self._pending_deltas(fingerprint,
                                                          header)
                # Patching mutates value slabs, so a chain to replay
                # needs private copies, not a read-only memmap.
                plan, header = load_artifact(path, mmap=mmap and not pending,
                                             verify=True,
                                             fingerprint=fingerprint)
                plan, replay_s = self._replay(plan, pending)
            except FileNotFoundError:
                # removed by another *process* (in-process removers hold
                # this lock): absence, not corruption — rebuild from CSR
                self._misses.inc()
                return None
            except ArtifactError as exc:
                self._load_failures.inc()
                self.quarantine(fingerprint, str(exc))
                return None
            try:
                os.utime(path)
            except OSError:  # pragma: no cover — racing another process
                pass
        self._hits.inc()
        self._load_seconds.inc(time.perf_counter() - t0)
        return plan, (modeled_load_time(header, self.device,
                                        log_bytes=log_bytes) + replay_s)

    def load_aux(self, fingerprint: str) -> dict | None:
        """Auxiliary arrays of a published artifact, or ``None``.

        ``None`` means absent; an empty dict means the artifact exists
        but carries no aux records (e.g. written before aux support).
        Corruption quarantines the artifact like a failed load.
        """
        path = self.path_for(fingerprint)
        with self._lock:  # a gc/quarantine unlink cannot race the read
            if not path.exists():
                return None
            try:
                return read_aux(path)
            except FileNotFoundError:
                return None  # cross-process removal: plain absence
            except ArtifactError as exc:
                self._load_failures.inc()
                self.quarantine(fingerprint, str(exc))
                return None

    def verify(self, fingerprint: str) -> dict:
        """Full CRC verification of one artifact and its delta log
        (raises :class:`ArtifactError` on failure); returns the
        artifact header."""
        header = verify_artifact(self.path_for(fingerprint))
        self._pending_deltas(fingerprint, header, decode=False)
        return header

    # ------------------------------------------------------------------
    # delta log (repro.core.delta) — versioned artifacts
    # ------------------------------------------------------------------
    def _pending_deltas(self, fingerprint: str, header: dict, *,
                        decode: bool = True) -> tuple[list, int]:
        """``(records past the header's base version, log bytes read)``.

        Records at or below the base were folded into the payload (a
        crash can leave them behind a fold's artifact rename) and are
        skipped; the rest must continue the base contiguously.
        """
        base = int(header.get("base_version", 0))
        log = self.log_path_for(fingerprint)
        records, ends = read_delta_log(log, decode=decode)
        pending = [(v, a) for v, a in records if v > base]
        if pending and pending[0][0] != base + 1:
            raise ArtifactError(f"{log}: delta log starts at version "
                                f"{pending[0][0]}, artifact base is {base}")
        return pending, (ends[-1] if ends else 0)

    def _replay(self, plan, records):
        """Apply delta-log *records* ``[(version, arrays)]`` to *plan*;
        returns ``(plan_at_last_version, modeled_patch_seconds)``."""
        if not records:
            return plan, 0.0
        from ..core.delta import apply_update, delta_from_arrays
        from ..gpu.device import get_device

        dev = get_device(self.device)
        patch_s = 0.0
        for _, arrays in records:
            plan, info = apply_update(plan, delta_from_arrays(arrays))
            patch_s += info.seconds(dev)
            self._delta_replayed.inc()
        return plan, patch_s

    def _chain(self, fingerprint: str, **kw):
        """``(header, pending records, log bytes)`` of a published
        artifact (caller holds the lock), or ``None`` when it is absent
        or was quarantined as corrupt."""
        path = self.path_for(fingerprint)
        if not path.exists():
            return None
        try:
            header, _ = read_header(path)
            return (header, *self._pending_deltas(fingerprint, header, **kw))
        except ArtifactError as exc:
            self._load_failures.inc()
            self.quarantine(fingerprint, str(exc))
            return None

    def delta_state(self, fingerprint: str) -> tuple[int, list[int]] | None:
        """``(base_version, retained delta versions)`` of a published
        artifact, or ``None`` when absent/corrupt."""
        with self._lock:
            chain = self._chain(fingerprint, decode=False)
        if chain is None:
            return None
        header, pending, _ = chain
        return int(header.get("base_version", 0)), [v for v, _ in pending]

    def current_version(self, fingerprint: str) -> int | None:
        """Version :meth:`load` reconstructs — the newest retained
        delta, or the artifact's base version; ``None`` when
        absent/corrupt."""
        state = self.delta_state(fingerprint)
        if state is None:
            return None
        base, versions = state
        return versions[-1] if versions else base

    def put_delta(self, fingerprint: str, version: int, delta, *,
                  seed_plan=None, retain: int = DELTA_RETAIN) -> Path | None:
        """Append *delta* as version *version* to *fingerprint*'s log.

        One CRC-framed record is appended and fsynced (a torn tail left
        by a crash mid-append is truncated first); the artifact is not
        touched.  When more than *retain* records would be retained,
        the oldest are folded forward into the artifact's payload
        instead: the artifact is rewritten at the new base version,
        then the log with the remaining records (gc of superseded
        versions — the remaining window is what :meth:`rollback` can
        reach).  With ``seed_plan`` an absent (or quarantined) artifact
        is first published at ``version - 1``.  Returns the artifact
        path, or ``None`` when absent and no seed was given.
        """
        from ..core.delta import consolidate_plan, delta_to_arrays

        record = (version, delta_to_arrays(delta))
        path, log = self.path_for(fingerprint), self.log_path_for(fingerprint)
        with self._lock:
            chain = self._chain(fingerprint, decode=False)
            if chain is None:
                if seed_plan is None:
                    return None
                log.unlink(missing_ok=True)
                self._publish(fingerprint, consolidate_plan(seed_plan),
                              base_version=version - 1)
                chain = ({"base_version": version - 1}, [], 0)
            header, pending, good_end = chain
            base = int(header.get("base_version", 0))
            current = pending[-1][0] if pending else base
            check(version == current + 1,
                  f"non-contiguous delta version {version} (current {current})")
            n_fold = len(pending) + 1 - max(0, int(retain))
            if n_fold > 0:
                try:
                    self._fold(fingerprint, record, n_fold)
                except ArtifactError as exc:
                    self._load_failures.inc()
                    self.quarantine(fingerprint, str(exc))
                    return None
            else:
                with open(log, "ab") as f:
                    f.truncate(good_end)  # drop a torn final frame
                    f.write(encode_delta_frame(*record))
                    f.flush()
                    os.fsync(f.fileno())
            self._writes.inc()
            self._delta_writes.inc()
        self._bytes.set(self.nbytes())
        if self.capacity_bytes is not None:
            self.gc()
        return path

    def _fold(self, fingerprint: str, record, n_fold: int) -> None:
        """Fold the *n_fold* oldest of the retained records plus the new
        *record* ``(version, arrays)`` into the artifact, and leave the
        rest as the new log (caller holds the lock and has validated the
        chain)."""
        from ..core.delta import (apply_update, consolidate_plan,
                                  delta_from_arrays)

        path, log = self.path_for(fingerprint), self.log_path_for(fingerprint)
        plan, header = load_artifact(path, mmap=False, verify=True,
                                     fingerprint=fingerprint)
        aux = read_aux(path)
        pending, _ = self._pending_deltas(fingerprint, header)
        records = [*pending, record]
        folded, kept = records[:n_fold], records[n_fold:]
        for _, arrays in folded:
            plan, _ = apply_update(plan, delta_from_arrays(arrays))
        self._delta_folded.inc(len(folded))
        tmp = self._tmp_path(fingerprint)
        try:
            with open(tmp, "wb") as f:
                for v, arrays in kept:
                    f.write(encode_delta_frame(v, arrays))
                f.flush()
                os.fsync(f.fileno())
            # artifact first: until the log rename lands, the old log's
            # records at or below the new base are skipped on read
            self._publish(fingerprint, consolidate_plan(plan), aux=aux,
                          base_version=folded[-1][0])
            os.replace(tmp, log)
        finally:
            tmp.unlink(missing_ok=True)

    def rollback(self, fingerprint: str, version: int):
        """Truncate *fingerprint*'s delta log back to *version* and
        return ``(plan_at_version, modeled_seconds)``, or ``None`` when
        the artifact is absent or *version* is outside the retained
        window (older than the artifact's base or newer than the last
        delta)."""
        path, log = self.path_for(fingerprint), self.log_path_for(fingerprint)
        with self._lock:
            chain = self._chain(fingerprint)
            if chain is None:
                return None
            header, pending, _ = chain
            base = int(header.get("base_version", 0))
            current = pending[-1][0] if pending else base
            if not (base <= version <= current):
                return None
            try:
                plan, _ = load_artifact(path, mmap=False, verify=True,
                                        fingerprint=fingerprint)
            except ArtifactError as exc:
                self._load_failures.inc()
                self.quarantine(fingerprint, str(exc))
                return None
            kept = [(v, a) for v, a in pending if v <= version]
            if len(kept) < len(pending):
                records, ends = read_delta_log(log, decode=False)
                n_keep = sum(1 for v, _ in records if v <= version)
                with open(log, "r+b") as f:
                    f.truncate(ends[n_keep - 1] if n_keep else 0)
                    f.flush()
                    os.fsync(f.fileno())
                self._writes.inc()
            plan, patch_s = self._replay(plan, kept)
        self._rollbacks.inc()
        self._bytes.set(self.nbytes())
        return plan, patch_s

    # ------------------------------------------------------------------
    # hygiene
    # ------------------------------------------------------------------
    def quarantine(self, fingerprint: str, reason: str = "") -> None:
        """Move a bad artifact and its delta log aside (with a
        ``.reason`` sidecar)."""
        path = self.path_for(fingerprint)
        log = self.log_path_for(fingerprint)
        with self._lock:
            if not path.exists():
                log.unlink(missing_ok=True)  # an orphan log extends nothing
                return
            try:
                os.replace(path, self.quarantine_dir / path.name)
            except FileNotFoundError:  # pragma: no cover — other process
                return
            try:
                os.replace(log, self.quarantine_dir / log.name)
            except FileNotFoundError:
                pass
            (self.quarantine_dir / f"{fingerprint}.reason").write_text(
                (reason or "unspecified") + "\n")
        self._quarantined.inc()
        self._bytes.set(self.nbytes())

    def delete(self, fingerprint: str) -> bool:
        path = self.path_for(fingerprint)
        with self._lock:
            self.log_path_for(fingerprint).unlink(missing_ok=True)
            if not path.exists():
                return False
            path.unlink()
        self._bytes.set(self.nbytes())
        return True

    def gc(self, capacity_bytes: int | None = None) -> list[str]:
        """Remove least-recently-used artifacts until under capacity.

        An artifact and its delta log are sized and removed together.
        Returns removed fingerprints (oldest first).  Uses the bound
        :attr:`capacity_bytes` when no explicit cap is given; no-op
        when neither is set.
        """
        cap = capacity_bytes if capacity_bytes is not None \
            else self.capacity_bytes
        if cap is None:
            return []
        removed = []
        with self._lock:
            entries = []
            for p in self.plans_dir.glob(f"*{EXTENSION}"):
                try:
                    st = p.stat()
                except OSError:  # removed by another process mid-scan
                    continue
                log = self.log_path_for(p.stem)
                try:
                    size = st.st_size + log.stat().st_size
                except OSError:  # no log (or removed mid-scan)
                    size = st.st_size
                entries.append((max(st.st_atime, st.st_mtime), size, p))
            total = sum(size for _, size, _ in entries)
            for _, size, p in sorted(entries, key=lambda e: (e[0], e[2])):
                if total <= cap:
                    break
                total -= size
                try:
                    p.unlink()
                except OSError:  # pragma: no cover — already gone
                    continue
                self.log_path_for(p.stem).unlink(missing_ok=True)
                removed.append(p.stem)
        if removed:
            self._gc_removed.inc(len(removed))
            self._bytes.set(self.nbytes())
        return removed

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Counter snapshot (mirrors the ``store.*`` instruments)."""
        return {
            "plans": len(self),
            "bytes": self.nbytes(),
            "hits": int(self._hits.value),
            "misses": int(self._misses.value),
            "writes": int(self._writes.value),
            "load_failures": int(self._load_failures.value),
            "load_skipped": int(self._load_skipped.value),
            "quarantined": int(self._quarantined.value),
            "gc_removed": int(self._gc_removed.value),
            "load_seconds": float(self._load_seconds.value),
            "delta_writes": int(self._delta_writes.value),
            "delta_replayed": int(self._delta_replayed.value),
            "delta_folded": int(self._delta_folded.value),
            "rollbacks": int(self._rollbacks.value),
        }
