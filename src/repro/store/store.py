"""`PlanStore` — a content-addressed directory of plan artifacts.

Layout under the store root::

    plans/<fingerprint>.daspz       published artifacts
    quarantine/<fingerprint>.daspz  artifacts that failed to load
    quarantine/<fingerprint>.reason one-line failure description
    tmp/                            in-flight writes (crash debris only)

Publishing is atomic: :meth:`PlanStore.put` serializes into ``tmp/``
(with an fsync) and ``os.replace``-renames into ``plans/`` — readers
never observe a half-written artifact, and concurrent writers of the
same fingerprint are idempotent (last rename wins, both files are
identical by content addressing).

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
    ArtifactError,
    load_artifact,
    read_aux,
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

#: How many ``aux.delta.*`` records an artifact retains before the
#: oldest deltas are folded forward into the plan payload (gc of
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

    def contains(self, fingerprint: str) -> bool:
        return self.path_for(fingerprint).exists()

    __contains__ = contains

    def fingerprints(self) -> list[str]:
        """Published fingerprints, sorted."""
        return sorted(p.stem for p in self.plans_dir.glob(f"*{EXTENSION}"))

    def __len__(self) -> int:
        return len(self.fingerprints())

    def nbytes(self) -> int:
        """Total published artifact bytes (tolerant of concurrent
        removal — a file another instance unlinks mid-scan counts 0)."""
        total = 0
        for p in self.plans_dir.glob(f"*{EXTENSION}"):
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
        :func:`repro.store.artifact.save_artifact`.  Returns the
        published path.
        """
        final = self.path_for(fingerprint)
        if not overwrite and final.exists():
            return final
        tmp = self.tmp_dir / (f"{fingerprint}.{os.getpid()}"
                              f".{next(_TMP_SEQ)}.part")
        try:
            save_artifact(tmp, plan, fingerprint=fingerprint, aux=aux)
            os.replace(tmp, final)
        finally:
            tmp.unlink(missing_ok=True)  # failed before the rename
        self._writes.inc()
        self._bytes.set(self.nbytes())
        if self.capacity_bytes is not None:
            self.gc()
        return final

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
        successful load verifies every CRC, counts a hit, charges the
        wall-clock into ``store.load_seconds_total`` and touches the
        file for LRU garbage collection.
        """
        path = self.path_for(fingerprint)
        t0 = time.perf_counter()
        with self._lock:  # a gc/quarantine unlink cannot race the read
            if not path.exists():
                self._misses.inc()
                return None
            try:
                if gate:
                    header, _ = read_header(path)
                    if not load_beats_rebuild(header, self.device):
                        self._load_skipped.inc()
                        return None
                plan, header = load_artifact(path, mmap=mmap, verify=True,
                                             fingerprint=fingerprint)
                if any(n.startswith("delta.") for n in header.get("aux") or ()):
                    # Versioned artifact: the payload is the *base*
                    # version — replay the retained aux.delta.* records
                    # to reach the current one.  Patching mutates value
                    # slabs, so a memmapped (read-only) payload is
                    # re-read as private copies first.
                    if mmap:
                        plan, header = load_artifact(path, mmap=False,
                                                     verify=True,
                                                     fingerprint=fingerprint)
                    plan, replay_s = self._replay_deltas(plan, read_aux(path))
                else:
                    replay_s = 0.0
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
        return plan, modeled_load_time(header, self.device) + replay_s

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
        """Full CRC verification of one artifact (raises on failure)."""
        return verify_artifact(self.path_for(fingerprint))

    # ------------------------------------------------------------------
    # delta records (repro.core.delta) — versioned artifacts
    # ------------------------------------------------------------------
    @staticmethod
    def _parse_delta_aux(aux: dict) -> tuple[int, list[int]]:
        """``(base_version, sorted retained delta versions)``."""
        base = (int(np.asarray(aux["delta.base"])[0])
                if "delta.base" in aux else 0)
        versions = sorted({int(n.split(".")[1]) for n in aux
                           if n.startswith("delta.") and n != "delta.base"})
        return base, versions

    @staticmethod
    def _delta_arrays(aux: dict, version: int) -> dict:
        prefix = f"delta.{version}."
        return {n[len(prefix):]: arr for n, arr in aux.items()
                if n.startswith(prefix)}

    def delta_state(self, fingerprint: str) -> tuple[int, list[int]] | None:
        """``(base_version, retained delta versions)`` of a published
        artifact, or ``None`` when absent/corrupt."""
        aux = self.load_aux(fingerprint)
        if aux is None:
            return None
        return self._parse_delta_aux(aux)

    def current_version(self, fingerprint: str) -> int | None:
        """Version :meth:`load` reconstructs — the newest retained
        delta, or the payload's base version; ``None`` when
        absent/corrupt.

        The header's aux names answer without reading any aux payload
        unless only ``delta.base`` is listed (its value is the answer).
        """
        header = self.peek_header(fingerprint)
        if header is None:
            return None
        names = header.get("aux") or []
        versions = [int(n.split(".")[1]) for n in names
                    if n.startswith("delta.") and n != "delta.base"]
        if versions:
            return max(versions)
        if "delta.base" in names:
            state = self.delta_state(fingerprint)
            return state[0] if state is not None else None
        return 0

    def _replay_deltas(self, plan, aux: dict, *,
                       upto: int | None = None):
        """Apply retained delta records to a freshly loaded payload.

        Returns ``(plan_at_version, modeled_patch_seconds)``.
        """
        from ..core.delta import apply_update, delta_from_arrays
        from ..gpu.device import get_device

        base, versions = self._parse_delta_aux(aux)
        dev = get_device(self.device)
        patch_s = 0.0
        for v in versions:
            if upto is not None and v > upto:
                break
            delta = delta_from_arrays(self._delta_arrays(aux, v))
            plan, info = apply_update(plan, delta)
            patch_s += info.seconds(dev)
            self._delta_replayed.inc()
        return plan, patch_s

    def put_delta(self, fingerprint: str, version: int, delta, *,
                  seed_plan=None, retain: int = DELTA_RETAIN) -> Path | None:
        """Append a CRC-checked ``aux.delta.{version}.*`` record to
        *fingerprint*'s artifact.

        The plan payload stays at its base version; :meth:`load`
        replays the retained deltas to reconstruct the current one.
        When more than *retain* deltas accumulate, the oldest are
        folded forward into the payload and their records dropped (gc
        of superseded versions — the remaining window is what
        :meth:`rollback` can reach).  With ``seed_plan`` an absent
        artifact is first published at ``version - 1``.  Returns the
        artifact path, or ``None`` when absent and no seed was given.
        """
        from ..core.delta import (apply_update, consolidate_plan,
                                  delta_from_arrays, delta_to_arrays)

        record = {f"delta.{version}.{n}": np.asarray(a)
                  for n, a in delta_to_arrays(delta).items()}
        with self._lock:
            path = self.path_for(fingerprint)
            if not path.exists():
                if seed_plan is None:
                    return None
                aux = {"delta.base": np.array([version - 1], dtype=np.int64)}
                aux.update(record)
                self._delta_writes.inc()
                return self.put(fingerprint, consolidate_plan(seed_plan),
                                aux=aux)
            try:
                plan, _ = load_artifact(path, mmap=False, verify=True,
                                        fingerprint=fingerprint)
                aux = read_aux(path)
            except ArtifactError as exc:
                self._load_failures.inc()
                self.quarantine(fingerprint, str(exc))
                return None
            base, versions = self._parse_delta_aux(aux)
            current = versions[-1] if versions else base
            check(version == current + 1,
                  f"non-contiguous delta version {version} (current {current})")
            aux.update(record)
            versions.append(version)
            while len(versions) > max(0, int(retain)):
                v0 = versions.pop(0)
                folded = delta_from_arrays(self._delta_arrays(aux, v0))
                plan, _ = apply_update(plan, folded)
                for n in list(aux):
                    if n.startswith(f"delta.{v0}."):
                        del aux[n]
                base = v0
                self._delta_folded.inc()
            aux["delta.base"] = np.array([base], dtype=np.int64)
            self._delta_writes.inc()
            return self.put(fingerprint, consolidate_plan(plan), aux=aux)

    def rollback(self, fingerprint: str, version: int):
        """Truncate the artifact back to *version* and return
        ``(plan_at_version, modeled_seconds)``, or ``None`` when the
        artifact is absent or *version* is outside the retained window
        (older than the folded base or newer than the last delta)."""
        with self._lock:
            path = self.path_for(fingerprint)
            if not path.exists():
                return None
            try:
                plan, header = load_artifact(path, mmap=False, verify=True,
                                             fingerprint=fingerprint)
                aux = read_aux(path)
            except ArtifactError as exc:
                self._load_failures.inc()
                self.quarantine(fingerprint, str(exc))
                return None
            base, versions = self._parse_delta_aux(aux)
            if not (base <= version <= (versions[-1] if versions else base)):
                return None
            kept = {n: a for n, a in aux.items()
                    if not n.startswith("delta.")
                    or n == "delta.base"
                    or int(n.split(".")[1]) <= version}
            if len(kept) != len(aux):
                # Rewrite first, while the payload is still pristine —
                # replay below mutates it in place.
                self.put(fingerprint, plan, aux=kept)
            plan, patch_s = self._replay_deltas(plan, kept, upto=version)
        self._rollbacks.inc()
        return plan, patch_s

    # ------------------------------------------------------------------
    # hygiene
    # ------------------------------------------------------------------
    def quarantine(self, fingerprint: str, reason: str = "") -> None:
        """Move a bad artifact aside (with a ``.reason`` sidecar)."""
        path = self.path_for(fingerprint)
        with self._lock:
            if not path.exists():
                return
            dest = self.quarantine_dir / path.name
            try:
                os.replace(path, dest)
            except FileNotFoundError:  # pragma: no cover — other process
                return
            (self.quarantine_dir / f"{fingerprint}.reason").write_text(
                (reason or "unspecified") + "\n")
        self._quarantined.inc()
        self._bytes.set(self.nbytes())

    def delete(self, fingerprint: str) -> bool:
        path = self.path_for(fingerprint)
        with self._lock:
            if not path.exists():
                return False
            path.unlink()
        self._bytes.set(self.nbytes())
        return True

    def gc(self, capacity_bytes: int | None = None) -> list[str]:
        """Remove least-recently-used artifacts until under capacity.

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
                entries.append((max(st.st_atime, st.st_mtime),
                                st.st_size, p))
            total = sum(size for _, size, _ in entries)
            for _, size, p in sorted(entries, key=lambda e: (e[0], e[2])):
                if total <= cap:
                    break
                total -= size
                try:
                    p.unlink()
                except OSError:  # pragma: no cover — already gone
                    continue
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
