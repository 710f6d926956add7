"""`repro.store` — versioned on-disk DASP plan artifacts.

DASP's economics (paper Figure 13) hinge on amortizing the CSR -> DASP
conversion over many SpMVs, but amortization used to end at process
exit.  This package makes plans durable:

* :func:`save_artifact` / :func:`load_artifact` — the ``.daspz``
  format: a JSON header (format version, dtype, MMA geometry, shard
  layout, per-array CRC32) plus 64-byte-aligned raw payloads that load
  through ``np.memmap`` for near-zero-copy warm starts, for both
  :class:`~repro.core.DASPMatrix` and composite
  :class:`~repro.shard.ShardedPlan` plans;
* :class:`PlanStore` — a content-addressed directory of artifacts
  (atomic write-then-rename publishing, quarantine of corrupt files,
  capacity-bounded LRU garbage collection) keyed by
  :func:`fingerprint_csr`, the canonical CSR content hash; matrix
  updates append to a per-fingerprint delta log
  (:func:`encode_delta_frame` / :func:`read_delta_log`) instead of
  rewriting the artifact;
* :mod:`~repro.store.tier` — the load-vs-rebuild cost gate: an
  artifact is only read back when the model says streaming it from
  disk beats re-running preprocessing;
* :class:`ArtifactError` — the one typed failure for corrupt /
  truncated / version-mismatched artifacts; the serving layer
  quarantines and rebuilds, never crashes.

``PlanRegistry(store=...)`` turns the RAM plan cache into the first
tier of a two-tier hierarchy over this package (spill-on-evict,
load-before-build, load-through for plans over the RAM budget).
Plans acquired ahead of demand — ``SpMVServer(store=...,
warm_start=True)`` preloading at registration, ``Router.warm``, the
simulators' warm-start and speculative warmer — all go through
:meth:`repro.serve.execute.ExecutionCore.warm`: a gate-bypassing
preload, or a speculative acquisition that this package's
load-vs-rebuild gate turns into a load or a rebuild.
"""

from .artifact import (
    ALIGN,
    AUX_PREFIX,
    EXTENSION,
    FORMAT_VERSION,
    LOG_EXTENSION,
    MAGIC,
    ArtifactError,
    encode_delta_frame,
    load_artifact,
    read_aux,
    read_delta_log,
    read_header,
    save_artifact,
    verify_artifact,
)
from .store import DELTA_RETAIN, PlanStore, fingerprint_csr
from .tier import (
    DISK_BW,
    OPEN_OVERHEAD_S,
    load_beats_rebuild,
    modeled_load_time,
    modeled_rebuild_time,
)

__all__ = [
    "ALIGN",
    "AUX_PREFIX",
    "ArtifactError",
    "DELTA_RETAIN",
    "DISK_BW",
    "EXTENSION",
    "FORMAT_VERSION",
    "LOG_EXTENSION",
    "MAGIC",
    "OPEN_OVERHEAD_S",
    "PlanStore",
    "encode_delta_frame",
    "fingerprint_csr",
    "load_artifact",
    "load_beats_rebuild",
    "modeled_load_time",
    "modeled_rebuild_time",
    "read_aux",
    "read_delta_log",
    "read_header",
    "save_artifact",
    "verify_artifact",
]
