"""`repro.pipeline` — asynchronous pipelined execution + speculative
plan warming.

DASP prices preprocessing (classify/pack) separately from kernel
execution, yet the serving stack historically ran plan load/build
synchronously inside the request path: a cold matrix stalled the whole
modeled device for its full rebuild (or artifact load) before its
batch — and every batch queued behind it — could run.  AsyncSparse
(arXiv 2604.17834) makes the case for decoupling dependent stages on
asynchronous hardware; this package applies that to the serving stack
in three pieces:

:class:`PrefetchLane`
    A modeled asynchronous copy/build engine next to the device.  In
    the virtual-time driver, a cold matrix's plan acquisition is
    charged to the lane clock instead of the device clock; the batch
    *parks* until the lane finishes while the device keeps executing
    batches of already-resident matrices.  Everything stays
    deterministic — the lane is just a second clock.

:class:`SpeculativeWarmer`
    Watches the Zipf popularity estimate fitted from ``repro.obs``
    request counters and warms registered-but-not-resident matrices
    *before their first request*, most-popular-first.  Each warm uses
    the store's modeled load-vs-rebuild gate
    (:func:`repro.store.tier.load_beats_rebuild`) to choose between
    loading the ``.daspz`` artifact and rebuilding from CSR, and loads
    persisted ``aux.`` reorder permutations alongside the plan so the
    large-k SpMM tier never re-derives a decision already made.

:class:`PlanPrefetcher`
    The real-threaded counterpart for :class:`repro.serve.SpMVServer`:
    a small background executor feeding :class:`~repro.serve.
    PlanRegistry` through the same per-fingerprint single-flight as
    the synchronous path (``load_only`` lookups never block behind an
    in-flight build — they simply report it as pending).

Double-buffering of shard bands and SpMM column tiles is a pricing
schedule that lives with the cost functions
(:func:`repro.core.overlap_schedule`;
:func:`repro.core.spmm_tiled_overlap_cost`, which the large-k tuner
applies to its chosen sweep and carries as
``SpmmStrategy.overlapped_s``; ``sharded_batch_cost(double_buffer=True)``);
the pipeline config only switches it on.  Pipeline-off serving is bit-identical to the
pre-pipeline stack, and pipeline-on changes *when* work is charged,
never what is computed — results stay bitwise equal.
"""

from .lane import PipelineConfig, PrefetchLane
from .prefetch import PlanPrefetcher
from .warmer import WarmerConfig, SpeculativeWarmer, warm_action, zipf_fit

__all__ = [
    "PipelineConfig",
    "PlanPrefetcher",
    "PrefetchLane",
    "SpeculativeWarmer",
    "WarmerConfig",
    "warm_action",
    "zipf_fit",
]
