"""`repro.pipeline` — asynchronous pipelined execution + speculative
plan warming.

DASP prices preprocessing (classify/pack) separately from kernel
execution, yet the serving stack historically ran plan load/build
synchronously inside the request path: a cold matrix stalled the whole
modeled device for its full rebuild (or artifact load) before its
batch — and every batch queued behind it — could run.  AsyncSparse
(arXiv 2604.17834) makes the case for decoupling dependent stages on
asynchronous hardware; this package applies that to the serving stack
in two pieces:

:class:`PrefetchLane`
    A modeled asynchronous copy/build engine next to the device.  In
    the virtual-time driver, a cold matrix's plan acquisition is
    charged to the lane clock instead of the device clock; the batch
    *parks* until the lane finishes while the device keeps executing
    batches of already-resident matrices.  Everything stays
    deterministic — the lane is just a second clock.

:class:`SpeculativeWarmer`
    Watches the Zipf popularity estimate fitted from ``repro.obs``
    request counters and nominates registered-but-not-resident
    matrices for warming *before their first request*,
    most-popular-first.

Every plan acquired ahead of demand — a warmer nomination, a
warm-start preload, a cluster ring warm-up or elastic re-warm — goes
through one method, :meth:`repro.serve.execute.ExecutionCore.warm`:
a store-only preload, or (with the warmer on) a speculative
acquisition in which the store's own load-vs-rebuild gate
(:func:`repro.store.tier.load_beats_rebuild`) picks between loading
the ``.daspz`` artifact and rebuilding from CSR.  The lane and the
warmer are virtual-time models; the real-threaded
:class:`repro.serve.SpMVServer` warms on the caller's thread
(:meth:`~repro.serve.SpMVServer.warm`).

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
from .warmer import WarmerConfig, SpeculativeWarmer, zipf_fit

__all__ = [
    "PipelineConfig",
    "PrefetchLane",
    "SpeculativeWarmer",
    "WarmerConfig",
    "zipf_fit",
]
