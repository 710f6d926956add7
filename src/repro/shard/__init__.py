"""`repro.shard` — row-sharded parallel SpMV/SpMM execution.

Partitions a matrix into ``S`` contiguous, nnz-balanced row bands
(:func:`shard_csr`), builds each band its own DASP layout
(:class:`ShardedPlan`), and executes one request's shards concurrently
across the serving worker pool — gathering per-shard outputs by pure
concatenation.  Like a plain :class:`~repro.core.DASPMatrix`, a
sharded plan is its bands: ``plan.bands()`` yields ``(row_start,
row_end, dasp)`` per shard, the loop that patches, clones and sizes
either kind of plan (:mod:`repro.core.delta`), runs them
(:func:`repro.shard.execute.run_bands`) and prices them (below).

Guarantees:

* **bit-determinism** — shard boundaries never split a row and every
  row's value uses row-local floating-point association, so
  :func:`dasp_spmv_sharded` / :func:`dasp_spmm_sharded` are
  byte-identical to the unsharded kernels for any ``S`` (``S = 1``
  *is* the unsharded path);
* **modeled honesty** — a sharded batch is charged the LPT-schedule
  makespan of its per-shard cost-model times plus per-shard dispatch
  overhead (:func:`sharded_batch_cost`), and :func:`choose_shards`
  picks ``S`` from that model, so over-sharding is visible, not free.
"""

from .execute import (
    ShardCost,
    choose_shards,
    dasp_spmm_sharded,
    dasp_spmv_sharded,
    lpt_assign,
    lpt_makespan,
    shard_candidates,
    sharded_batch_cost,
)
from .plan import (
    RowShard,
    ShardedPlan,
    build_sharded_plan,
    shard_csr,
    traced_preprocess_sharded,
)

__all__ = [
    "RowShard",
    "ShardCost",
    "ShardedPlan",
    "build_sharded_plan",
    "choose_shards",
    "dasp_spmm_sharded",
    "dasp_spmv_sharded",
    "lpt_assign",
    "lpt_makespan",
    "shard_candidates",
    "shard_csr",
    "sharded_batch_cost",
    "traced_preprocess_sharded",
]
