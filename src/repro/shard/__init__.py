"""`repro.shard` — row-sharded parallel SpMV/SpMM execution.

Partitions a matrix into ``S`` contiguous, nnz-balanced row bands
(:func:`shard_csr`), builds each band its own DASP layout
(:class:`ShardedPlan`), and executes one request's shards concurrently
across the serving worker pool — gathering per-shard outputs by pure
concatenation.

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
    sharded_cost_from_events,
    sharded_phase_fraction,
    sharded_spmm_events,
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
    "sharded_cost_from_events",
    "sharded_phase_fraction",
    "sharded_spmm_events",
    "traced_preprocess_sharded",
]
