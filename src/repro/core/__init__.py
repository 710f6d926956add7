"""DASP core — the paper's contribution.

Public entry points:

* :class:`DASPMatrix` / :meth:`DASPMatrix.from_csr` — the MMA-friendly
  data structure (Section 3.2).
* :func:`run_long_rows` / :func:`run_medium_rows` /
  :func:`run_short_rows` — the vectorized kernels (Section 3.3), one per
  row category, each taking one x vector or an ``(n, c)`` block of them.
* :func:`dasp_spmv` / :func:`dasp_spmm` — SpMV is the ``k = 1`` column
  of the SpMM on the same kernels (so column ``j`` of ``dasp_spmm`` is
  bitwise ``dasp_spmv``); ``engine="warp"`` runs the lane-accurate
  validation engine instead.
* :class:`DASPMethod` — the method wrapped for benchmarking against the
  baselines.
"""

from .autotune import (
    MAX_LEN_CANDIDATES,
    THRESHOLD_CANDIDATES,
    TuneResult,
    tune_max_len,
    tune_threshold,
)
from .classify import (
    DEFAULT_MAX_LEN,
    SHORT_LEN,
    RowClassification,
    categorize_lengths,
    classify_rows,
)
from .delta import (
    DEFAULT_COMPACT_THRESHOLD,
    DeltaError,
    PatchInfo,
    StructuralUpdate,
    ValueUpdate,
    apply_delta_to_csr,
    apply_structural_to_csr,
    apply_structural_update,
    apply_update,
    apply_value_update,
    clone_for_patch,
    compact_plan,
    consolidate_plan,
    delta_from_arrays,
    delta_to_arrays,
    random_delta,
    rebuild_debt,
    rebuild_events,
)
from .format import DASPMatrix
from .long_rows import LongRowsPlan, build_long_rows, run_long_rows
from .medium_rows import (
    DEFAULT_THRESHOLD,
    MediumRowsPlan,
    build_medium_rows,
    loop_num_for,
    run_medium_rows,
)
from .method import DASPMethod
from .preprocess import (
    dasp_preprocess,
    dasp_preprocess_events,
    timed_preprocess,
)
from .short_rows import ShortRowsPlan, build_short_rows, run_short_rows
from .spmm import (
    dasp_spmm,
    dasp_spmm_on_plan,
    mma_utilization,
    spmm_events,
)
from .spmm_block import (
    BlockPlan,
    ReorderResult,
    SpmmStrategy,
    TILE_K_CANDIDATES,
    choose_spmm_strategy,
    dasp_spmm_large,
    overlap_schedule,
    reorder_from_perm,
    reorder_rows,
    spmm_block_events,
    spmm_looped_cost,
    spmm_tiled_overlap_cost,
)
from .spmv import dasp_spmv

__all__ = [
    "BlockPlan",
    "DASPMatrix",
    "DASPMethod",
    "DEFAULT_COMPACT_THRESHOLD",
    "DEFAULT_MAX_LEN",
    "DEFAULT_THRESHOLD",
    "DeltaError",
    "LongRowsPlan",
    "MAX_LEN_CANDIDATES",
    "MediumRowsPlan",
    "PatchInfo",
    "ReorderResult",
    "RowClassification",
    "SHORT_LEN",
    "ShortRowsPlan",
    "SpmmStrategy",
    "StructuralUpdate",
    "THRESHOLD_CANDIDATES",
    "TILE_K_CANDIDATES",
    "TuneResult",
    "ValueUpdate",
    "apply_delta_to_csr",
    "apply_structural_to_csr",
    "apply_structural_update",
    "apply_update",
    "apply_value_update",
    "build_long_rows",
    "build_medium_rows",
    "build_short_rows",
    "categorize_lengths",
    "choose_spmm_strategy",
    "classify_rows",
    "clone_for_patch",
    "compact_plan",
    "consolidate_plan",
    "delta_from_arrays",
    "delta_to_arrays",
    "dasp_preprocess",
    "dasp_preprocess_events",
    "dasp_spmm",
    "dasp_spmm_large",
    "dasp_spmm_on_plan",
    "dasp_spmv",
    "loop_num_for",
    "mma_utilization",
    "overlap_schedule",
    "random_delta",
    "rebuild_debt",
    "rebuild_events",
    "reorder_from_perm",
    "reorder_rows",
    "run_long_rows",
    "run_medium_rows",
    "run_short_rows",
    "spmm_block_events",
    "spmm_events",
    "spmm_looped_cost",
    "spmm_tiled_overlap_cost",
    "timed_preprocess",
    "tune_max_len",
    "tune_threshold",
]
