"""DASP SpMM — multiplying by several vectors at once (extension).

The paper notes that in SpMV only the *diagonal* of each ``A @ B``
product is meaningful: 1/8 of the MMA unit's output is used.  With a
block of ``k`` right-hand sides (SpMM, ``Y = A @ X``), the same DASP
layout fills the B operand with one x-vector per column, so one
``m8n8k4`` instruction produces 8 meaningful results per row slice —
at ``k = MMA_N = 8`` the MMA units run at full utilization while the
matrix is streamed **once** for all right-hand sides.

This module runs the three category kernels on a 2-D ``X`` (they take
``(n, c)`` blocks; SpMV is the ``c = 1`` column) and provides the
matching event model; ``benchmarks/test_spmm_extension.py`` quantifies
the utilization gain.  The NumPy kernels get the same saving: they
gather each nonzero's x row once for all ``k`` columns.
"""

from __future__ import annotations

import numpy as np

from .._util import check
from ..gpu.events import KernelEvents
from ..gpu.memory import rhs_block_factor_from_counts
from .format import DASPMatrix
from .long_rows import run_long_rows
from .medium_rows import run_medium_rows
from .short_rows import run_short_rows


def dasp_spmm(matrix, X: np.ndarray, *, engine: str = "vectorized",
              cast_output: bool = False, obs=None) -> np.ndarray:
    """Compute ``Y = A @ X`` for a dense block of right-hand sides.

    Parameters
    ----------
    matrix:
        A :class:`DASPMatrix` (or CSR, converted on the fly).
    X:
        Dense ``(n, k)`` input block, ``k >= 1`` (``k = 1`` is the
        column-vector form of a plain SpMV).
    engine:
        ``"vectorized"`` (default; NumPy batch kernels) or ``"warp"``
        (the lane-accurate SpMV engine applied column by column —
        validation only, as the hardware would fuse the columns).
    cast_output:
        Cast ``Y`` back to the matrix dtype (otherwise the accumulator
        dtype, FP32 for FP16 inputs).
    obs:
        :class:`repro.obs.Obs` handle; defaults to the process-wide
        one.  Counts invocations and, when tracing, opens an ``spmm``
        span.
    """
    from ..obs import get_obs

    if obs is None:
        obs = get_obs()
    dasp = matrix if isinstance(matrix, DASPMatrix) else DASPMatrix.from_csr(matrix)
    X = np.asarray(X)
    check(X.ndim == 2 and X.shape[0] == dasp.shape[1],
          f"X must be ({dasp.shape[1]}, k)")
    check(X.shape[1] >= 1, "X must have at least one column")
    with spmm_span(obs, engine, X.shape[1]):
        return dasp_spmm_on_plan(dasp, X, engine=engine, cast_output=cast_output)


def spmm_span(obs, engine: str, k: int):
    """Count one k-wide SpMM call on *obs* and return its ``spmm`` span
    (:func:`dasp_spmm`'s and every numeric serving batch's telemetry)."""
    obs.counter("core.spmm_calls_total", {"engine": engine}).inc()
    return obs.span("spmm", attrs={"engine": engine, "k": k}
                    if obs.tracing else None)


def dasp_spmm_on_plan(dasp: DASPMatrix, X: np.ndarray, *,
                      engine: str = "vectorized",
                      cast_output: bool = False) -> np.ndarray:
    """SpMM on an already-built :class:`DASPMatrix` plan.

    The plan-typed entry point: no CSR re-dispatch, no observability
    span — callers that already hold a plan (the serving layer, shard
    execution, the large-k engine, ``dasp_spmv``) use this directly.
    The vectorized engine runs the three category kernels on column
    chunks of ``X``; ``dasp_spmv`` is its ``k = 1`` column, so column
    ``j`` of the result is bitwise ``dasp_spmv(dasp, X[:, j])``.  Each
    kernel reads the offsets it needs from its category plan's schedule
    (``plan.schedule``), built on the plan's first run at any width, so
    a call is only gathers and arithmetic.
    """
    if engine == "warp":
        from .spmv import dasp_spmv

        cols = [dasp_spmv(dasp, X[:, j], engine="warp")
                for j in range(X.shape[1])]
        Y = np.stack(cols, axis=1)
        return Y.astype(dasp.dtype) if cast_output else Y
    if engine != "vectorized":
        raise ValueError(f"unknown engine {engine!r}")
    k = X.shape[1]
    Y = np.zeros((dasp.shape[0], k), dtype=dasp.mma_shape.acc_dtype)
    lp, mp, sp = dasp.long_plan, dasp.medium_plan, dasp.short_plan
    for j0 in range(0, k, _COL_CHUNK):
        cols = slice(j0, j0 + _COL_CHUNK)
        Xj = np.ascontiguousarray(X[:, cols])
        if lp.n_rows:
            Y[lp.row_idx, cols] = run_long_rows(lp, Xj)
        if mp.n_rows:
            Y[mp.row_idx, cols] = run_medium_rows(mp, Xj)
        if sp.n_rows:
            rows, vals = run_short_rows(sp, Xj)
            Y[rows, cols] = vals
    if dasp.delta is not None and dasp.delta.overlay is not None:
        # Patched plan: overwrite dirty rows from the delta overlay
        # (repro.core.delta) — the warp branch above already applied it
        # per column inside dasp_spmv.
        from .delta import apply_overlay_spmm

        Y = apply_overlay_spmm(dasp, X, Y)
    if cast_output:
        return Y.astype(dasp.dtype)
    return Y


#: RHS columns per pass of the category kernels — bounds their transient
#: ``(rows, chunk)`` lane products at large k.  Chunking is invisible in
#: the results: every output column is an independent fold.
_COL_CHUNK = 16


# ----------------------------------------------------------------------
# Event model / utilization analysis
# ----------------------------------------------------------------------


def spmm_events(dasp: DASPMatrix, device, k: int) -> KernelEvents:
    """Device events for ``Y = A @ X`` with ``k`` right-hand sides.

    The matrix stream is paid **once**; y writes and CUDA-core flops
    scale with ``k``; each MMA block needs ``ceil(k / MMA_N)``
    instructions; and the x gather scales by the row-major-block
    coalescing factor (one column index fetches ``k`` contiguous
    values), not by the naive ``k`` — see
    :func:`repro.gpu.memory.rhs_block_traffic_factor`.  The gather
    analysis (:func:`gather_analysis`) runs once and feeds both the x
    traffic and that factor.
    """
    check(k >= 1, "k must be positive")
    return rhs_events(dasp, gather_analysis(dasp, device), k)


def gather_analysis(dasp: DASPMatrix, device) -> tuple[KernelEvents, int]:
    """The k-independent half of every k-wide price of *dasp*.

    ``(single-RHS DASP events, per-row sector count)`` from the plan's
    sector counts (``dasp.sectors``: one
    :func:`repro.gpu.memory.sector_counts` pass per band structure,
    inherited across value deltas and compaction, re-derived from the
    touched rows by a structural delta); :func:`rhs_events` turns it
    into the events at any width.
    """
    from .method import DASPMethod

    counts = dasp.sectors.counts(dasp.csr, dasp.dtype.itemsize)
    return DASPMethod().events_for_counts(dasp, device, counts), counts[0]


def rhs_events(dasp: DASPMatrix, analysis: tuple[KernelEvents, int], k: int,
               *, union_ratio: float = 1.0) -> KernelEvents:
    """:func:`spmm_events` at width ``k`` from *dasp*'s
    :func:`gather_analysis`.  ``union_ratio`` further discounts the x
    gather (the column-tiled sweep's tile-union deduplication)."""
    base, per_row = analysis
    s = dasp.mma_shape
    x_factor = rhs_block_factor_from_counts(dasp.csr.nnz, per_row,
                                            dasp.dtype.itemsize, k)
    return base.scale_rhs(k, mma_n=s.n, mma_flops=s.flops,
                          x_factor=x_factor * union_ratio)


def mma_utilization(dasp: DASPMatrix, k: int) -> float:
    """Useful flops / issued MMA flops for a k-RHS product.

    SpMV (k=1) uses only the diagonal of each 8x8 MMA output -> 1/8 of
    the block work is useful (less padding); k = MMA_N saturates the
    unit.

    The ratio is structural and device-independent: issued work is the
    plan's MMA block count times ``ceil(k / MMA_N)``, useful work its
    MMA-path nnz times ``k``, and neither depends on a device or on the
    x gather.  The events are therefore built without a gather analysis
    (zero sector counts); the device named only satisfies the event
    builders' signature.  Code that already holds the k-wide events
    reads the same value with :func:`mma_utilization_from_events`.
    """
    from .method import DASPMethod

    s = dasp.mma_shape
    base = DASPMethod().events_for_counts(dasp, "A100", (0, 0))
    return mma_utilization_from_events(
        dasp, k, base.scale_rhs(k, mma_n=s.n, mma_flops=s.flops))


def mma_utilization_from_events(dasp: DASPMatrix, k: int,
                                ev: KernelEvents) -> float:
    """:func:`mma_utilization` read off ``ev``, the k-wide events of
    *dasp* (:func:`spmm_events` on any device)."""
    if ev.mma_count == 0:
        return 0.0
    issued = ev.mma_count * dasp.mma_shape.flops
    # useful flops: 2 per (real nonzero consumed by MMA) per rhs
    mma_nnz = dasp.nnz - dasp.medium_plan.irreg_nnz - dasp.short_plan.rows1.size
    useful = 2.0 * mma_nnz * k
    return float(useful / issued)


def mma_phase_fraction(dasp: DASPMatrix) -> float:
    """Share of a DASP kernel's modeled time on the *regular* (MMA) path.

    DASP splits every matrix into work the MMA units consume (packed
    long/medium/short fragments) and an irregular remainder handled by
    CUDA cores (medium-row irregular tails and 1-nnz short rows).  The
    serving tracer uses this nnz-share split to attribute each batch's
    modeled device time to the ``regular_mma`` vs ``irregular_csr``
    phases — deterministic, cheap, and summing to exactly 1.
    """
    nnz = dasp.nnz
    if nnz <= 0:
        return 1.0
    irregular = dasp.medium_plan.irreg_nnz + dasp.short_plan.rows1.size
    return float(1.0 - irregular / nnz)
