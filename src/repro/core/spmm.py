"""DASP SpMM — multiplying by several vectors at once (extension).

The paper notes that in SpMV only the *diagonal* of each ``A @ B``
product is meaningful: 1/8 of the MMA unit's output is used.  With a
block of ``k`` right-hand sides (SpMM, ``Y = A @ X``), the same DASP
layout fills the B operand with one x-vector per column, so one
``m8n8k4`` instruction produces 8 meaningful results per row slice —
at ``k = MMA_N = 8`` the MMA units run at full utilization while the
matrix is streamed **once** for all right-hand sides.

This module generalizes the three category kernels to 2-D ``X`` and
provides the matching event model; ``benchmarks/test_spmm_extension.py``
quantifies the utilization gain.
"""

from __future__ import annotations

import numpy as np

from .._util import check
from ..gpu.events import KernelEvents
from ..gpu.memory import rhs_block_factor_from_counts, sector_counts
from ..gpu.mma import MmaUnit
from ._pack import exclusive_cumsum
from .format import DASPMatrix


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
    obs.counter("core.spmm_calls_total", {"engine": engine}).inc()
    with obs.span("spmm", attrs={"engine": engine, "k": X.shape[1]}
                  if obs.tracing else None):
        return dasp_spmm_on_plan(dasp, X, engine=engine, cast_output=cast_output)


def dasp_spmm_on_plan(dasp: DASPMatrix, X: np.ndarray, *,
                      engine: str = "vectorized",
                      cast_output: bool = False) -> np.ndarray:
    """SpMM on an already-built :class:`DASPMatrix` plan.

    The plan-typed entry point: no CSR re-dispatch, no observability
    span — callers that already hold a plan (the serving layer, shard
    execution, the large-k engine) use this directly.  Column ``j`` of
    the result is bitwise-identical to ``dasp_spmv(dasp, X[:, j])``:
    every reduction below folds in exactly the same order as the 1-D
    category kernels.
    """
    if engine == "warp":
        from .spmv import dasp_spmv

        cols = [dasp_spmv(dasp, X[:, j], engine="warp")
                for j in range(X.shape[1])]
        Y = np.stack(cols, axis=1)
        return Y.astype(dasp.dtype) if cast_output else Y
    if engine != "vectorized":
        raise ValueError(f"unknown engine {engine!r}")
    s = dasp.mma_shape
    k = X.shape[1]
    Y = np.zeros((dasp.shape[0], k), dtype=s.acc_dtype)
    unit = MmaUnit(s)

    lp = dasp.long_plan
    if lp.n_rows:
        Y[lp.row_idx] = _long_spmm(lp, X, unit)
    mp = dasp.medium_plan
    if mp.n_rows:
        Y[mp.row_idx] = _medium_spmm(mp, X, unit)
    sp = dasp.short_plan
    if sp.n_rows:
        rows, vals = _short_spmm(sp, X, unit)
        Y[rows] = vals
    if dasp.delta is not None and dasp.delta.overlay is not None:
        # Patched plan: overwrite dirty rows from the delta overlay
        # (repro.core.delta) — the warp branch above already applied it
        # per column inside dasp_spmv.
        from .delta import apply_overlay_spmm

        Y = apply_overlay_spmm(dasp, X, Y)
    if cast_output:
        return Y.astype(dasp.dtype)
    return Y


#: RHS columns processed per chunk inside the 2-D helpers — bounds the
#: transient ``(nblocks, m, K, chunk)`` product at large k.  Chunking is
#: invisible in the results: every output column is an independent fold.
_COL_CHUNK = 16


def _block_dots_2d(unit: MmaUnit, val: np.ndarray, cid: np.ndarray,
                   X: np.ndarray, cols=slice(None)) -> np.ndarray:
    """Per-(block, row, rhs) dot products with MMA precision semantics.

    Returns ``(nblocks, MMA_M, k)``.  One MMA instruction per block per
    ceil(k / MMA_N) — the unit's issue counter tracks that.  Each output
    column uses the same product, cast chain, and sequential K-fold as
    :meth:`MmaUnit.block_row_dots`, so column ``j`` is bitwise what the
    SpMV kernel computes for ``X[:, j]``.
    """
    s = unit.shape
    k = X.shape[1]
    if val.size == 0:
        return np.zeros((0, s.m, k), dtype=s.acc_dtype)
    nb = val.size // s.a_elements
    a = (val.reshape(nb, s.m, s.k)
         .astype(s.in_dtype, copy=False).astype(s.acc_dtype))
    unit.issue_count += nb * (-(-k // s.n))
    safe_cid = cid.astype(np.int64)
    out = np.empty((nb, s.m, k), dtype=s.acc_dtype)
    for j0 in range(0, k, _COL_CHUNK):
        xg = (X[:, j0:j0 + _COL_CHUNK][safe_cid]
              .reshape(nb, s.m, s.k, -1)
              .astype(s.in_dtype, copy=False).astype(s.acc_dtype))
        if cols != slice(None):
            masked = np.zeros_like(xg)
            masked[:, :, cols, :] = xg[:, :, cols, :]
            xg = masked
        out[:, :, j0:j0 + _COL_CHUNK] = (a[:, :, :, None] * xg).sum(
            axis=2, dtype=s.acc_dtype)
    return out


def _long_spmm(plan, X, unit) -> np.ndarray:
    from .long_rows import BLOCKS_PER_GROUP

    s = unit.shape
    k = X.shape[1]
    d = _block_dots_2d(unit, plan.val, plan.cid, X)          # (nb, m, k)
    # fragY accumulation across the group's blocks + shuffle tree: the
    # 1-D kernel reduces a contiguous last axis of 2m values, whose
    # basecase association differs from a strided middle-axis sum —
    # transpose so each column reduces the same contiguous 2m run.
    g = np.ascontiguousarray(
        d.reshape(-1, BLOCKS_PER_GROUP * s.m, k).transpose(0, 2, 1))
    per_group = g.sum(axis=2, dtype=s.acc_dtype)             # (ng, k)
    out = np.zeros((plan.n_rows, k), dtype=s.acc_dtype)
    if per_group.size == 0:
        return out
    # Second kernel, column by column, exactly as run_long_rows: reduceat
    # over that column's contiguous group partials (see the no-trailing-
    # pad note there).
    starts = np.minimum(plan.group_ptr[:-1], per_group.shape[0] - 1)
    empty = np.diff(plan.group_ptr) == 0
    for j in range(k):
        col = np.ascontiguousarray(per_group[:, j])
        yj = np.add.reduceat(col, starts).astype(s.acc_dtype, copy=False)
        yj[empty] = 0
        out[:, j] = yj
    return out


def _medium_spmm(plan, X, unit) -> np.ndarray:
    s = unit.shape
    k = X.shape[1]
    nb = plan.n_rowblocks
    acc = np.zeros((nb, s.m, k), dtype=s.acc_dtype)
    if plan.reg_nnz:
        d = _block_dots_2d(unit, plan.reg_val, plan.reg_cid, X)
        blocks_per_rb = np.diff(plan.rowblock_ptr) // s.a_elements
        owner = np.repeat(np.arange(nb, dtype=np.int64), blocks_per_rb)
        np.add.at(acc, owner, d)
    out = acc.reshape(-1, k)[:plan.n_rows].copy()
    if plan.irreg_nnz:
        # Chunk-invariant tail (see run_medium_rows): per column, the
        # flat products are scattered into zero-padded K-element chunks
        # and summed with the same sequential K-fold as the 1-D kernel,
        # accumulated per row in chunk order — row values do not depend
        # on where the regular/irregular boundary fell for this
        # row-block, and column ``j`` is bitwise the SpMV tail.
        K = s.k
        tails = np.diff(plan.irreg_ptr)
        nchunks = -(-tails // K)
        chunk_ptr = exclusive_cumsum(nchunks)
        owner = np.repeat(np.arange(plan.n_rows, dtype=np.int64), tails)
        slot = np.arange(plan.irreg_nnz, dtype=np.int64) - plan.irreg_ptr[owner]
        gchunk = chunk_ptr[owner] + slot // K
        lane = slot % K
        nchunks_total = int(chunk_ptr[-1])
        val_cast = (plan.irreg_val.astype(s.in_dtype, copy=False)
                    .astype(s.acc_dtype))
        safe_cid = plan.irreg_cid.astype(np.int64)
        chunk_sums = np.empty((nchunks_total, k), dtype=s.acc_dtype)
        for j0 in range(0, k, _COL_CHUNK):
            xg = (X[:, j0:j0 + _COL_CHUNK][safe_cid]
                  .astype(s.in_dtype, copy=False).astype(s.acc_dtype))
            prod = val_cast[:, None] * xg
            padded = np.zeros((nchunks_total, K, prod.shape[1]),
                              dtype=s.acc_dtype)
            padded[gchunk, lane, :] = prod
            chunk_sums[:, j0:j0 + _COL_CHUNK] = padded.sum(
                axis=1, dtype=s.acc_dtype)
        chunk_owner = np.repeat(np.arange(plan.n_rows, dtype=np.int64),
                                nchunks)
        np.add.at(out, chunk_owner, chunk_sums)
    return out


def _short_spmm(plan, X, unit):
    s = unit.shape
    k = X.shape[1]
    out_rows, out_vals = [], []
    if plan.rows13_one.size:
        y1 = _block_dots_2d(unit, plan.val13, plan.cid13, X,
                            cols=slice(0, 1)).reshape(-1, k)
        y3 = _block_dots_2d(unit, plan.val13, plan.cid13, X,
                            cols=slice(1, 4)).reshape(-1, k)
        n = plan.rows13_one.size
        out_rows += [plan.rows13_one, plan.rows13_three]
        out_vals += [y1[:n], y3[:n]]
    if plan.rows22_a.size:
        ya = _block_dots_2d(unit, plan.val22, plan.cid22, X,
                            cols=slice(0, 2)).reshape(-1, k)
        yb = _block_dots_2d(unit, plan.val22, plan.cid22, X,
                            cols=slice(2, 4)).reshape(-1, k)
        n = plan.rows22_a.size
        out_rows += [plan.rows22_a, plan.rows22_b]
        out_vals += [ya[:n], yb[:n]]
    if plan.rows4.size:
        y4 = _block_dots_2d(unit, plan.val4, plan.cid4, X).reshape(-1, k)
        out_rows.append(plan.rows4)
        out_vals.append(y4[:plan.rows4.size])
    if plan.rows1.size:
        prod = (plan.val1.astype(s.in_dtype, copy=False).astype(s.acc_dtype)[:, None]
                * X[plan.cid1.astype(np.int64)]
                .astype(s.in_dtype, copy=False).astype(s.acc_dtype))
        out_rows.append(plan.rows1)
        out_vals.append(prod)
    if not out_rows:
        return np.zeros(0, np.int64), np.zeros((0, k), dtype=s.acc_dtype)
    return np.concatenate(out_rows), np.vstack(out_vals)


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
    analysis (:func:`repro.gpu.memory.sector_counts`) runs once and
    feeds both the x traffic and that factor.
    """
    check(k >= 1, "k must be positive")
    base, x_factor = _gather_analysed_events(dasp, device, k)
    s = dasp.mma_shape
    return base.scale_rhs(k, mma_n=s.n, mma_flops=s.flops, x_factor=x_factor)


def _gather_analysed_events(dasp: DASPMatrix, device,
                            k: int) -> tuple[KernelEvents, float]:
    """(single-RHS DASP events, RHS-block gather factor at ``k``) from one
    :func:`repro.gpu.memory.sector_counts` pass."""
    from .method import DASPMethod

    vb = dasp.dtype.itemsize
    counts = sector_counts(dasp.csr, vb)
    base = DASPMethod().events_for_counts(dasp, device, counts)
    return base, rhs_block_factor_from_counts(dasp.csr.nnz, counts[0], vb, k)


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
