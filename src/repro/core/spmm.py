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
quantifies the utilization gain.  The NumPy kernels get the same
saving: they gather each nonzero's x row once for all ``k`` columns.
"""

from __future__ import annotations

import numpy as np

from .._util import check
from ..gpu.events import KernelEvents
from ..gpu.memory import rhs_block_factor_from_counts, sector_counts
from ..gpu.mma import MmaShape
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
    # The x side of the MMA cast chain, once per call (a no-op in FP64).
    Xa = X.astype(s.in_dtype, copy=False).astype(s.acc_dtype, copy=False)
    lp, mp, sp = dasp.long_plan, dasp.medium_plan, dasp.short_plan
    for j0 in range(0, k, _COL_CHUNK):
        cols = slice(j0, j0 + _COL_CHUNK)
        Xj = np.ascontiguousarray(Xa[:, cols])
        if lp.n_rows:
            Y[lp.row_idx, cols] = _long_spmm(lp, Xj, s)
        if mp.n_rows:
            Y[mp.row_idx, cols] = _medium_spmm(mp, Xj, s)
        if sp.n_rows:
            rows, vals = _short_spmm(sp, Xj, s)
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


#: RHS columns per pass of the 2-D helpers — bounds the transient
#: ``(nnz, chunk)`` products at large k.  Chunking is invisible in the
#: results: every output column is an independent fold.
_COL_CHUNK = 16

# Every helper below takes ``Xj``, a C-contiguous ``(n, c)`` column chunk
# of X already in the accumulator dtype, gathers it once per stored
# nonzero, and folds the products in the order of the matching 1-D
# kernel, so column ``j`` is bitwise ``dasp_spmv(X[:, j])``.


def _products(s: MmaShape, val: np.ndarray, cid: np.ndarray, Xj: np.ndarray,
              lanes: int) -> tuple[np.ndarray, np.ndarray]:
    """Lane-major products of rows of ``lanes`` nonzeros each.

    Returns ``(P, a)``: ``P[i, r]`` is the ``(c,)`` product of nonzero
    ``r * lanes + i`` with its x row, and ``a[i, r]`` that nonzero's
    value, both in the accumulator dtype.  Lane-major, each lane of the
    fold below is one contiguous ``(R, c)`` slab.
    """
    a = (val.astype(s.in_dtype, copy=False).astype(s.acc_dtype, copy=False)
         .reshape(-1, lanes).T)
    P = np.take(Xj, cid.reshape(-1, lanes).T.ravel(), axis=0)
    P = P.reshape(lanes, -1, Xj.shape[1])
    P *= a[:, :, None]
    return P, a


def _block_dots_2d(P: np.ndarray, a: np.ndarray | None = None,
                   x_lanes=None) -> np.ndarray:
    """Per-(block row, rhs) dot products ``(R, c)``: the K lanes of the
    products ``P`` folded left to right.

    This is bitwise NumPy's ``sum`` over a length-4 axis, the fold of
    :meth:`MmaUnit.block_row_dots`; a pairwise association is not.
    With ``x_lanes``, only those lanes carry x and the others add
    ``a * 0``, exactly as the 1-D short-row kernel's zeroed x fragment
    does (the paper's double x-load of pieced rows).
    """
    terms = [P[i] if x_lanes is None or i in x_lanes else a[i, :, None] * 0
             for i in range(P.shape[0])]
    out = np.add(terms[0], terms[1], out=np.empty(P.shape[1:], P.dtype))
    for t in terms[2:]:
        out += t
    return out


def _fold_segments(acc: np.ndarray, parts: np.ndarray, ptr: np.ndarray) -> None:
    """``acc[i] += parts[ptr[i]]``, then ``parts[ptr[i] + 1]``, ... in place.

    The sequential order of ``np.add.at(acc, owner, parts)``, with one
    vectorized step per position within a segment: segments are visited
    longest first, so step ``j`` adds to a prefix of them.
    (``np.add.reduceat`` over a 2-D array associates pairwise instead.)
    """
    lens = np.diff(ptr)
    if not lens.any():
        return
    order = np.argsort(-lens, kind="stable")
    starts = ptr[:-1][order]
    live = lens.size - np.searchsorted(np.sort(lens), np.arange(lens.max()),
                                       side="right")
    folded = acc[order]
    for j, n in enumerate(live):
        folded[:n] += parts[starts[:n] + j]
    acc[order] = folded


def _long_spmm(plan, Xj: np.ndarray, s: MmaShape) -> np.ndarray:
    from .long_rows import BLOCKS_PER_GROUP

    c = Xj.shape[1]
    P, _ = _products(s, plan.val, plan.cid, Xj, s.k)
    d = _block_dots_2d(P)                                    # (nb*m, c)
    # fragY accumulation across the group's blocks + shuffle tree: the
    # 1-D kernel reduces a contiguous last axis of 2m values, whose
    # basecase association differs from a strided middle-axis sum —
    # transpose so each column reduces the same contiguous 2m run.
    g = np.ascontiguousarray(
        d.reshape(-1, BLOCKS_PER_GROUP * s.m, c).transpose(2, 0, 1))
    per_group = g.sum(axis=2, dtype=s.acc_dtype)             # (c, ng)
    if per_group.size == 0:
        return np.zeros((plan.n_rows, c), dtype=s.acc_dtype)
    # Second kernel, as run_long_rows: reduceat over each column's
    # contiguous group partials (see the no-trailing-pad note there).
    # Along the last axis of a C-contiguous array it folds every column
    # exactly as the 1-D call does.
    starts = np.minimum(plan.group_ptr[:-1], per_group.shape[1] - 1)
    y = np.add.reduceat(per_group, starts, axis=1)
    y[:, np.diff(plan.group_ptr) == 0] = 0
    return y.T


def _medium_spmm(plan, Xj: np.ndarray, s: MmaShape) -> np.ndarray:
    c = Xj.shape[1]
    M, K = s.m, s.k
    acc = np.zeros((plan.n_rowblocks, M, c), dtype=s.acc_dtype)
    if plan.reg_nnz:
        P, _ = _products(s, plan.reg_val, plan.reg_cid, Xj, K)
        d = _block_dots_2d(P)
        _fold_segments(acc, d.reshape(-1, M, c), plan.rowblock_ptr // (M * K))
    out = acc.reshape(-1, c)[:plan.n_rows].copy()
    if plan.irreg_nnz:
        # Chunk-invariant tail (see run_medium_rows): the products go
        # into zero-padded K-element chunks (exact zeros, not ``0 * x``),
        # each chunk is lane-folded like a block row, and the chunk sums
        # are folded per row in chunk order.
        tails = np.diff(plan.irreg_ptr)
        chunk_ptr = exclusive_cumsum(-(-tails // K))
        owner = np.repeat(np.arange(plan.n_rows, dtype=np.int64), tails)
        slot = np.arange(plan.irreg_nnz, dtype=np.int64) - plan.irreg_ptr[owner]
        padded = np.zeros((K, int(chunk_ptr[-1]), c), dtype=s.acc_dtype)
        P, _ = _products(s, plan.irreg_val, plan.irreg_cid, Xj, 1)
        padded[slot % K, chunk_ptr[owner] + slot // K] = P[0]
        _fold_segments(out, _block_dots_2d(padded), chunk_ptr)
    return out


def _short_spmm(plan, Xj: np.ndarray, s: MmaShape):
    c = Xj.shape[1]
    out_rows, out_vals = [], []
    # Pieced pairs: one gather serves both x-load passes.
    for val, cid, first, second, split in (
            (plan.val13, plan.cid13, plan.rows13_one, plan.rows13_three, 1),
            (plan.val22, plan.cid22, plan.rows22_a, plan.rows22_b, 2)):
        if first.size:
            n = first.size * s.k
            P, a = _products(s, val[:n], cid[:n], Xj, s.k)
            out_rows += [first, second]
            out_vals += [_block_dots_2d(P, a, range(split)),
                         _block_dots_2d(P, a, range(split, s.k))]
    if plan.rows4.size:
        n = plan.rows4.size * s.k
        P, _ = _products(s, plan.val4[:n], plan.cid4[:n], Xj, s.k)
        out_rows.append(plan.rows4)
        out_vals.append(_block_dots_2d(P))
    if plan.rows1.size:
        P, _ = _products(s, plan.val1, plan.cid1, Xj, 1)
        out_rows.append(plan.rows1)
        out_vals.append(P[0])
    if not out_rows:
        return np.zeros(0, np.int64), np.zeros((0, c), dtype=s.acc_dtype)
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
    analysis (:func:`gather_analysis`) runs once and feeds both the x
    traffic and that factor.
    """
    check(k >= 1, "k must be positive")
    return rhs_events(dasp, gather_analysis(dasp, device), k)


def gather_analysis(dasp: DASPMatrix, device) -> tuple[KernelEvents, int]:
    """The k-independent half of every k-wide price of *dasp*.

    ``(single-RHS DASP events, per-row sector count)`` from one
    :func:`repro.gpu.memory.sector_counts` pass; :func:`rhs_events`
    turns it into the events at any width, so a caller pricing several
    widths or schedules of one plan counts sectors once.
    """
    from .method import DASPMethod

    counts = sector_counts(dasp.csr, dasp.dtype.itemsize)
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
