"""Shared helpers of the DASP planners (packing) and kernels (lane folds)."""

from __future__ import annotations

import numpy as np

from .._util import PTR_DTYPE, check


def exclusive_cumsum(counts: np.ndarray) -> np.ndarray:
    """``[0, c0, c0+c1, ...]`` of length ``len(counts) + 1``."""
    out = np.zeros(counts.size + 1, dtype=PTR_DTYPE)
    np.cumsum(counts, out=out[1:])
    return out


def gather_rows_padded(csr, rows: np.ndarray, padded_lens: np.ndarray):
    """Gather selected rows into a flat zero-padded layout.

    Row ``rows[i]`` contributes exactly ``padded_lens[i]`` consecutive
    slots: its nonzeros first (CSR order), then explicit zeros with column
    index 0 — the paper's padding convention (``longCid`` sets padded
    columns to 0, whose x value is multiplied by a zero value).

    Returns ``(val, cid, valid)`` flat arrays of length
    ``padded_lens.sum()``.
    """
    rows = np.asarray(rows, dtype=np.int64)
    padded_lens = np.asarray(padded_lens, dtype=np.int64)
    check(rows.size == padded_lens.size, "rows/padded_lens length mismatch")
    lens = csr.row_lengths()[rows] if rows.size else np.zeros(0, dtype=np.int64)
    check(bool(np.all(padded_lens >= lens)), "padded length below row length")
    total = int(padded_lens.sum())
    val = np.zeros(total, dtype=csr.data.dtype)
    cid = np.zeros(total, dtype=np.int32)
    valid = np.zeros(total, dtype=bool)
    if total == 0:
        return val, cid, valid
    owner = np.repeat(np.arange(rows.size, dtype=np.int64), padded_lens)
    starts = exclusive_cumsum(padded_lens)
    slot = np.arange(total, dtype=np.int64) - starts[owner]
    valid = slot < lens[owner]
    src = csr.indptr[rows][owner] + slot
    src_safe = np.minimum(src, max(csr.nnz - 1, 0))
    val[valid] = csr.data[src_safe[valid]]
    cid[valid] = csr.indices[src_safe[valid]]
    return val, cid, valid


def rhs_block(shape, x: np.ndarray) -> np.ndarray:
    """``x`` (``(n,)`` or ``(n, c)``) as the C-contiguous ``(n, c)`` block
    the category kernels gather from, through the MMA cast chain (input
    dtype, then accumulator dtype; no copy in FP64)."""
    x = np.asarray(x)
    X = x[:, None] if x.ndim == 1 else x
    return np.ascontiguousarray(
        X.astype(shape.in_dtype, copy=False).astype(shape.acc_dtype, copy=False))


def acc_values(shape, val: np.ndarray) -> np.ndarray:
    """Stored values through the MMA cast chain (no copy in FP64)."""
    return val.astype(shape.in_dtype, copy=False).astype(shape.acc_dtype,
                                                         copy=False)


def fold_lanes(lanes, shape: tuple, dtype) -> np.ndarray:
    """``((t0 + t1) + t2) + t3``: the lanes of a block row, left to right.

    ``lanes`` yields one ``(R, c)`` term per lane, or a broadcastable
    ``(R, 1)`` one for a lane that loads no x; each is folded in before
    the next is made, into the first term itself when it is full-sized
    (the terms are the caller's temporaries).  Bitwise NumPy's ``sum``
    over a length-4 axis, the fold of
    :meth:`repro.gpu.mma.MmaUnit.block_row_dots`, except that a row of
    four ``-0.0`` terms folds to ``-0.0`` where ``sum`` (which starts
    from ``+0.0``) gives ``+0.0``; a pairwise ``(t0 + t1) + (t2 + t3)``
    is not bitwise.
    """
    lanes = iter(lanes)
    out = next(lanes)
    if out.shape != shape:
        out = np.add(out, next(lanes), out=np.empty(shape, dtype))
    for t in lanes:
        out += t
    return out


def lane_dots(shape, val: np.ndarray, cid: np.ndarray, X: np.ndarray,
              x_lanes=None) -> np.ndarray:
    """Per-(block row, rhs) dot products ``(R, c)`` of block rows of
    ``shape.k`` stored nonzeros each — the diagonal of the MMA product.

    One lane at a time, the lane's x rows are gathered from ``X`` (a
    :func:`rhs_block`), scaled by its values and folded in
    (:func:`fold_lanes`), so no ``(nnz, c)`` product block is ever
    materialised.  With ``x_lanes``, only those lanes load x and every
    other lane adds ``a * 0``: the zeroed x fragment of the short-row
    kernels' double x-load (pieced rows).
    """
    a = acc_values(shape, val).reshape(-1, shape.k)
    cid = cid.reshape(-1, shape.k)

    def lane(i):
        if x_lanes is not None and i not in x_lanes:
            return a[:, i, None] * 0
        t = X.take(cid[:, i], axis=0)
        t *= a[:, i, None]
        return t

    return fold_lanes(map(lane, range(shape.k)), (a.shape[0], X.shape[1]),
                      a.dtype)
