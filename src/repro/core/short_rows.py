"""Short-rows planner and kernels — Section 3.3.3 / Algorithms 4-5.

Rows with at most 4 nonzeros are *pieced* into packed length-4 rows so
MMA blocks stay dense:

* **1&3**: a length-1 row takes slot 0 and a length-3 row takes slots
  1-3 of a packed row.  One warp computes two 8x4 blocks with *four* MMA
  calls — each block loads A once and x twice (first the slot-0 columns,
  then slots 1-3), yielding 32 consecutive y values per warp.
* **2&2**: two length-2 rows share a packed row (x loaded for slots 0-1,
  then 2-3).
* **len-4**: native length-4 rows, leftover length-3 rows padded with one
  zero, and an odd leftover length-2 row padded with two zeros; one MMA
  per block.
* **singles**: leftover length-1 rows use one CUDA thread per row
  (Algorithm 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..gpu.device import WARP_SIZE
from ..gpu.events import KernelEvents
from ..gpu.mma import MmaShape, MmaUnit
from ._pack import (ScheduleMemo, acc_values, gather_rows_padded, lane_dots,
                    rhs_block)


@dataclass
class ShortRowsPlan:
    """Packed data for the short-rows category.

    Each ``val``/``cid`` pair is a flat zero-padded array of
    ``n_packed_rows_padded * 4`` slots (block padding included); the
    ``rows_*`` arrays map packed outputs back to original rows.
    ``schedule`` holds the kernels' output row map, built on their
    first run (:class:`~repro.core._pack.ScheduleMemo`; never
    serialized).
    """

    shape: MmaShape
    # 1&3 pieced rows: rows13_one are the length-1 rows (slot 0), rows13_three
    # the length-3 rows (slots 1-3); one packed row yields two y values.
    val13: np.ndarray
    cid13: np.ndarray
    rows13_one: np.ndarray
    rows13_three: np.ndarray
    # 2&2 pieced rows.
    val22: np.ndarray
    cid22: np.ndarray
    rows22_a: np.ndarray
    rows22_b: np.ndarray
    # length-4 rows (native + padded leftovers).
    val4: np.ndarray
    cid4: np.ndarray
    rows4: np.ndarray
    # leftover length-1 singles.
    val1: np.ndarray
    cid1: np.ndarray
    rows1: np.ndarray
    orig_nnz: int
    schedule: ScheduleMemo = field(default_factory=ScheduleMemo, repr=False,
                                   compare=False)

    # ------------------------------------------------------------------
    @property
    def n_rows(self) -> int:
        """Original short rows covered by this plan."""
        return int(self.rows13_one.size + self.rows13_three.size
                   + self.rows22_a.size + self.rows22_b.size
                   + self.rows4.size + self.rows1.size)

    @property
    def padded_nnz(self) -> int:
        """Stored slots including all padding (``nnz_short_new``)."""
        return int(self.val13.size + self.val22.size + self.val4.size + self.val1.size)

    @property
    def padding_ratio(self) -> float:
        return self.padded_nnz / self.orig_nnz if self.orig_nnz else 1.0

    @property
    def blocks13(self) -> int:
        return self.val13.size // (self.shape.a_elements)

    @property
    def blocks22(self) -> int:
        return self.val22.size // (self.shape.a_elements)

    @property
    def blocks4(self) -> int:
        return self.val4.size // (self.shape.a_elements)


#: Payload slabs holding matrix *values* — patched in place by
#: ``repro.core.delta.apply_value_update``.
VALUE_SLAB_FIELDS = ("val13", "val22", "val4", "val1")


def _pad_to_blocks(arr2d: np.ndarray, rows_per_block: int) -> np.ndarray:
    """Zero-pad a (rows, 4) table so rows divide ``rows_per_block``."""
    pad = (-arr2d.shape[0]) % rows_per_block
    if pad:
        arr2d = np.vstack([arr2d, np.zeros((pad, arr2d.shape[1]), dtype=arr2d.dtype)])
    return arr2d


def build_short_rows(csr, short: dict[int, np.ndarray], shape: MmaShape) -> ShortRowsPlan:
    """Pack the classified short rows into a :class:`ShortRowsPlan`."""
    M, K = shape.m, shape.k
    r1, r2, r3, r4 = (np.asarray(short.get(k, np.zeros(0, np.int64)), dtype=np.int64)
                      for k in (1, 2, 3, 4))
    indptr, data, indices = csr.indptr, csr.data, csr.indices
    dtype = data.dtype

    # --- 1&3 piecing -------------------------------------------------
    p13 = min(r1.size, r3.size)
    ones13, threes13 = r1[:p13], r3[:p13]
    V13 = np.zeros((p13, K), dtype=dtype)
    C13 = np.zeros((p13, K), dtype=np.int32)
    if p13:
        s1 = indptr[ones13]
        V13[:, 0] = data[s1]
        C13[:, 0] = indices[s1]
        s3 = indptr[threes13]
        for j in range(3):
            V13[:, 1 + j] = data[s3 + j]
            C13[:, 1 + j] = indices[s3 + j]
    V13 = _pad_to_blocks(V13, M)
    C13 = _pad_to_blocks(C13, M)

    # --- 2&2 piecing -------------------------------------------------
    p22 = r2.size // 2
    a22, b22 = r2[0:2 * p22:2], r2[1:2 * p22:2]
    V22 = np.zeros((p22, K), dtype=dtype)
    C22 = np.zeros((p22, K), dtype=np.int32)
    if p22:
        sa, sb = indptr[a22], indptr[b22]
        for j in range(2):
            V22[:, j] = data[sa + j]
            C22[:, j] = indices[sa + j]
            V22[:, 2 + j] = data[sb + j]
            C22[:, 2 + j] = indices[sb + j]
    V22 = _pad_to_blocks(V22, M)
    C22 = _pad_to_blocks(C22, M)

    # --- length-4 rows (native + padded leftovers) --------------------
    leftover3 = r3[p13:]
    leftover2 = r2[2 * p22:]
    rows4_all = np.concatenate([r4, leftover3, leftover2])
    val4_flat, cid4_flat, _ = gather_rows_padded(
        csr, rows4_all, np.full(rows4_all.size, K, dtype=np.int64))
    V4 = _pad_to_blocks(val4_flat.reshape(-1, K), M)
    C4 = _pad_to_blocks(cid4_flat.reshape(-1, K).astype(np.int32), M)

    # --- leftover singles ---------------------------------------------
    singles = r1[p13:]
    s = indptr[singles] if singles.size else np.zeros(0, dtype=np.int64)
    val1 = data[s] if singles.size else np.zeros(0, dtype=dtype)
    cid1 = indices[s].astype(np.int32) if singles.size else np.zeros(0, dtype=np.int32)

    orig_nnz = int(r1.size * 1 + r2.size * 2 + r3.size * 3 + r4.size * 4)
    return ShortRowsPlan(
        shape=shape,
        val13=V13.reshape(-1), cid13=C13.reshape(-1),
        rows13_one=ones13, rows13_three=threes13,
        val22=V22.reshape(-1), cid22=C22.reshape(-1),
        rows22_a=a22, rows22_b=b22,
        val4=V4.reshape(-1), cid4=C4.reshape(-1), rows4=rows4_all,
        val1=val1, cid1=cid1, rows1=singles,
        orig_nnz=orig_nnz,
    )


def _short_dots(s: MmaShape, val: np.ndarray, cid: np.ndarray, X: np.ndarray,
                x_lanes=None) -> np.ndarray:
    """One MMA pass over packed rows, x loaded for ``x_lanes`` only.

    A short row's block-row dot is its ``y`` value, so it keeps the
    accumulator's start at ``+0.0`` (``C = 0`` in ``D = A @ B + C``): a
    row of four ``-0.0`` products gives ``+0.0``, as the unit's
    ``sum`` does (see :func:`repro.core._pack.fold_lanes`).
    """
    d = lane_dots(s, val, cid, X, x_lanes)
    d += 0.0
    return d


def short_schedule(plan: ShortRowsPlan) -> np.ndarray:
    """The original row of each value :func:`run_short_rows` returns:
    the 1&3, 2&2, length-4 and single rows' maps, concatenated.
    Read-only: every run returns this one array."""
    rows = np.concatenate([plan.rows13_one, plan.rows13_three, plan.rows22_a,
                           plan.rows22_b, plan.rows4, plan.rows1])
    rows.flags.writeable = False
    return rows


def run_short_rows(plan: ShortRowsPlan, x: np.ndarray, *,
                   unit: MmaUnit | None = None):
    """Short-rows kernels.

    Returns ``(row_indices, values)`` covering every short row exactly
    once, in subcategory order; ``values`` is ``(rows,)`` for a vector
    ``x`` and ``(rows, c)`` for an ``(n, c)`` block.  ``row_indices`` is
    the plan's schedule (:func:`short_schedule`), shared by every run.
    ``unit`` counts the issued blocks (two x-load passes per pieced
    block).
    """
    s = plan.shape
    if unit is not None:
        unit.issue_count += 2 * plan.blocks13 + 2 * plan.blocks22 + plan.blocks4
    rows = plan.schedule.of(plan, short_schedule)
    X = rhs_block(s, x)
    out_vals = []
    # Pieced pairs: A is loaded once and x twice — 1&3 loads slot 0,
    # then slots 1-3; 2&2 slots 0-1, then 2-3.  Each lane is gathered by
    # the one pass that loads it.
    for val, cid, first, split in (
            (plan.val13, plan.cid13, plan.rows13_one, 1),
            (plan.val22, plan.cid22, plan.rows22_a, 2)):
        if first.size:
            n = first.size * s.k
            out_vals += [_short_dots(s, val[:n], cid[:n], X, range(split)),
                         _short_dots(s, val[:n], cid[:n], X, range(split, s.k))]
    # len-4: one full-x MMA per block.
    if plan.rows4.size:
        n = plan.rows4.size * s.k
        out_vals.append(_short_dots(s, plan.val4[:n], plan.cid4[:n], X))
    # singles: plain CUDA-core products (Algorithm 5).
    if plan.rows1.size:
        t = X.take(plan.cid1, axis=0)
        t *= acc_values(s, plan.val1)[:, None]
        out_vals.append(t)
    if out_vals:
        vals = np.vstack(out_vals)
    else:
        vals = np.zeros((0, X.shape[1]), s.acc_dtype)
    return rows, vals if np.ndim(x) == 2 else vals[:, 0]


def short_rows_events(plan: ShortRowsPlan, device, *, x_bytes: float) -> KernelEvents:
    """Device events for the short-rows kernels."""
    if plan.n_rows == 0:
        return KernelEvents(kernel_launches=0)
    s = plan.shape
    vb = s.in_dtype.itemsize
    ab = s.acc_dtype.itemsize
    mma = 2 * plan.blocks13 + 2 * plan.blocks22 + plan.blocks4
    # The four subcategory kernels are launched on concurrent CUDA
    # streams; their fixed overhead overlaps, so one launch is charged.
    launches = 1
    outputs = (2 * plan.rows13_one.size + 2 * plan.rows22_a.size
               + plan.rows4.size + plan.rows1.size)
    threads = ((plan.blocks13 // 2 + plan.blocks22 // 2 + plan.blocks4 // 4 + 1)
               * WARP_SIZE + plan.rows1.size)
    return KernelEvents(
        bytes_val=plan.padded_nnz * vb,
        bytes_idx=plan.padded_nnz * 4,
        bytes_ptr=64,  # fixed-size per-category offsets only (paper: no offset arrays)
        bytes_x=x_bytes,
        bytes_y=outputs * ab + outputs * 8,
        flops_mma=mma * s.flops,
        flops_cuda=2.0 * plan.rows1.size,
        mma_count=mma,
        shfl_count=mma * 2,
        extra_instr=threads,
        imbalance=1.0,  # fixed-size blocks: perfectly uniform work
        serial_iters=4.0,
        kernel_launches=launches,
        threads=threads,
    )
