"""Medium-rows planner and kernel — Section 3.3.2 / Algorithm 3.

Medium rows (``4 < Row_len <= MAX_LEN``) are stably sorted by descending
length, grouped into *row-blocks* of ``MMA_M`` consecutive sorted rows,
and each row-block's leading ``MMA_M x MMA_K`` chunks become zero-padded
**regular** MMA blocks while chunk occupancy exceeds ``threshold`` (0.75
in the paper).  The per-row tails past the last regular chunk form the
**irregular** part, processed one thread per row on CUDA cores.

``LOOP_NUM`` (row-blocks per warp) follows the paper's rule exactly:
1 below 59990 medium rows, 2 below 400000, else 4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._util import check
from ..gpu.device import WARP_SIZE
from ..gpu.events import KernelEvents
from ..gpu.mma import MmaShape, MmaUnit
from ._pack import acc_values, exclusive_cumsum, fold_lanes, lane_dots, rhs_block

#: The paper's chunk-occupancy threshold for forming a regular block.
DEFAULT_THRESHOLD = 0.75


def loop_num_for(row_medium: int) -> int:
    """The paper's LOOP_NUM rule (Section 3.3.2)."""
    if row_medium < 59990:
        return 1
    if row_medium < 400000:
        return 2
    return 4


@dataclass
class MediumRowsPlan:
    """Packed data for the medium-rows category.

    Attributes
    ----------
    row_idx:
        Original row indices in packed (descending-length) order.
    rowblock_ptr:
        ``rowblockPtr``: element offset of each row-block's regular part
        (multiples of ``MMA_M * MMA_K``).
    reg_val / reg_cid:
        Regular part, intra-block row-major, zero padded.
    irreg_ptr / irreg_val / irreg_cid:
        Irregular per-row tails in CSR-like layout over packed rows.
    loop_num:
        Row-blocks per warp.
    """

    row_idx: np.ndarray
    rowblock_ptr: np.ndarray
    reg_val: np.ndarray
    reg_cid: np.ndarray
    irreg_ptr: np.ndarray
    irreg_val: np.ndarray
    irreg_cid: np.ndarray
    shape: MmaShape
    threshold: float
    loop_num: int
    orig_nnz: int

    @property
    def n_rows(self) -> int:
        return int(self.row_idx.size)

    @property
    def n_rowblocks(self) -> int:
        return int(self.rowblock_ptr.size - 1)

    @property
    def n_blocks(self) -> int:
        """Total regular MMA blocks."""
        return int(self.rowblock_ptr[-1]) // self.shape.a_elements

    @property
    def reg_nnz(self) -> int:
        """Stored regular elements, padding included."""
        return int(self.reg_val.size)

    @property
    def irreg_nnz(self) -> int:
        return int(self.irreg_val.size)

    @property
    def padding_ratio(self) -> float:
        stored = self.reg_nnz + self.irreg_nnz
        return stored / self.orig_nnz if self.orig_nnz else 1.0


#: Payload slabs holding matrix *values* — patched in place by
#: ``repro.core.delta.apply_value_update``.
VALUE_SLAB_FIELDS = ("reg_val", "irreg_val")


def build_medium_rows(csr, rows_sorted: np.ndarray, shape: MmaShape, *,
                      threshold: float = DEFAULT_THRESHOLD) -> MediumRowsPlan:
    """Pack medium rows (already sorted by descending length)."""
    check(0 < threshold <= 1, "threshold must be in (0, 1]")
    rows_sorted = np.asarray(rows_sorted, dtype=np.int64)
    M, K = shape.m, shape.k
    n_med = rows_sorted.size
    lens_all = csr.row_lengths()
    lens = lens_all[rows_sorted] if n_med else np.zeros(0, dtype=np.int64)
    nb = -(-n_med // M) if n_med else 0

    # Pad row-length table to (nb, M); padded virtual rows have length 0.
    L = np.zeros((nb, M), dtype=np.int64)
    if n_med:
        L.reshape(-1)[:n_med] = lens

    # Number of regular chunks per row-block: chunk k is regular while its
    # occupancy exceeds threshold * M * K.  Occupancy is non-increasing in
    # k (rows sorted descending), so the regular chunks form a prefix.
    occ_needed = threshold * M * K
    max_chunks = int(-(-L.max() // K)) if nb else 0
    K_b = np.zeros(nb, dtype=np.int64)
    alive = np.ones(nb, dtype=bool)
    for k in range(max_chunks):
        occ = np.clip(L - K * k, 0, K).sum(axis=1)
        alive &= occ > occ_needed
        if not alive.any():
            break
        K_b += alive

    reg_elems = K_b * M * K
    rowblock_ptr = exclusive_cumsum(reg_elems)
    total_reg = int(rowblock_ptr[-1])

    reg_val = np.zeros(total_reg, dtype=csr.data.dtype)
    reg_cid = np.zeros(total_reg, dtype=np.int32)
    if total_reg:
        owner_b = np.repeat(np.arange(nb, dtype=np.int64), reg_elems)
        t = np.arange(total_reg, dtype=np.int64) - rowblock_ptr[owner_b]
        chunk = t // (M * K)
        r_in_b = (t % (M * K)) // K
        j = t % K
        packed_row = owner_b * M + r_in_b
        pos = chunk * K + j
        valid = (packed_row < n_med)
        row_len = np.where(valid, L.reshape(-1)[np.minimum(packed_row, nb * M - 1)], 0)
        valid &= pos < row_len
        src_row = rows_sorted[np.minimum(packed_row, max(n_med - 1, 0))]
        src = csr.indptr[src_row] + pos
        src_safe = np.minimum(src, max(csr.nnz - 1, 0))
        reg_val[valid] = csr.data[src_safe[valid]]
        reg_cid[valid] = csr.indices[src_safe[valid]]

    # Irregular tails: elements past chunk K_b of each packed row.
    reg_cols = (K_b * K)  # per row-block, regular columns covered per row
    per_row_reg = np.repeat(reg_cols, M)[:n_med] if n_med else np.zeros(0, dtype=np.int64)
    tail = np.maximum(lens - per_row_reg, 0)
    irreg_ptr = exclusive_cumsum(tail)
    total_irr = int(irreg_ptr[-1])
    irreg_val = np.zeros(total_irr, dtype=csr.data.dtype)
    irreg_cid = np.zeros(total_irr, dtype=np.int32)
    if total_irr:
        owner = np.repeat(np.arange(n_med, dtype=np.int64), tail)
        slot = np.arange(total_irr, dtype=np.int64) - irreg_ptr[owner]
        src = csr.indptr[rows_sorted[owner]] + per_row_reg[owner] + slot
        irreg_val[:] = csr.data[src]
        irreg_cid[:] = csr.indices[src]

    return MediumRowsPlan(
        row_idx=rows_sorted,
        rowblock_ptr=rowblock_ptr,
        reg_val=reg_val,
        reg_cid=reg_cid,
        irreg_ptr=irreg_ptr,
        irreg_val=irreg_val,
        irreg_cid=irreg_cid,
        shape=shape,
        threshold=threshold,
        loop_num=loop_num_for(n_med),
        orig_nnz=int(lens.sum()),
    )


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
        folded[:n] += parts.take(starts[:n] + j, axis=0)
    acc[order] = folded


def run_medium_rows(plan: MediumRowsPlan, x: np.ndarray, *,
                    unit: MmaUnit | None = None) -> np.ndarray:
    """Medium-rows kernel: per-row sums in packed order.

    ``x`` is ``(n,)`` or ``(n, c)``, as for
    :func:`repro.core.long_rows.run_long_rows`; ``unit`` counts the
    regular blocks issued.
    """
    s = plan.shape
    M, K = s.m, s.k
    if unit is not None:
        unit.issue_count += plan.n_blocks
    X = rhs_block(s, x)
    c = X.shape[1]
    acc = np.zeros((plan.n_rowblocks, M, c), dtype=s.acc_dtype)
    if plan.reg_nnz:
        d = lane_dots(s, plan.reg_val, plan.reg_cid, X)
        _fold_segments(acc, d.reshape(-1, M, c), plan.rowblock_ptr // (M * K))
    out = acc.reshape(-1, c)[:plan.n_rows].copy()
    if plan.irreg_nnz:
        # Chunk-invariant tail: the regular/irregular boundary of a row
        # always falls on a multiple of K, so summing the tail in
        # zero-padded K-element chunks (exact zeros, not ``0 * x``),
        # each lane-folded like a block row, makes each row's value a
        # fold over identical chunk sums no matter how many of its
        # chunks were regular.  Row values are therefore independent of
        # row-block composition (and of sharding).
        tails = np.diff(plan.irreg_ptr)
        chunk_ptr = exclusive_cumsum(-(-tails // K))
        n_chunks = int(chunk_ptr[-1])
        # Tail slot j of row i is lane j % K of chunk chunk_ptr[i] + j // K;
        # ``pos`` numbers the slots chunk by chunk, the lanes are stored
        # lane-major so each folds as one contiguous slab.
        pos = np.arange(plan.irreg_nnz) + np.repeat(
            chunk_ptr[:-1] * K - plan.irreg_ptr[:-1], tails)
        t = X.take(plan.irreg_cid, axis=0)
        t *= acc_values(s, plan.irreg_val)[:, None]
        padded = np.zeros((K, n_chunks, c), dtype=s.acc_dtype)
        padded.reshape(-1, c)[pos % K * n_chunks + pos // K] = t
        _fold_segments(out, fold_lanes(padded, (n_chunks, c), s.acc_dtype),
                       chunk_ptr)
    return out if np.ndim(x) == 2 else out[:, 0]


def medium_rows_events(plan: MediumRowsPlan, device, *, x_bytes: float) -> KernelEvents:
    """Device events for the medium-rows kernel."""
    if plan.n_rows == 0:
        return KernelEvents(kernel_launches=0)
    s = plan.shape
    vb = s.in_dtype.itemsize
    ab = s.acc_dtype.itemsize
    nb = plan.n_rowblocks
    n_blocks = plan.n_blocks

    # Sorting makes warps of similar cost; the critical path is the
    # heaviest warp: its regular block iterations plus the longest
    # irregular tail any of its lanes walks serially.
    tails = np.diff(plan.irreg_ptr)
    lanes = plan.loop_num * s.m
    n_warps = -(-nb // plan.loop_num)
    reg_per_rb = np.diff(plan.rowblock_ptr).astype(np.float64)
    pad_rb = (-nb) % plan.loop_num
    reg_warp = np.concatenate([reg_per_rb, np.zeros(pad_rb)]).reshape(n_warps, plan.loop_num).sum(axis=1)
    pad_rows = n_warps * lanes - plan.n_rows
    tails_pad = np.concatenate([tails, np.zeros(pad_rows, dtype=tails.dtype)])
    tail_warp = tails_pad.reshape(n_warps, lanes).max(axis=1)
    serial = float((reg_warp / WARP_SIZE + tail_warp).max()) if n_warps else 0.0

    return KernelEvents(
        bytes_val=plan.reg_nnz * vb + plan.irreg_nnz * vb,
        bytes_idx=plan.reg_nnz * 4 + plan.irreg_nnz * 4,
        bytes_ptr=(nb + 1) * 8 + (plan.n_rows + 1) * 8,
        bytes_x=x_bytes,
        bytes_y=plan.n_rows * ab + plan.n_rows * 8,
        flops_mma=n_blocks * s.flops,
        flops_cuda=2.0 * plan.irreg_nnz,
        mma_count=n_blocks,
        shfl_count=nb * 2,
        extra_instr=n_warps * WARP_SIZE * 3,
        imbalance=1.0,
        serial_iters=serial,
        kernel_launches=1,
        threads=n_warps * WARP_SIZE,
    )
