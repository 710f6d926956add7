"""Long-rows planner and kernel — Section 3.3.1 / Algorithm 2.

Each long row (``Row_len > MAX_LEN``) is cut into *groups* of
``2 * MMA_M * MMA_K`` elements (64 for m8n8k4), zero-padded at the end of
the row.  One warp consumes one group as two MMA fragments, reduces the
eight diagonal partial sums with shuffles (offsets 9 / 18 / 4 — see
:mod:`repro.gpu.mma` for why those offsets are correct) and writes a
per-group partial into ``warpVal``; a second kernel sums each row's
partials into ``y``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._util import ceil_div
from ..gpu.device import WARP_SIZE
from ..gpu.events import KernelEvents
from ..gpu.mma import MmaShape, MmaUnit
from ._pack import exclusive_cumsum, gather_rows_padded, lane_dots, rhs_block

#: Blocks consumed by one warp per group (Algorithm 2's inner loop runs
#: twice) — fixed by the paper.
BLOCKS_PER_GROUP = 2


@dataclass
class LongRowsPlan:
    """Packed data for the long-rows category.

    Attributes
    ----------
    row_idx:
        Original row index of each long row.
    group_ptr:
        Group offsets per row (``groupPtr`` in the paper): row ``i`` owns
        groups ``group_ptr[i]:group_ptr[i+1]``.
    val / cid:
        ``longVal`` / ``longCid``: zero-padded values and column indices,
        ``n_groups * group_elems`` entries.
    shape:
        MMA instruction geometry used for packing.
    orig_nnz:
        Real nonzeros before padding.
    """

    row_idx: np.ndarray
    group_ptr: np.ndarray
    val: np.ndarray
    cid: np.ndarray
    shape: MmaShape
    orig_nnz: int

    @property
    def group_elems(self) -> int:
        """Elements per group (= 2 * MMA_M * MMA_K)."""
        return BLOCKS_PER_GROUP * self.shape.a_elements

    @property
    def n_rows(self) -> int:
        return int(self.row_idx.size)

    @property
    def n_groups(self) -> int:
        return int(self.group_ptr[-1]) if self.group_ptr.size else 0

    @property
    def padded_nnz(self) -> int:
        return int(self.val.size)

    @property
    def padding_ratio(self) -> float:
        """Stored / real elements (>= 1)."""
        return self.padded_nnz / self.orig_nnz if self.orig_nnz else 1.0


#: Payload slabs holding matrix *values* — patched in place by
#: ``repro.core.delta.apply_value_update``.
VALUE_SLAB_FIELDS = ("val",)


def build_long_rows(csr, rows: np.ndarray, shape: MmaShape) -> LongRowsPlan:
    """Pack the given long rows of *csr* into a :class:`LongRowsPlan`."""
    rows = np.asarray(rows, dtype=np.int64)
    group_elems = BLOCKS_PER_GROUP * shape.a_elements
    lens = csr.row_lengths()[rows] if rows.size else np.zeros(0, dtype=np.int64)
    groups = -(-lens // group_elems)  # ceil per row
    padded = groups * group_elems
    val, cid, _ = gather_rows_padded(csr, rows, padded)
    return LongRowsPlan(
        row_idx=rows,
        group_ptr=exclusive_cumsum(groups),
        val=val,
        cid=cid,
        shape=shape,
        orig_nnz=int(lens.sum()),
    )


def run_long_rows(plan: LongRowsPlan, x: np.ndarray, *,
                  unit: MmaUnit | None = None) -> np.ndarray:
    """Long-rows kernel: per-row sums in original row order.

    ``x`` is one vector ``(n,)`` or a block of ``c`` right-hand sides
    ``(n, c)``; the result has the matching shape, so a vector is the
    ``c = 1`` column of the block.  Reproduces the MMA arithmetic
    exactly: per-block row dot products in the accumulator dtype,
    fragment accumulation across the two blocks of a group, shuffle-tree
    summation of the eight diagonal values, then the second-pass per-row
    reduction over group partials.  ``unit`` counts the issued blocks.
    """
    s = plan.shape
    if unit is not None:
        unit.issue_count += plan.n_groups * BLOCKS_PER_GROUP
    X = rhs_block(s, x)
    c = X.shape[1]
    d = lane_dots(s, plan.val, plan.cid, X)                  # (nb*m, c)
    # fragY accumulates over the BLOCKS_PER_GROUP blocks of a group, then
    # the shuffle tree sums the m diagonal lanes: one contiguous run of
    # 2m values per (column, group), reduced along the last axis.
    g = np.ascontiguousarray(
        d.reshape(-1, BLOCKS_PER_GROUP * s.m, c).transpose(2, 0, 1))
    per_group = g.sum(axis=2, dtype=s.acc_dtype)             # (c, ng)
    if per_group.size == 0:
        y = np.zeros((c, plan.n_rows), dtype=s.acc_dtype)
    else:
        # Second kernel: warp-per-row reduction of warpVal, along the
        # last axis of the C-contiguous partials.  No trailing pad
        # element: reduceat's vectorized inner loop associates by
        # segment *length*, so appending a zero to the final segment
        # would give the plan's last row a different rounding than the
        # same row computed mid-plan — breaking shard/unsharded
        # bit-equality.
        starts = np.minimum(plan.group_ptr[:-1], per_group.shape[1] - 1)
        y = np.add.reduceat(per_group, starts, axis=1)
        y[:, np.diff(plan.group_ptr) == 0] = 0
    return y.T if np.ndim(x) == 2 else y[0]


def long_rows_events(plan: LongRowsPlan, device, *, x_bytes: float) -> KernelEvents:
    """Device events for the two long-rows kernels."""
    if plan.n_rows == 0:
        return KernelEvents(kernel_launches=0)
    s = plan.shape
    vb = s.in_dtype.itemsize
    ab = s.acc_dtype.itemsize
    n_groups = plan.n_groups
    n_blocks = n_groups * BLOCKS_PER_GROUP
    # Kernel 1: stream val/cid, gather x, mma, 5 shuffles, write warpVal.
    # Kernel 2: warp per row reads that row's warpVal entries, butterfly
    # reduction (5 shuffles), writes y.
    shfl = n_groups * 5 + plan.n_rows * 5
    # Kernel 1 gives every warp exactly one group (perfect balance);
    # kernel 2's critical path is the row with the most group partials.
    groups_per_row = np.diff(plan.group_ptr)
    serial = (BLOCKS_PER_GROUP
              + float(groups_per_row.max()) / WARP_SIZE if plan.n_rows else 0.0)
    return KernelEvents(
        bytes_val=plan.padded_nnz * vb,
        bytes_idx=plan.padded_nnz * 4,
        bytes_ptr=(plan.n_rows + 1) * 8,
        bytes_x=x_bytes,
        bytes_y=n_groups * ab * 2 + plan.n_rows * ab + plan.n_rows * 8,
        flops_mma=n_blocks * s.flops,
        mma_count=n_blocks,
        shfl_count=shfl,
        extra_instr=n_groups * WARP_SIZE * 2,
        imbalance=1.0,
        serial_iters=serial,
        kernel_launches=2,
        threads=(n_groups + plan.n_rows) * WARP_SIZE,
    )
