"""Matrix multiply-accumulate (MMA) unit emulation.

Two levels of fidelity:

* :class:`MmaUnit` — a *functional* MMA unit: given whole operand blocks it
  performs ``D = A @ B + C`` with tensor-core precision semantics (inputs
  cast to the unit's input dtype, products and accumulation carried in the
  accumulator dtype).  The vectorized kernels fold the same arithmetic
  for a whole ``(n, c)`` block of right-hand sides
  (:func:`repro.core._pack.lane_dots`) and count their issued blocks
  on a unit.

* The ``m8n8k4`` FP64 *fragment layout* of the PTX ``mma.sync.aligned.
  m8n8k4.row.col.f64.f64.f64.f64`` instruction (paper Listing 1 and
  Figure 4), with per-lane fragment distribution:

  - A (8x4, row major): one register per lane, ``A[lane >> 2, lane & 3]``
  - B (4x8, col major): one register per lane, ``B[lane & 3, lane >> 2]``
  - C/D (8x8): two registers per lane, ``C[lane >> 2, 2*(lane & 3) + r]``

  The paper's index expression ``idx = (3 & laneid) + (laneid >> 2) *
  MMA_K`` (Algorithms 2-4) is exactly the flattened A-fragment address for
  this layout, and the shuffle reductions with offsets 9/18/4 and
  ``target = ((laneid - i*8) >> 1) * 9`` only extract the correct values
  under this distribution — so the layout is load-bearing for the whole
  reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._util import check
from .device import WARP_SIZE
from .warp import Warp

# ----------------------------------------------------------------------
# Functional MMA unit
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MmaShape:
    """Dimensions and precision of one MMA instruction."""

    m: int
    n: int
    k: int
    in_dtype: np.dtype
    acc_dtype: np.dtype
    name: str

    @property
    def flops(self) -> int:
        """Flops performed by a single instruction (multiply + add)."""
        return 2 * self.m * self.n * self.k

    @property
    def a_elements(self) -> int:
        """Elements of the A operand consumed per instruction."""
        return self.m * self.k


#: The FP64 instruction the paper programs directly (Listing 1).
FP64_M8N8K4 = MmaShape(8, 8, 4, np.dtype(np.float64), np.dtype(np.float64), "mma.m8n8k4.f64")

#: FP16 configuration used by our DASP half-precision path.  We keep the
#: paper's 8x4 A-block geometry so the DASP data structure is precision
#: independent; real hardware would issue m16n8k8 instructions over pairs
#: of these blocks, which the cost model accounts for via ``flops``.
FP16_M8N8K4 = MmaShape(8, 8, 4, np.dtype(np.float16), np.dtype(np.float32), "mma.m8n8k4.f16")

#: Native Hopper/Ampere FP16 shape, provided for completeness and used by
#: the cost model to reason about instruction counts in FP16.
FP16_M16N8K8 = MmaShape(16, 8, 8, np.dtype(np.float16), np.dtype(np.float32), "mma.m16n8k8.f16")


def shape_for_dtype(dtype) -> MmaShape:
    """The MMA shape DASP uses for a given value dtype."""
    dtype = np.dtype(dtype)
    if dtype == np.float64:
        return FP64_M8N8K4
    if dtype == np.float16:
        return FP16_M8N8K4
    if dtype == np.float32:
        # TF32 path: stored FP32, accumulated FP32 (rounding of TF32
        # inputs is not modeled; the paper does not evaluate FP32).
        return MmaShape(8, 8, 4, np.dtype(np.float32), np.dtype(np.float32), "mma.m8n8k4.tf32")
    raise TypeError(f"no MMA shape for dtype {dtype}")


class MmaUnit:
    """Functional MMA unit with tensor-core precision semantics.

    Counts issued instructions so kernels can report exact MMA event
    totals to the cost model.
    """

    def __init__(self, shape: MmaShape) -> None:
        self.shape = shape
        #: Number of MMA instructions issued through this unit.
        self.issue_count = 0

    def mma(self, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
        """``D = A @ B + C`` for one instruction's operands."""
        s = self.shape
        check(a.shape == (s.m, s.k), f"A must be {s.m}x{s.k}")
        check(b.shape == (s.k, s.n), f"B must be {s.k}x{s.n}")
        check(c.shape == (s.m, s.n), f"C must be {s.m}x{s.n}")
        self.issue_count += 1
        a = a.astype(s.in_dtype, copy=False).astype(s.acc_dtype)
        b = b.astype(s.in_dtype, copy=False).astype(s.acc_dtype)
        return a @ b + c.astype(s.acc_dtype, copy=False)

    def block_row_dots(self, a_blocks: np.ndarray, x_blocks: np.ndarray) -> np.ndarray:
        """Batched diagonal-of-``A @ B`` — the SpMV use of the MMA unit.

        DASP builds ``B`` so that column ``j`` of ``B`` holds the ``x``
        values gathered for row ``j`` of ``A``; only the diagonal of the
        product is meaningful (Section 3.3).  This computes exactly those
        diagonal entries for one x vector: given ``a_blocks`` of shape
        ``(nb, m, k)`` and matching gathered ``x_blocks``, return row sums
        ``(nb, m)`` with the unit's precision semantics.  (The vectorized
        kernels fold the same products lane by lane for a block of
        right-hand sides: :func:`repro.core._pack.lane_dots`.)

        Every block still counts as a full MMA instruction (the hardware
        cannot skip the off-diagonal work — that inefficiency is part of
        the paper's design and is reflected in the cost model).
        """
        s = self.shape
        check(a_blocks.ndim == 3 and a_blocks.shape[1:] == (s.m, s.k),
              f"a_blocks must be (nb, {s.m}, {s.k})")
        check(x_blocks.shape == a_blocks.shape, "x_blocks must match a_blocks")
        self.issue_count += int(a_blocks.shape[0])
        a, x = (v.astype(s.in_dtype, copy=False).astype(s.acc_dtype, copy=False)
                for v in (a_blocks, x_blocks))
        return (a * x).sum(axis=2, dtype=s.acc_dtype)


# ----------------------------------------------------------------------
# m8n8k4 FP64 fragment layout (lane-accurate)
# ----------------------------------------------------------------------

_LANE = np.arange(WARP_SIZE)
#: Row/col of the A fragment element held by each lane.
A_ROW, A_COL = _LANE >> 2, _LANE & 3
#: Row/col of the B fragment element held by each lane.
B_ROW, B_COL = _LANE & 3, _LANE >> 2
#: Row of both C registers and col of each C register per lane.
C_ROW = _LANE >> 2
C_COL0 = 2 * (_LANE & 3)
C_COL1 = C_COL0 + 1


def frag_a_from_matrix(a: np.ndarray) -> np.ndarray:
    """Distribute an 8x4 A operand into per-lane fragment registers."""
    check(a.shape == (8, 4), "A operand must be 8x4")
    return np.ascontiguousarray(a[A_ROW, A_COL])


def matrix_from_frag_a(frag: np.ndarray) -> np.ndarray:
    """Reassemble the 8x4 A operand from per-lane registers."""
    out = np.empty((8, 4), dtype=frag.dtype)
    out[A_ROW, A_COL] = frag
    return out


def frag_b_from_matrix(b: np.ndarray) -> np.ndarray:
    """Distribute a 4x8 B operand into per-lane fragment registers."""
    check(b.shape == (4, 8), "B operand must be 4x8")
    return np.ascontiguousarray(b[B_ROW, B_COL])


def matrix_from_frag_b(frag: np.ndarray) -> np.ndarray:
    """Reassemble the 4x8 B operand from per-lane registers."""
    out = np.empty((4, 8), dtype=frag.dtype)
    out[B_ROW, B_COL] = frag
    return out


def frag_c_from_matrix(c: np.ndarray) -> np.ndarray:
    """Distribute an 8x8 accumulator into per-lane (32, 2) registers."""
    check(c.shape == (8, 8), "C operand must be 8x8")
    out = np.empty((WARP_SIZE, 2), dtype=c.dtype)
    out[:, 0] = c[C_ROW, C_COL0]
    out[:, 1] = c[C_ROW, C_COL1]
    return out


def matrix_from_frag_c(frag: np.ndarray) -> np.ndarray:
    """Reassemble the 8x8 accumulator from per-lane (32, 2) registers."""
    check(frag.shape == (WARP_SIZE, 2), "C fragment must be (32, 2)")
    out = np.empty((8, 8), dtype=frag.dtype)
    out[C_ROW, C_COL0] = frag[:, 0]
    out[C_ROW, C_COL1] = frag[:, 1]
    return out


def mma_m8n8k4(warp: Warp, acc: np.ndarray, frag_a: np.ndarray,
               frag_b: np.ndarray, *, shape: MmaShape = FP64_M8N8K4) -> np.ndarray:
    """Execute one ``mma.m8n8k4`` on lane-distributed fragments.

    Mirrors the paper's Listing 1: ``acc`` is both the C input and the D
    output, held as per-lane ``(32, 2)`` registers.  Returns the new
    accumulator fragment.  ``shape`` selects the precision contract
    (FP64 by default; :data:`FP16_M8N8K4` rounds inputs to binary16 and
    accumulates in FP32).
    """
    check(acc.shape == (WARP_SIZE, 2), "acc must be per-lane (32, 2)")
    a = matrix_from_frag_a(
        np.asarray(frag_a).astype(shape.in_dtype, copy=False)
    ).astype(shape.acc_dtype)
    b = matrix_from_frag_b(
        np.asarray(frag_b).astype(shape.in_dtype, copy=False)
    ).astype(shape.acc_dtype)
    c = matrix_from_frag_c(np.asarray(acc, dtype=shape.acc_dtype))
    d = a @ b + c
    if not hasattr(warp, "mma_count"):
        warp.mma_count = 0
    warp.mma_count += 1
    return frag_c_from_matrix(d)


# ----------------------------------------------------------------------
# m16n8k8 FP16 fragment layout (lane-accurate)
# ----------------------------------------------------------------------
#
# The native half-precision instruction on Ampere/Hopper:
# ``mma.sync.aligned.m16n8k8.row.col.f32.f16.f16.f32``.  Per the PTX ISA,
# with groupID = lane >> 2 and tid = lane & 3:
#
# * A (16x8 f16, 4 regs): rows {groupID, groupID+8} x cols {2*tid, 2*tid+1}
# * B (8x8 f16, 2 regs):  rows {2*tid, 2*tid+1}, col groupID
# * C/D (16x8 f32, 4 regs): rows {groupID, groupID+8} x cols {2*tid, 2*tid+1}

_GROUP = _LANE >> 2
_TID = _LANE & 3

#: (reg, lane) -> row/col of the m16n8k8 A fragment element.
A16_ROW = np.stack([_GROUP, _GROUP, _GROUP + 8, _GROUP + 8])
A16_COL = np.stack([2 * _TID, 2 * _TID + 1, 2 * _TID, 2 * _TID + 1])
#: (reg, lane) -> row/col of the B fragment element.
B16_ROW = np.stack([2 * _TID, 2 * _TID + 1])
B16_COL = np.stack([_GROUP, _GROUP])
#: (reg, lane) -> row/col of the C/D accumulator element.
C16_ROW = A16_ROW
C16_COL = A16_COL


def frag_a16_from_matrix(a: np.ndarray) -> np.ndarray:
    """Distribute a 16x8 FP16 A operand into per-lane (32, 4) registers."""
    check(a.shape == (16, 8), "A operand must be 16x8")
    return np.ascontiguousarray(a[A16_ROW, A16_COL].T)


def matrix_from_frag_a16(frag: np.ndarray) -> np.ndarray:
    """Reassemble the 16x8 A operand from per-lane (32, 4) registers."""
    check(frag.shape == (WARP_SIZE, 4), "A fragment must be (32, 4)")
    out = np.empty((16, 8), dtype=frag.dtype)
    out[A16_ROW, A16_COL] = frag.T
    return out


def frag_b16_from_matrix(b: np.ndarray) -> np.ndarray:
    """Distribute an 8x8 FP16 B operand into per-lane (32, 2) registers."""
    check(b.shape == (8, 8), "B operand must be 8x8")
    return np.ascontiguousarray(b[B16_ROW, B16_COL].T)


def matrix_from_frag_b16(frag: np.ndarray) -> np.ndarray:
    """Reassemble the 8x8 B operand from per-lane (32, 2) registers."""
    check(frag.shape == (WARP_SIZE, 2), "B fragment must be (32, 2)")
    out = np.empty((8, 8), dtype=frag.dtype)
    out[B16_ROW, B16_COL] = frag.T
    return out


def frag_c16_from_matrix(c: np.ndarray) -> np.ndarray:
    """Distribute a 16x8 FP32 accumulator into per-lane (32, 4) registers."""
    check(c.shape == (16, 8), "C operand must be 16x8")
    return np.ascontiguousarray(c[C16_ROW, C16_COL].T)


def matrix_from_frag_c16(frag: np.ndarray) -> np.ndarray:
    """Reassemble the 16x8 accumulator from per-lane (32, 4) registers."""
    check(frag.shape == (WARP_SIZE, 4), "C fragment must be (32, 4)")
    out = np.empty((16, 8), dtype=frag.dtype)
    out[C16_ROW, C16_COL] = frag.T
    return out


def mma_m16n8k8(warp: Warp, acc: np.ndarray, frag_a: np.ndarray,
                frag_b: np.ndarray) -> np.ndarray:
    """Execute one ``mma.m16n8k8.f32.f16.f16.f32`` on lane fragments.

    Inputs are rounded to binary16, products and accumulation are FP32 —
    the tensor-core contract the FP16 DASP path relies on.
    """
    check(acc.shape == (WARP_SIZE, 4), "acc must be per-lane (32, 4)")
    a = matrix_from_frag_a16(np.asarray(frag_a)).astype(np.float16).astype(np.float32)
    b = matrix_from_frag_b16(np.asarray(frag_b)).astype(np.float16).astype(np.float32)
    c = matrix_from_frag_c16(np.asarray(acc, dtype=np.float32))
    d = a @ b + c
    if not hasattr(warp, "mma_count"):
        warp.mma_count = 0
    warp.mma_count += 1
    return frag_c16_from_matrix(d)
