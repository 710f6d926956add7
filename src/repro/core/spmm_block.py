"""Large-k SpMM tier over DASP plans — ``repro.spmm_block``.

DASP's MMA layout saturates at ``k = MMA_N = 8`` right-hand sides;
GNN feature propagation and block Krylov solvers want ``k = 32..512``.
Today's serving layer handles that by looping ``ceil(k / 8)`` batches
through :func:`repro.core.dasp_spmm` — paying the full matrix stream
and kernel launches once *per batch*.  This module adds a true large-k
tier with three strategies and a per-``(matrix, k)`` tuner:

``looped``
    The baseline: ``ceil(k / MMA_N)`` independent column batches, each
    re-streaming the matrix (what the batcher-fed server does today).

``tiled``
    Column-tiled execution: a double loop over column tiles × row
    blocks, so the plan's packed arrays stream **once** and stay
    resident while every column tile consumes them.  Tile widths are
    multiples of ``MMA_N``; RHS gather traffic follows the
    distinct-column tile unions of :func:`repro.gpu.mma_tile_stats`.

``reordered``
    Row reordering + column tiling: rows are permuted so consecutive
    rows share column support, densifying the ``MMA_M``-row tiles the
    SpMM tier consumes (Acc-SpMM, arXiv 2501.09251).  The DASP plan's
    own padding is permutation-invariant, so the *measured objective*
    is the order-sensitive tile occupancy/padding counters of
    :mod:`repro.gpu.tiles`; the modeled win is the smaller gather
    unions.  The inverse permutation is applied on output, keeping
    results bitwise-identical to the unpermuted path (every DASP
    category kernel computes row values row-locally).

All three strategies execute the same validation numerics
(:func:`repro.core.dasp_spmm_on_plan` column tiles), so their results
are bitwise-identical to the column-wise ``dasp_spmv`` reference — the
strategies differ only in the modeled schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .._util import check
from ..gpu.cost_model import estimate_time
from ..gpu.events import KernelEvents
from ..gpu.tiles import TileStats, mma_tile_stats
from .format import DASPMatrix
from .spmm import _gather_analysed_events, dasp_spmm_on_plan, spmm_events

__all__ = [
    "DEFAULT_TILE_K",
    "TILE_K_CANDIDATES",
    "BlockPlan",
    "ReorderResult",
    "SpmmStrategy",
    "build_block_plan",
    "choose_spmm_strategy",
    "dasp_spmm_large",
    "dasp_spmm_tiled",
    "overlap_schedule",
    "reorder_from_perm",
    "reorder_rows",
    "spmm_block_events",
    "spmm_looped_cost",
    "spmm_tiled_overlap_cost",
]

#: Default column-tile width (4 MMA passes per tile).
DEFAULT_TILE_K = 32

#: Tile widths the tuner tries — multiples of ``MMA_N = 8`` so every
#: tile maps to whole MMA passes.
TILE_K_CANDIDATES = (8, 16, 32, 64)


# ----------------------------------------------------------------------
# Row reordering
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ReorderResult:
    """Outcome of the row-reordering pass.

    ``perm`` maps permuted position -> source row (``perm[i]`` is the
    source row sitting at position ``i``); ``inv`` undoes it on the
    output (``Y = Y_perm[inv]``).  ``candidate`` names the winning
    heuristic; ``stats`` / ``natural_stats`` are the tile counters in
    permuted / natural order.
    """

    perm: np.ndarray
    inv: np.ndarray
    candidate: str
    stats: TileStats
    natural_stats: TileStats

    @property
    def is_identity(self) -> bool:
        return self.candidate == "natural"

    @property
    def padding_reduction(self) -> float:
        """Fraction of natural-order padding slots eliminated."""
        nat = self.natural_stats.padding_slots
        if nat == 0:
            return 0.0
        return 1.0 - self.stats.padding_slots / nat


def _candidate_orders(csr) -> dict[str, np.ndarray]:
    """Deterministic reorder candidates, all O(nnz log m) to evaluate.

    ``degree`` groups rows of similar length (hub rows of power-law /
    circuit matrices end up in the same tiles, where their overlapping
    supports amortize each fetched column); ``locality`` groups rows by
    leading column so banded/grid structure lands same-support rows in
    the same tile.  Stable sorts keep the pass deterministic.
    """
    m = csr.shape[0]
    lens = csr.row_lengths()
    first = np.full(m, csr.shape[1], dtype=np.int64)
    nonempty = lens > 0
    first[nonempty] = csr.indices[csr.indptr[:-1][nonempty]]
    return {
        "natural": np.arange(m, dtype=np.int64),
        "degree": np.argsort(-lens, kind="stable").astype(np.int64),
        "locality": np.lexsort((-lens, first)).astype(np.int64),
    }


def reorder_rows(csr, *, mma_shape=None) -> ReorderResult:
    """Pick the row order that minimizes MMA tile padding for *csr*.

    Evaluates a small deterministic candidate set with the
    order-sensitive counters of :func:`repro.gpu.mma_tile_stats` and
    keeps the order with the fewest padding slots (gather-column union
    size breaks ties; ``natural`` wins all remaining ties, so the pass
    never does worse than not reordering).
    """
    candidates = _candidate_orders(csr)
    natural_stats = mma_tile_stats(csr, mma_shape=mma_shape)
    best = ("natural", candidates["natural"], natural_stats)
    for name, perm in candidates.items():
        if name == "natural":
            continue
        stats = mma_tile_stats(csr, mma_shape=mma_shape, perm=perm)
        key = (stats.padding_slots, stats.gather_cols)
        if key < (best[2].padding_slots, best[2].gather_cols):
            best = (name, perm, stats)
    name, perm, stats = best
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size, dtype=np.int64)
    return ReorderResult(perm=perm, inv=inv, candidate=name,
                         stats=stats, natural_stats=natural_stats)


def reorder_from_perm(csr, perm: np.ndarray, *,
                      mma_shape=None) -> ReorderResult:
    """Rebuild a :class:`ReorderResult` from a *stored* permutation.

    The ``spmm`` CLI persists the winning permutation as a ``.daspz``
    ``aux.`` record (``spmm.reorder_perm``); a server warm-starting
    from that artifact should not re-run the candidate sweep of
    :func:`reorder_rows` just to recover a decision already made.  The
    tile counters are recomputed for *perm* (they are derived data, not
    part of the stored decision), so the result prices and executes
    exactly like the originally derived one.  An identity permutation
    maps back to the ``natural`` candidate, keeping
    :attr:`ReorderResult.is_identity` faithful.
    """
    perm = np.ascontiguousarray(np.asarray(perm, dtype=np.int64))
    m = csr.shape[0]
    check(perm.shape == (m,), f"perm must have shape ({m},)")
    natural_stats = mma_tile_stats(csr, mma_shape=mma_shape)
    if np.array_equal(perm, np.arange(m, dtype=np.int64)):
        return ReorderResult(perm=perm, inv=perm.copy(),
                             candidate="natural", stats=natural_stats,
                             natural_stats=natural_stats)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(m, dtype=np.int64)
    stats = mma_tile_stats(csr, mma_shape=mma_shape, perm=perm)
    return ReorderResult(perm=perm, inv=inv, candidate="stored",
                         stats=stats, natural_stats=natural_stats)


@dataclass(frozen=True)
class BlockPlan:
    """A DASP plan prepared for reordered large-k execution.

    ``plan`` is built from the row-permuted matrix; applying ``inv`` to
    its output restores the original row order bitwise (row values are
    row-local in every DASP category kernel).
    """

    plan: DASPMatrix
    reorder: ReorderResult

    @property
    def perm(self) -> np.ndarray:
        return self.reorder.perm

    @property
    def inv(self) -> np.ndarray:
        return self.reorder.inv

    @property
    def stats(self) -> TileStats:
        return self.reorder.stats


def build_block_plan(plan: DASPMatrix, *,
                     reorder: ReorderResult | None = None) -> BlockPlan:
    """Build the row-permuted plan for the ``reordered`` strategy.

    The permuted plan reuses *plan*'s classification parameters
    (``max_len`` / ``threshold`` / MMA shape), so it packs the same
    rows into the same categories — only the order changes.
    """
    if reorder is None:
        reorder = reorder_rows(plan.csr, mma_shape=plan.mma_shape)
    if reorder.is_identity:
        return BlockPlan(plan=plan, reorder=reorder)
    permuted = DASPMatrix.from_csr(
        plan.csr.permute_rows(reorder.perm),
        max_len=plan.max_len, threshold=plan.threshold,
        mma_shape=plan.mma_shape)
    return BlockPlan(plan=permuted, reorder=reorder)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------


def dasp_spmm_tiled(plan: DASPMatrix, X: np.ndarray, *,
                    tile_k: int = DEFAULT_TILE_K,
                    double_buffer: bool = False, obs=None) -> np.ndarray:
    """Column-tiled large-k SpMM on a DASP plan.

    Splits ``X`` into column tiles of width ``tile_k`` (a multiple of
    ``MMA_N``) and runs the plan kernels per tile — the validation-
    engine analogue of the double loop over column tiles × row blocks.
    Output columns are independent folds, so the result is bitwise the
    untiled ``dasp_spmm`` (and hence the column-wise ``dasp_spmv``).

    ``double_buffer`` marks the tiles as double-buffered for
    accounting: the modeled clock (:func:`spmm_tiled_overlap_cost`)
    overlaps the next tile's RHS gather with the current tile's
    compute.  Results are bitwise-identical either way — the flag only
    feeds the ``core.pipeline.*`` counters.
    """
    X = np.asarray(X)
    check(X.ndim == 2 and X.shape[0] == plan.shape[1],
          f"X must be ({plan.shape[1]}, k)")
    k = X.shape[1]
    check(k >= 1, "X must have at least one column")
    check(tile_k >= 1 and tile_k % plan.mma_shape.n == 0,
          f"tile_k must be a positive multiple of MMA_N={plan.mma_shape.n}")
    if double_buffer:
        from ..obs import get_obs

        (obs if obs is not None else get_obs()).counter(
            "core.pipeline.double_buffered_tiles_total").inc(-(-k // tile_k))
    Y = np.empty((plan.shape[0], k), dtype=plan.mma_shape.acc_dtype)
    for j0 in range(0, k, tile_k):
        j1 = min(j0 + tile_k, k)
        Y[:, j0:j1] = dasp_spmm_on_plan(plan, X[:, j0:j1])
    return Y


def dasp_spmm_large(plan: DASPMatrix, X: np.ndarray,
                    strategy: "SpmmStrategy") -> np.ndarray:
    """Execute a tuner-chosen strategy; bitwise-identical across all."""
    X = np.asarray(X)
    if strategy.name == "reordered":
        bp = strategy.block_plan
        check(bp is not None, "reordered strategy carries no block plan")
        Yp = dasp_spmm_tiled(bp.plan, X, tile_k=strategy.tile_k)
        return Yp[bp.inv]
    if strategy.name == "tiled":
        return dasp_spmm_tiled(plan, X, tile_k=strategy.tile_k)
    # looped: ceil(k / MMA_N) independent column batches.
    n = plan.mma_shape.n
    k = X.shape[1]
    Y = np.empty((plan.shape[0], k), dtype=plan.mma_shape.acc_dtype)
    for j0 in range(0, k, n):
        j1 = min(j0 + n, k)
        Y[:, j0:j1] = dasp_spmm_on_plan(plan, X[:, j0:j1])
    return Y


# ----------------------------------------------------------------------
# Cost model
# ----------------------------------------------------------------------


def spmm_looped_cost(plan: DASPMatrix, device, k: int) -> float:
    """Modeled seconds for looping ``ceil(k / MMA_N)`` column batches.

    Each batch pays the full matrix stream, launches, and shuffle work
    again — the serving layer's behavior before this tier existed.
    """
    check(k >= 1, "k must be positive")
    n = plan.mma_shape.n
    bits = plan.dtype.itemsize * 8
    total = 0.0
    for j0 in range(0, k, n):
        ev = spmm_events(plan, device, min(n, k - j0))
        total += estimate_time(ev, device, dtype_bits=bits).total
    return total


def spmm_block_events(plan: DASPMatrix, device, k: int, *,
                      tile_k: int = DEFAULT_TILE_K,
                      stats: TileStats | None = None) -> KernelEvents:
    """Device events for one column-tiled large-k sweep.

    The matrix stream, launches, and shuffle work are paid **once**
    (plan arrays stay resident across column tiles); MMA issues, y
    writes, and CUDA-core flops scale with ``k`` exactly as
    :meth:`KernelEvents.scale_rhs`; the RHS gather uses the same
    coalesced row-major-block model as the looped baseline, discounted
    by the tile-union deduplication ratio
    (:attr:`repro.gpu.TileStats.union_ratio`): a column shared by
    several rows of a tile is fetched once per tile, not once per row —
    the traffic channel through which row reordering shows up.  The
    per-warp serial loop runs once per column tile.
    """
    check(k >= 1, "k must be positive")
    check(tile_k >= 1 and tile_k % plan.mma_shape.n == 0,
          f"tile_k must be a positive multiple of MMA_N={plan.mma_shape.n}")
    if stats is None:
        stats = mma_tile_stats(plan.csr, mma_shape=plan.mma_shape)
    base, x_factor = _gather_analysed_events(plan, device, k)
    s = plan.mma_shape
    ev = base.scale_rhs(k, mma_n=s.n, mma_flops=s.flops,
                        x_factor=x_factor * stats.union_ratio)
    col_tiles = -(-k // tile_k)
    return replace(ev, serial_iters=ev.serial_iters * col_tiles)


def overlap_schedule(loads, computes) -> float:
    """Makespan of a two-stage double-buffered pipeline.

    ``loads[i]`` is the transfer time of segment ``i`` (an RHS column
    tile, a shard band's packed arrays), ``computes[i]`` its kernel
    time.  With two buffers the transfer of segment ``i+1`` overlaps
    the compute of segment ``i``, so the schedule is::

        loads[0] + sum(max(computes[i], loads[i+1])) + computes[-1]

    which degenerates to the serial sum for a single segment and never
    exceeds it.
    """
    check(len(loads) == len(computes) and len(loads) >= 1,
          "loads and computes must be equal-length and non-empty")
    t = float(loads[0])
    for i in range(len(computes) - 1):
        t += max(float(computes[i]), float(loads[i + 1]))
    return t + float(computes[-1])


def spmm_tiled_overlap_cost(plan: DASPMatrix, device, k: int, *,
                            tile_k: int = DEFAULT_TILE_K,
                            stats: TileStats | None = None,
                            dtype_bits: int | None = None,
                            ) -> tuple[float, float]:
    """``(serial_s, overlapped_s)`` for one column-tiled large-k sweep.

    Splits the modeled sweep into its RHS-gather component (the
    per-tile ``X`` traffic — the part a second buffer can stage while
    the previous tile computes) and everything else, smears both evenly
    over the ``ceil(k / tile_k)`` column tiles, and prices the
    double-buffered schedule with :func:`overlap_schedule`.  The
    numerics of :func:`dasp_spmm_tiled` are untouched — only the
    modeled clock changes when the pipeline runs with double buffering
    on.
    """
    check(k >= 1, "k must be positive")
    if dtype_bits is None:
        dtype_bits = plan.dtype.itemsize * 8
    ev = spmm_block_events(plan, device, k, tile_k=tile_k, stats=stats)
    serial = estimate_time(ev, device, dtype_bits=dtype_bits).total
    compute = estimate_time(replace(ev, bytes_x=0.0), device,
                            dtype_bits=dtype_bits).total
    load = max(serial - compute, 0.0)
    tiles = -(-k // tile_k)
    loads = [load / tiles] * tiles
    computes = [compute / tiles] * tiles
    return serial, overlap_schedule(loads, computes)


@dataclass(frozen=True)
class SpmmStrategy:
    """A tuner decision for one ``(matrix, k)`` pair.

    ``modeled_s`` is the chosen strategy's modeled device seconds for
    the whole k-block; ``looped_s`` the baseline's, so ``speedup`` is
    the modeled gain over today's batched serving.
    """

    name: str
    k: int
    tile_k: int
    modeled_s: float
    looped_s: float
    stats: TileStats | None = None
    block_plan: BlockPlan | None = None

    @property
    def speedup(self) -> float:
        return self.looped_s / self.modeled_s if self.modeled_s > 0 else 1.0

    @property
    def modeled_gflops(self) -> float:
        """Modeled useful throughput (2 * nnz * k flops)."""
        if self.modeled_s <= 0 or self.stats is None:
            return 0.0
        return 2.0 * self.stats.nnz * self.k / self.modeled_s / 1e9


def choose_spmm_strategy(plan: DASPMatrix, k: int, device="A100", *,
                         tile_ks=TILE_K_CANDIDATES,
                         reorder: bool = True,
                         reorder_hint: ReorderResult | None = None,
                         ) -> SpmmStrategy:
    """Pick the cheapest modeled strategy for ``k`` right-hand sides.

    ``k <= MMA_N`` is a single batch — the looped baseline *is* the
    plan kernel, nothing to tune.  Beyond that the tuner compares the
    looped baseline against column tiling over ``tile_ks`` and, when
    ``reorder`` is set and the reorder pass finds a better-than-natural
    order, the reordered+tiled variant (charging the permuted tile
    unions).  Building the permuted plan is the expensive part, so it
    happens only if a non-natural order won the counters.

    ``reorder_hint`` supplies a previously derived
    :class:`ReorderResult` (typically rebuilt from a persisted ``aux.``
    permutation via :func:`reorder_from_perm`) and skips the candidate
    sweep of :func:`reorder_rows`; the pricing and execution are
    otherwise identical, so a hinted choice is bitwise the derived one.
    """
    check(k >= 1, "k must be positive")
    bits = plan.dtype.itemsize * 8
    looped_s = spmm_looped_cost(plan, device, k)
    natural = mma_tile_stats(plan.csr, mma_shape=plan.mma_shape)
    best = SpmmStrategy(name="looped", k=k, tile_k=plan.mma_shape.n,
                        modeled_s=looped_s, looped_s=looped_s,
                        stats=natural)
    if k <= plan.mma_shape.n:
        return best

    def tiled_cost(stats: TileStats):
        out = None
        # Widest-first: on modeled-cost ties, fewer column passes win.
        for tk in sorted(tile_ks, reverse=True):
            if tk % plan.mma_shape.n or tk > max(k, plan.mma_shape.n):
                continue
            ev = spmm_block_events(plan, device, k, tile_k=tk, stats=stats)
            cost = estimate_time(ev, device, dtype_bits=bits).total
            if out is None or cost < out[1]:
                out = (tk, cost)
        return out

    choice = tiled_cost(natural)
    if choice is not None and choice[1] < best.modeled_s:
        best = SpmmStrategy(name="tiled", k=k, tile_k=choice[0],
                            modeled_s=choice[1], looped_s=looped_s,
                            stats=natural)
    if reorder:
        ro = (reorder_hint if reorder_hint is not None
              else reorder_rows(plan.csr, mma_shape=plan.mma_shape))
        if not ro.is_identity:
            choice = tiled_cost(ro.stats)
            if choice is not None and choice[1] < best.modeled_s:
                bp = build_block_plan(plan, reorder=ro)
                best = SpmmStrategy(name="reordered", k=k, tile_k=choice[0],
                                    modeled_s=choice[1], looped_s=looped_s,
                                    stats=ro.stats, block_plan=bp)
    return best
