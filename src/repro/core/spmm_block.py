"""Large-k SpMM tier over DASP plans — ``repro.spmm_block``.

DASP's MMA layout saturates at ``k = MMA_N = 8`` right-hand sides;
GNN feature propagation and block Krylov solvers want ``k = 32..512``.
This module prices three schedules for a ``k``-wide block and a
per-``(matrix, k)`` tuner picks the cheapest:

``looped``
    The baseline: ``ceil(k / MMA_N)`` independent column batches, each
    re-streaming the matrix (what a batcher-fed server would pay).

``tiled``
    Column-tiled: the plan's packed arrays stream **once** and stay
    resident while every column tile of width ``tile_k`` (a multiple of
    ``MMA_N``) consumes them; RHS gather traffic follows the
    distinct-column tile unions of :func:`repro.gpu.mma_tile_stats`.

``reordered``
    Row reordering + column tiling: rows are permuted so consecutive
    rows share column support, densifying the ``MMA_M``-row tiles the
    SpMM tier consumes (Acc-SpMM, arXiv 2501.09251).  The DASP plan's
    own padding is permutation-invariant, so the *measured objective*
    is the order-sensitive tile occupancy/padding counters of
    :mod:`repro.gpu.tiles`; the modeled win is the smaller gather
    unions.

The strategies differ only in the modeled schedule.  Execution is one
:func:`repro.core.dasp_spmm_on_plan` call for every strategy — on the
plan, or on the row-permuted plan followed by the inverse permutation
for ``reordered`` (every DASP category kernel computes row values
row-locally) — so every result is bitwise the column-wise ``dasp_spmv``
reference.  ``tile_k`` is a pricing field only.

The row order (:class:`ReorderResult`, natural-order stats included)
does not depend on ``k``: a :class:`BlockPlan` holds it for one plan
version, builds the permuted plan on the first ``reordered``
execution, and is passed to :func:`choose_spmm_strategy` for every
``k`` of that version.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .._util import check
from ..gpu.cost_model import estimate_time
from ..gpu.events import KernelEvents
from ..gpu.tiles import TileStats, mma_tile_stats
from .format import DASPMatrix
from .spmm import dasp_spmm_on_plan, gather_analysis, rhs_events

__all__ = [
    "TILE_K_CANDIDATES",
    "BlockPlan",
    "ReorderResult",
    "SpmmStrategy",
    "choose_spmm_strategy",
    "dasp_spmm_large",
    "overlap_schedule",
    "reorder_from_perm",
    "reorder_rows",
    "spmm_block_events",
    "spmm_looped_cost",
    "spmm_tiled_overlap_cost",
]

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


class BlockPlan:
    """The k-independent half of large-k tuning for one plan version.

    Holds the version's row order (*reorder*; derived from *plan* by
    :func:`reorder_rows` when not given) and, from the first
    :meth:`permuted` call on, the row-permuted plan the ``reordered``
    strategy runs on.  One instance serves every ``k`` of the version,
    so the order is derived and the permuted plan built at most once.
    It keeps no reference to the source plan, so holding an order never
    pins a plan a cache has evicted.
    """

    def __init__(self, plan: DASPMatrix,
                 reorder: ReorderResult | None = None) -> None:
        if reorder is None:
            reorder = reorder_rows(plan.csr, mma_shape=plan.mma_shape)
        self.reorder = reorder
        self._permuted: DASPMatrix | None = None

    def permuted(self, plan: DASPMatrix) -> DASPMatrix:
        """*plan* (the version this order was derived for) with its rows
        in order; built on the first call and reused after.

        The permuted plan reuses *plan*'s classification parameters
        (``max_len`` / ``threshold`` / MMA shape), so it packs the same
        rows into the same categories — only the order changes.  Racing
        first calls may both build; the plans are equal.
        """
        if self.reorder.is_identity:
            return plan
        if self._permuted is None:
            self._permuted = DASPMatrix.from_csr(
                plan.csr.permute_rows(self.reorder.perm),
                max_len=plan.max_len, threshold=plan.threshold,
                mma_shape=plan.mma_shape)
        return self._permuted


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------


def dasp_spmm_large(plan: DASPMatrix, X: np.ndarray,
                    strategy: "SpmmStrategy") -> np.ndarray:
    """Execute a tuner-chosen strategy; bitwise-identical across all.

    One :func:`dasp_spmm_on_plan` call streams the plan once for all
    ``k`` columns, so ``looped`` and ``tiled`` run the same call (their
    column split is a pricing matter); ``reordered`` runs it on the
    permuted plan and restores the row order with ``inv``.
    """
    X = np.asarray(X)
    check(X.ndim == 2 and X.shape[0] == plan.shape[1] and X.shape[1] >= 1,
          f"X must be ({plan.shape[1]}, k) with k >= 1")
    if strategy.name != "reordered":
        return dasp_spmm_on_plan(plan, X)
    bp = strategy.block_plan
    check(bp is not None, "reordered strategy carries no block plan")
    return dasp_spmm_on_plan(bp.permuted(plan), X)[bp.reorder.inv]


# ----------------------------------------------------------------------
# Cost model
# ----------------------------------------------------------------------


def spmm_looped_cost(plan: DASPMatrix, device, k: int,
                     analysis: tuple) -> float:
    """Modeled seconds for looping ``ceil(k / MMA_N)`` column batches.

    Each batch pays the full matrix stream, launches, and shuffle work
    again — the serving layer's behavior before this tier existed.
    *analysis* is *plan*'s :func:`repro.core.spmm.gather_analysis` on
    *device*.
    """
    check(k >= 1, "k must be positive")
    n = plan.mma_shape.n
    bits = plan.dtype.itemsize * 8
    total = 0.0
    for j0 in range(0, k, n):
        ev = rhs_events(plan, analysis, min(n, k - j0))
        total += estimate_time(ev, device, dtype_bits=bits).total
    return total


def spmm_block_events(plan: DASPMatrix, analysis: tuple, k: int, *,
                      tile_k: int, stats: TileStats) -> KernelEvents:
    """Device events for one column-tiled large-k sweep.

    The matrix stream, launches, and shuffle work are paid **once**
    (plan arrays stay resident across column tiles); MMA issues, y
    writes, and CUDA-core flops scale with ``k`` exactly as
    :meth:`KernelEvents.scale_rhs`; the RHS gather uses the same
    coalesced row-major-block model as the looped baseline, discounted
    by the tile-union deduplication ratio
    (:attr:`repro.gpu.TileStats.union_ratio` of the row order's
    *stats*): a column shared by several rows of a tile is fetched once
    per tile, not once per row — the traffic channel through which row
    reordering shows up.  The per-warp serial loop runs once per column
    tile.  *analysis* is *plan*'s
    :func:`repro.core.spmm.gather_analysis`.
    """
    check(k >= 1, "k must be positive")
    check(tile_k >= 1 and tile_k % plan.mma_shape.n == 0,
          f"tile_k must be a positive multiple of MMA_N={plan.mma_shape.n}")
    ev = rhs_events(plan, analysis, k, union_ratio=stats.union_ratio)
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


def spmm_tiled_overlap_cost(ev: KernelEvents, device, k: int, *,
                            tile_k: int, dtype_bits: int,
                            ) -> tuple[float, float]:
    """``(serial_s, overlapped_s)`` for one column-tiled large-k sweep
    whose events (:func:`spmm_block_events`) are *ev*.

    Splits the modeled sweep into its RHS-gather component (the
    per-tile ``X`` traffic — the part a second buffer can stage while
    the previous tile computes) and everything else, smears both evenly
    over the ``ceil(k / tile_k)`` column tiles, and prices the
    double-buffered schedule with :func:`overlap_schedule`.  Only the
    modeled clock overlaps: execution (:func:`dasp_spmm_large`) is the
    same single call either way.
    """
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
    """A tuner decision for one ``(matrix, k)`` pair — and its price.

    ``modeled_s`` is the chosen strategy's modeled device seconds for
    the whole k-block; ``looped_s`` the baseline's, so ``speedup`` is
    the modeled gain over today's batched serving; ``overlapped_s`` the
    chosen schedule under double buffering (:func:`spmm_tiled_overlap_cost`;
    ``modeled_s`` for ``looped``, which has no tiles to overlap).
    ``events`` are the block's k-wide events (:func:`repro.core.spmm.
    spmm_events`), from which MMA utilization and trace attributes are
    read.  ``tile_k`` only prices; ``block_plan`` (``reordered`` only)
    is the version's shared row order, whose permuted plan execution
    builds on first use.
    """

    name: str
    k: int
    tile_k: int
    modeled_s: float
    looped_s: float
    overlapped_s: float
    events: KernelEvents
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
                         order: BlockPlan | None = None) -> SpmmStrategy:
    """Pick the cheapest modeled strategy for ``k`` right-hand sides.

    ``k <= MMA_N`` is a single batch — the looped baseline *is* the
    plan kernel, nothing to tune.  Beyond that the tuner compares the
    looped baseline against column tiling over
    :data:`TILE_K_CANDIDATES` and, when *order* holds a
    better-than-natural row order, the reordered+tiled variant
    (charging the permuted tile unions).

    The x-gather analysis (:func:`repro.core.spmm.gather_analysis`)
    runs once per call: every batch width of the looped baseline, every
    tile candidate of both orders, the k-wide events and the
    double-buffered time are arithmetic on that one count, so the
    returned strategy is the block's whole price.

    *order* is the plan version's :class:`BlockPlan`; ``None`` derives
    one (:func:`reorder_rows`).  Callers that tune several ``k`` of one
    version pass the same instance, so the order and its tile stats are
    computed once and the permuted plan is built at most once.  An
    order rebuilt from a stored permutation
    (``BlockPlan(plan, reorder_from_perm(...))``) prices and executes
    exactly like the derived one; a natural order
    (``reorder_from_perm(csr, arange(m))``) disables ``reordered``.
    """
    check(k >= 1, "k must be positive")
    if order is None:
        order = BlockPlan(plan)
    ro = order.reorder
    n = plan.mma_shape.n
    bits = plan.dtype.itemsize * 8
    analysis = gather_analysis(plan, device)
    looped_s = spmm_looped_cost(plan, device, k, analysis)
    # (name, tile_k, modeled seconds, block events, stats)
    best = ("looped", n, looped_s, None, ro.natural_stats)
    if k > n:
        orders = [("tiled", ro.natural_stats)]
        if not ro.is_identity:
            orders.append(("reordered", ro.stats))
        for name, stats in orders:
            # Widest-first: on modeled-cost ties, fewer column passes win.
            for tk in sorted(TILE_K_CANDIDATES, reverse=True):
                if tk % n or tk > k:
                    continue
                ev = spmm_block_events(plan, analysis, k, tile_k=tk,
                                       stats=stats)
                cost = estimate_time(ev, device, dtype_bits=bits).total
                if cost < best[2]:
                    best = (name, tk, cost, ev, stats)
    name, tile_k, modeled_s, block_ev, stats = best
    overlapped_s = modeled_s if block_ev is None else spmm_tiled_overlap_cost(
        block_ev, device, k, tile_k=tile_k, dtype_bits=bits)[1]
    return SpmmStrategy(name=name, k=k, tile_k=tile_k, modeled_s=modeled_s,
                        looped_s=looped_s, overlapped_s=overlapped_s,
                        events=rhs_events(plan, analysis, k), stats=stats,
                        block_plan=order if name == "reordered" else None)
