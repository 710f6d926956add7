"""Sharded execution and its cost model.

Execution: each shard's DASP kernels run independently (serially here;
the server fans shards out across its worker pool) and the per-shard
outputs are concatenated — bit-identical to the unsharded kernels
because shard boundaries never split rows and every row's value is
computed with row-local floating-point association.

Cost model: each shard pays its own kernel events plus one modeled
dispatch overhead; ``workers`` concurrent lanes execute the shards by
longest-processing-time list scheduling, and the batch is charged the
resulting **makespan**.  :func:`choose_shards` sweeps candidate shard
counts against that model, so over-sharding (dispatch overhead, lost
intra-kernel parallelism) shows up as a worse modeled time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._util import check
from ..core.autotune import TuneResult
from ..core.format import DASPMatrix
from ..core.spmm import (mma_phase_fraction, mma_utilization_from_events,
                         spmm_events)
from ..gpu.cost_model import estimate_time
from ..gpu.device import get_device
from .plan import ShardedPlan, build_sharded_plan

#: Default shard-count candidates are drawn from powers of two up to
#: twice the lane count (plus the lane count itself) — see
#: :func:`shard_candidates`.
MAX_SHARD_FACTOR = 2


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------


def _as_sharded(matrix, shards, *, mma_shape=None) -> ShardedPlan:
    if isinstance(matrix, ShardedPlan):
        return matrix
    csr = matrix.csr if isinstance(matrix, DASPMatrix) else matrix
    return build_sharded_plan(csr, shards, mma_shape=mma_shape)


def dasp_spmv_sharded(matrix, x: np.ndarray, *, shards: int = 2,
                      pool=None, obs=None,
                      double_buffer: bool = False) -> np.ndarray:
    """``y = A @ x`` over row shards; bit-identical to ``dasp_spmv``.

    Parameters
    ----------
    matrix:
        A :class:`ShardedPlan` (used as-is), a :class:`DASPMatrix`, or
        a CSR matrix (partitioned on the fly into ``shards`` bands).
    pool:
        Optional executor with a ``map(fn, iterable)`` method (e.g.
        ``concurrent.futures.ThreadPoolExecutor``); shards run serially
        without one.  The gather is a concatenation either way, so the
        result does not depend on completion order.
    double_buffer:
        Marks the bands as double-buffered for accounting: the modeled
        clock (``sharded_batch_cost(double_buffer=True)``) overlaps the
        next band's packed-array stream with the current band's
        compute.  The numerics are identical either way — the flag only
        feeds the ``core.pipeline.*`` counters.
    """
    from ..core.spmv import dasp_spmv
    from ..obs import get_obs

    if obs is None:
        obs = get_obs()
    plan = _as_sharded(matrix, shards)
    x = np.asarray(x)
    check(x.shape == (plan.shape[1],),
          f"x must have shape ({plan.shape[1]},)")
    obs.counter("core.shard_spmv_calls_total").inc()
    obs.counter("core.shard_executions_total").inc(plan.n_shards)
    if double_buffer:
        obs.counter("core.pipeline.double_buffered_bands_total").inc(
            plan.n_shards)

    def run(shard):
        return dasp_spmv(shard.dasp, x, obs=obs)

    parts = list(pool.map(run, plan.shards)) if pool is not None \
        else [run(s) for s in plan.shards]
    return np.concatenate(parts) if parts else np.zeros(0)


def dasp_spmm_sharded(matrix, X: np.ndarray, *, shards: int = 2,
                      pool=None, obs=None) -> np.ndarray:
    """``Y = A @ X`` over row shards; bit-identical to ``dasp_spmm``."""
    from ..core.spmm import dasp_spmm
    from ..obs import get_obs

    if obs is None:
        obs = get_obs()
    plan = _as_sharded(matrix, shards)
    X = np.asarray(X)
    check(X.ndim == 2 and X.shape[0] == plan.shape[1],
          f"X must be ({plan.shape[1]}, k)")
    obs.counter("core.shard_spmm_calls_total").inc()
    obs.counter("core.shard_executions_total").inc(plan.n_shards)

    def run(shard):
        return dasp_spmm(shard.dasp, X, obs=obs)

    parts = list(pool.map(run, plan.shards)) if pool is not None \
        else [run(s) for s in plan.shards]
    return np.concatenate(parts, axis=0) if parts \
        else np.zeros((0, X.shape[1]))


# ----------------------------------------------------------------------
# cost model
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShardCost:
    """Modeled cost of one sharded batch.

    ``per_shard`` holds each shard's seconds (kernel estimate plus one
    dispatch overhead when ``S > 1``); ``makespan`` is the LPT-schedule
    finish time over the worker lanes; ``serial`` is the sum — what a
    single lane would pay.
    """

    per_shard: tuple
    makespan: float
    serial: float
    useful_mma: float
    issued_mma: float

    @property
    def speedup(self) -> float:
        """Serial time over makespan (parallel efficiency signal)."""
        return self.serial / self.makespan if self.makespan > 0 else 1.0


def lpt_makespan(times, workers: int) -> float:
    """Finish time of longest-processing-time list scheduling on
    ``workers`` lanes — the standard 4/3-approximation bound."""
    lanes = [0.0] * max(1, int(workers))
    for t in sorted(times, reverse=True):
        i = min(range(len(lanes)), key=lanes.__getitem__)
        lanes[i] += t
    return max(lanes) if lanes else 0.0


def lpt_assign(times, workers: int) -> list:
    """LPT lane assignment: a list of per-lane index lists, in the
    order each lane executes its shards.  ``lpt_makespan`` is the max
    over lanes of the per-lane sums of the same assignment."""
    lanes = [0.0] * max(1, int(workers))
    assign = [[] for _ in lanes]
    order = sorted(range(len(times)), key=lambda i: -times[i])
    for idx in order:
        i = min(range(len(lanes)), key=lanes.__getitem__)
        lanes[i] += times[idx]
        assign[i].append(idx)
    return assign


def sharded_spmm_events(plan: ShardedPlan, device, k: int = 1) -> list:
    """Per-shard :class:`~repro.gpu.events.KernelEvents` for a k-RHS
    product."""
    device = get_device(device)
    return [spmm_events(s.dasp, device, k) for s in plan.shards]


def sharded_batch_cost(plan: ShardedPlan, device, k: int = 1, *,
                       workers: int = 1,
                       dtype_bits: int | None = None,
                       double_buffer: bool = False) -> ShardCost:
    """Modeled cost of running one k-RHS batch over *plan*'s shards.

    Each shard is charged its own cost-model time plus one
    ``device.launch_overhead_s`` dispatch overhead (the fan-out
    coordination a single-kernel launch does not pay; ``S = 1`` is the
    plain path and pays none), then the shards are LPT-scheduled on
    ``workers`` lanes.

    With ``double_buffer=True`` each lane overlaps the *next* band's
    packed-array stream (values / column ids / pointers) with the
    current band's compute under
    :func:`repro.core.overlap_schedule` — the pipeline mode's modeled
    clock; ``serial`` and ``per_shard`` still report the unoverlapped
    figures, so the makespan never exceeds the plain schedule's.
    """
    return sharded_cost_from_events(
        plan, sharded_spmm_events(plan, device, k), device, k,
        workers=workers, dtype_bits=dtype_bits, double_buffer=double_buffer)


def sharded_cost_from_events(plan: ShardedPlan, events, device, k: int = 1,
                             *, workers: int = 1,
                             dtype_bits: int | None = None,
                             double_buffer: bool = False) -> ShardCost:
    """:func:`sharded_batch_cost` priced from already computed per-shard
    ``events`` (:func:`sharded_spmm_events` at the same ``k``)."""
    from dataclasses import replace as _replace

    device = get_device(device)
    if dtype_bits is None:
        dtype_bits = np.dtype(plan.dtype).itemsize * 8
    dispatch = device.launch_overhead_s if plan.n_shards > 1 else 0.0
    per_shard = []
    loads = []
    computes = []
    useful = 0.0
    issued = 0.0
    for shard, ev in zip(plan.shards, events):
        t = estimate_time(ev, device, dtype_bits=dtype_bits).total + dispatch
        per_shard.append(t)
        if double_buffer:
            c = estimate_time(
                _replace(ev, bytes_val=0.0, bytes_idx=0.0, bytes_ptr=0.0),
                device, dtype_bits=dtype_bits).total + dispatch
            computes.append(c)
            loads.append(max(t - c, 0.0))
        useful += mma_utilization_from_events(shard.dasp, k, ev) * ev.flops_mma
        issued += ev.flops_mma
    if double_buffer:
        from ..core.spmm_block import overlap_schedule

        makespan = 0.0
        for lane in lpt_assign(per_shard, workers):
            if lane:
                makespan = max(makespan, overlap_schedule(
                    [loads[i] for i in lane], [computes[i] for i in lane]))
    else:
        makespan = lpt_makespan(per_shard, workers)
    return ShardCost(
        per_shard=tuple(per_shard),
        makespan=makespan,
        serial=float(sum(per_shard)),
        useful_mma=useful,
        issued_mma=issued,
    )


def sharded_phase_fraction(plan: ShardedPlan) -> float:
    """nnz-weighted regular-MMA share across shards (span attribution)."""
    nnz = plan.nnz
    if nnz <= 0:
        return 1.0
    return float(sum(mma_phase_fraction(s.dasp) * s.nnz
                     for s in plan.shards) / nnz)


def shard_candidates(workers: int, n_rows: int) -> tuple:
    """Candidate shard counts for :func:`choose_shards`: powers of two
    up to ``MAX_SHARD_FACTOR * workers``, plus ``workers`` itself,
    clamped to the row count."""
    cap = max(1, MAX_SHARD_FACTOR * int(workers))
    cands = {1, int(workers)}
    s = 2
    while s <= cap:
        cands.add(s)
        s *= 2
    return tuple(sorted(min(c, max(1, n_rows)) for c in cands))


def choose_shards(matrix, workers: int, *, device: str = "A100", k: int = 1,
                  candidates=None) -> TuneResult:
    """Sweep shard counts against the makespan model; autotuner entry.

    ``matrix`` may be a CSR matrix or a :class:`DASPMatrix` (its source
    CSR is re-partitioned per candidate).  Returns a
    :class:`~repro.core.autotune.TuneResult` with
    ``parameter="shards"`` and modeled seconds per candidate — the
    sweep builds candidate plans for *modeling only*; callers build
    (and charge) the winning plan through their normal preprocessing
    path.
    """
    check(workers >= 1, "workers must be >= 1")
    device = get_device(device)
    csr = matrix.csr if isinstance(matrix, DASPMatrix) else matrix
    if candidates is None:
        candidates = shard_candidates(workers, int(csr.shape[0]))
    times = {}
    for S in candidates:
        plan = build_sharded_plan(csr, S)
        cost = sharded_batch_cost(plan, device, k, workers=workers)
        times[int(plan.n_shards)] = cost.makespan
    best = min(times, key=times.get)
    return TuneResult("shards", best, times)
