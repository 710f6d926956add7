"""Band execution and its cost model, for every plan (``plan.bands()``:
a plain plan is one band, a :class:`ShardedPlan` one per shard).

Execution: each band's DASP kernels run independently through one
band runner (:func:`run_bands`: serially here, across borrowed worker
threads in the server) and the per-band outputs are concatenated —
bit-identical to the unsharded kernels because shard boundaries never
split rows and every row's value is computed with row-local
floating-point association.

Cost model: each band pays its own kernel events (or large-k strategy
price), plus one modeled dispatch overhead when there is more than one;
``workers`` lanes execute the bands by longest-processing-time list
scheduling, and the batch is charged the resulting **makespan**.
:func:`choose_shards` sweeps shard counts against that model, so
over-sharding shows up as a worse modeled time.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace

import numpy as np

from .._util import check
from ..core.autotune import TuneResult
from ..core.format import DASPMatrix
from ..core.spmm import dasp_spmm, mma_utilization_from_events, spmm_events
from ..core.spmm_block import overlap_schedule
from ..core.spmv import dasp_spmv
from ..gpu.cost_model import estimate_time
from ..gpu.device import get_device
from ..obs import get_obs
from .plan import ShardedPlan, build_sharded_plan

#: Default shard-count candidates are drawn from powers of two up to
#: twice the lane count (plus the lane count itself) — see
#: :func:`shard_candidates`.
MAX_SHARD_FACTOR = 2


# ----------------------------------------------------------------------
# execution
# ----------------------------------------------------------------------


def _as_sharded(matrix, shards) -> ShardedPlan:
    """The public sharded entry points' input: a :class:`ShardedPlan`
    as is, else *matrix* (a plan or a CSR) cut into ``shards`` bands."""
    if isinstance(matrix, ShardedPlan):
        return matrix
    csr = matrix.csr if isinstance(matrix, DASPMatrix) else matrix
    return build_sharded_plan(csr, shards)


def run_bands(plan, fn, *, obs, submit_task=None,
              lanes: int = 1) -> np.ndarray:
    """``fn(i, dasp)`` on every band ``i`` of *plan*, stacked in band
    order (a lone band's output uncopied); each band run counts one
    ``core.shard_executions_total`` on *obs* (plain batches included).

    ``submit_task`` (e.g. :meth:`repro.serve.scheduler.Scheduler.
    submit_task`) borrows up to ``lanes - 1`` idle workers; the calling
    thread claims every band no helper picked up, so the join cannot
    deadlock, and without helpers the bands run serially on the caller.
    The gather is a concatenation, so the result does not depend on
    completion order.
    """
    dasps = [d for _, _, d in plan.bands()]
    S = len(dasps)
    parts: list = [None] * S
    errors: list[Exception] = []
    state = {"next": 0, "done": 0}
    cond = threading.Condition()

    def helper() -> None:
        while True:
            with cond:
                if state["next"] >= S or errors:
                    return
                i = state["next"]
                state["next"] += 1
            try:
                parts[i] = fn(i, dasps[i])
                obs.counter("core.shard_executions_total").inc()
            except Exception as exc:  # noqa: BLE001 — joined below
                with cond:
                    errors.append(exc)
            finally:
                with cond:
                    state["done"] += 1
                    cond.notify_all()

    if submit_task is not None:
        for _ in range(min(S, lanes) - 1):
            submit_task(helper)
    helper()
    with cond:
        cond.wait_for(lambda: state["done"] >= state["next"])
        if errors:
            raise errors[0]
    return parts[0] if S == 1 else np.concatenate(parts, axis=0)


def dasp_spmv_sharded(matrix, x: np.ndarray, *, shards: int = 2,
                      obs=None) -> np.ndarray:
    """``y = A @ x`` over row shards; bit-identical to ``dasp_spmv``.

    ``matrix`` is a :class:`ShardedPlan` (used as-is), a
    :class:`DASPMatrix`, or a CSR matrix (partitioned on the fly into
    ``shards`` bands).
    """
    if obs is None:
        obs = get_obs()
    plan = _as_sharded(matrix, shards)
    x = np.asarray(x)
    check(x.shape == (plan.shape[1],),
          f"x must have shape ({plan.shape[1]},)")
    obs.counter("core.shard_spmv_calls_total").inc()
    return run_bands(plan, lambda _, d: dasp_spmv(d, x, obs=obs), obs=obs)


def dasp_spmm_sharded(matrix, X: np.ndarray, *, shards: int = 2,
                      obs=None) -> np.ndarray:
    """``Y = A @ X`` over row shards; bit-identical to ``dasp_spmm``."""
    if obs is None:
        obs = get_obs()
    plan = _as_sharded(matrix, shards)
    X = np.asarray(X)
    check(X.ndim == 2 and X.shape[0] == plan.shape[1],
          f"X must be ({plan.shape[1]}, k)")
    obs.counter("core.shard_spmm_calls_total").inc()
    return run_bands(plan, lambda _, d: dasp_spmm(d, X, obs=obs), obs=obs)


# ----------------------------------------------------------------------
# cost model
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ShardCost:
    """Modeled cost of one batch over a plan's row bands.

    ``per_shard`` holds each band's seconds (dispatch included);
    ``makespan`` is the LPT-schedule finish time over the worker lanes —
    what the batch is charged; ``serial`` is the sum — what a single
    lane would pay; ``events`` each band's k-wide
    :class:`~repro.gpu.events.KernelEvents`.
    """

    per_shard: tuple
    makespan: float
    serial: float
    useful_mma: float
    issued_mma: float
    events: tuple

    @property
    def speedup(self) -> float:
        """Serial time over makespan (parallel efficiency signal)."""
        return self.serial / self.makespan if self.makespan > 0 else 1.0


def lpt_makespan(times, workers: int) -> float:
    """Finish time of longest-processing-time list scheduling on
    ``workers`` lanes (the standard 4/3-approximation bound): the max
    over lanes of the per-lane sums of :func:`lpt_assign`."""
    return max(sum((times[i] for i in lane), 0.0)
               for lane in lpt_assign(times, workers))


def lpt_assign(times, workers: int) -> list:
    """LPT lane assignment: a list of per-lane index lists, in the
    order each lane executes its shards."""
    lanes = [0.0] * max(1, int(workers))
    assign = [[] for _ in lanes]
    order = sorted(range(len(times)), key=lambda i: -times[i])
    for idx in order:
        i = min(range(len(lanes)), key=lanes.__getitem__)
        lanes[i] += times[idx]
        assign[i].append(idx)
    return assign


def sharded_batch_cost(plan, device, k: int = 1, *, workers: int = 1,
                       double_buffer: bool = False,
                       strategies=None) -> ShardCost:
    """Modeled cost of running one k-RHS batch over *plan*'s row bands.

    Any plan is its bands (a :class:`~repro.core.DASPMatrix` is one).
    Each band pays its k-wide events' time (one x-gather analysis per
    band) or, given *strategies* (one large-k tuner
    :class:`~repro.core.spmm_block.SpmmStrategy` per band), its
    strategy's price — plus, with more than one band, one
    ``device.launch_overhead_s`` fan-out dispatch; the bands are
    LPT-scheduled on ``workers`` lanes.

    With ``double_buffer=True`` each lane overlaps the *next* band's
    packed-array stream with the current band's compute
    (:func:`repro.core.overlap_schedule`): a band enters its lane as
    (its stream, the rest of its own double-buffered price — the plain
    time at ``k <= MMA_N``, else its strategy's ``overlapped_s``, the
    stream capped at it); a one-band plan pays that own price as is.
    ``serial`` and ``per_shard`` stay unoverlapped, so the makespan
    never exceeds the plain schedule's.
    """
    device = get_device(device)
    bands = plan.bands()
    dtype_bits = np.dtype(plan.dtype).itemsize * 8
    staged = double_buffer and len(bands) > 1
    dispatch = device.launch_overhead_s if len(bands) > 1 else 0.0

    def seconds(ev) -> float:
        return estimate_time(ev, device, dtype_bits=dtype_bits).total

    def unstreamed(ev) -> float:
        return seconds(replace(ev, bytes_val=0.0, bytes_idx=0.0,
                               bytes_ptr=0.0))

    events, per_shard, loads, computes = [], [], [], []
    useful = issued = 0.0
    for i, (_, _, dasp) in enumerate(bands):
        if strategies is None:
            ev = spmm_events(dasp, device, k)
            t = own = seconds(ev) + dispatch
            if staged:
                computes.append(unstreamed(ev) + dispatch)
                loads.append(max(t - computes[-1], 0.0))
        else:
            s = strategies[i]
            ev, t = s.events, s.modeled_s + dispatch
            own = s.overlapped_s + dispatch
            if staged:
                loads.append(min(max(seconds(ev) - unstreamed(ev), 0.0), own))
                computes.append(own - loads[-1])
        events.append(ev)
        per_shard.append(t)
        useful += mma_utilization_from_events(dasp, k, ev) * ev.flops_mma
        issued += ev.flops_mma
    if staged:
        makespan = max(overlap_schedule([loads[i] for i in lane],
                                        [computes[i] for i in lane])
                       for lane in lpt_assign(per_shard, workers) if lane)
    else:   # with one band, its own (double-buffered) price
        makespan = own if double_buffer else lpt_makespan(per_shard, workers)
    return ShardCost(
        per_shard=tuple(per_shard),
        makespan=makespan,
        serial=float(sum(per_shard)),
        useful_mma=useful,
        issued_mma=issued,
        events=tuple(events),
    )


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
