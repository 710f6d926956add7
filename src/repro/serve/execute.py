"""The batch-execution core shared by the simulator and the real server.

DASP splits a one-time analysis (CSR -> MMA-friendly plan) from a cheap
execution that repeats.  The serving policy wrapped around that
execution — which plan version a batch reads, the circuit-breaker gate,
plan acquisition (shard choice, traced build, preprocess deadline,
store load), the attempt / retry / retry-budget loop, merge-CSR
degradation and the final bookkeeping — lives here exactly once, in
:class:`ExecutionCore`.  Every batch is priced by one memoized
:class:`CostModel` keyed by ``(plan version key, k)``.

The two serving shells differ only in what they plug in:

* a **clock** — :class:`VirtualClock` (the simulator's modeled device
  timeline: batches start at ``max(free, formed_s)`` and occupy it for
  their modeled seconds) or :class:`WallClock` (``perf_counter`` time;
  retry backoff really sleeps);
* an **executor** — :class:`ModeledExecutor` (price only, no numerics)
  or :class:`NumericExecutor` (``dasp_spmm`` / ``dasp_spmm_large`` /
  the sharded fan-out, plus the same pricing);
* **outcomes** — any object with ``terminal(reqs) -> int`` (how many
  logical requests a failure ends), ``settle(batch, Y, end, degraded)
  -> winners`` (hand out results; return the requests that count as
  completed) and ``deliver(reqs, error=None)`` (pass final outcomes to
  callers once the stats are recorded).

Because the policy and the pricing are shared, the same batch sequence
driven through a virtual clock gives every request the same outcome and
the same charged device seconds whether the executor computes or not.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from .._util import check
from ..core.preprocess import traced_preprocess
from ..core.spmm import (dasp_spmm, dasp_spmm_on_plan, mma_phase_fraction,
                         mma_utilization_from_events, spmm_events)
from ..core.spmm_block import (DEFAULT_TILE_K, choose_spmm_strategy,
                               dasp_spmm_large, dasp_spmm_tiled,
                               reorder_from_perm, spmm_tiled_overlap_cost)
from ..gpu.cost_model import estimate_time
from ..resilience import (CircuitOpenError, DeadlineExceededError,
                          FallbackExecutor, NumericFault, RetryPolicy)
from ..shard import (ShardedPlan, choose_shards, sharded_batch_cost,
                     sharded_cost_from_events, sharded_phase_fraction,
                     sharded_spmm_events, traced_preprocess_sharded)
from .batcher import MMA_N
from .plan_cache import PlanRegistry


def _is_large(plan, k: int) -> bool:
    """Does a k-wide batch go through the large-k strategy tier?"""
    return not isinstance(plan, ShardedPlan) and k > plan.mma_shape.n


class CostModel:
    """Memoized modeled batch times per ``(plan version key, k)``.

    The key is the registry's version key (``fp`` or ``fp@vN``), so a
    delta — which lands under a new key — never reuses the pre-update
    entry.  A :class:`~repro.shard.ShardedPlan` is charged the LPT
    makespan of its per-shard times over ``workers`` lanes; an
    unsharded batch wider than the MMA tile is charged the large-k
    strategy the tuner picks (memoized per key and k as well), with the
    double-buffered overlap schedule when ``double_buffer`` is set.
    One instance may be shared by several replicas: prices depend only
    on the plan.
    """

    def __init__(self, device, *, workers: int = 1,
                 double_buffer: bool = False) -> None:
        self.device = device
        self.workers = int(workers)
        self.double_buffer = bool(double_buffer)
        self._entries: dict[tuple[str, int], tuple] = {}
        self._strategies: dict[tuple[str, int], object] = {}
        self._frac: dict[str, float] = {}

    def strategy(self, key: str, plan, k: int, hint=None):
        """Tuner choice for one unsharded (version, k) pair.

        ``hint()`` (called only on a miss) may return a
        :class:`~repro.core.spmm_block.ReorderResult` rebuilt from a
        persisted permutation.  Racing callers keep the first stored
        choice, so every batch of a given width executes identically.
        """
        got = self._strategies.get((key, k))
        if got is None:
            got = self._strategies.setdefault((key, k), choose_spmm_strategy(
                plan, k, self.device,
                reorder_hint=hint() if hint is not None else None))
        return got

    def batch_cost(self, key: str, plan, k: int) -> tuple:
        """``(device seconds, useful MMA flops, issued MMA flops,
        KernelEvents)`` of one k-wide batch.  A large-k batch is priced
        by :meth:`strategy`'s memo — call that first to pass a hint."""
        got = self._entries.get((key, k))
        if got is not None:
            return got
        if isinstance(plan, ShardedPlan):
            evs = sharded_spmm_events(plan, self.device, k)
            cost = sharded_cost_from_events(
                plan, evs, self.device, k, workers=self.workers,
                double_buffer=self.double_buffer)
            combined = evs[0]
            for e in evs[1:]:
                combined = combined.combine(e)
            got = (cost.makespan, cost.useful_mma, cost.issued_mma, combined)
        else:
            bits = plan.dtype.itemsize * 8
            ev = spmm_events(plan, self.device, k)
            if _is_large(plan, k):
                strat = self.strategy(key, plan, k)
                t = strat.modeled_s
                if self.double_buffer and strat.name != "looped":
                    _, t = spmm_tiled_overlap_cost(
                        plan, self.device, k, tile_k=strat.tile_k,
                        stats=strat.stats, dtype_bits=bits)
            else:
                t = estimate_time(ev, self.device, dtype_bits=bits).total
            util = mma_utilization_from_events(plan, k, ev)
            got = (t, util * ev.flops_mma, ev.flops_mma, ev)
        return self._entries.setdefault((key, k), got)

    def phase_fraction(self, key: str, plan) -> float:
        """Memoized regular-MMA share of the modeled time (for spans)."""
        frac = self._frac.get(key)
        if frac is None:
            frac = self._frac.setdefault(key, (
                sharded_phase_fraction(plan) if isinstance(plan, ShardedPlan)
                else mma_phase_fraction(plan)))
        return frac


class VirtualClock:
    """A modeled device timeline in virtual seconds (the simulator).

    ``free`` is when the device next idles; a batch starts at
    ``max(free, formed_s)``.  Plan acquisition, patches and retry
    backoff are booked onto ``free``; ``factor`` multiplies every
    modeled second this device charges (a slow replica).
    """

    def __init__(self, factor: float = 1.0) -> None:
        check(factor > 0.0, "time_scale must be > 0")
        self.factor = float(factor)
        self.free = 0.0

    def now(self, batch) -> float:
        return max(self.free, batch.formed_s)

    def scale(self, seconds: float) -> float:
        return seconds * self.factor

    def charge(self, seconds: float) -> None:
        self.free += seconds

    sleep = charge

    def occupy(self, batch, first: float, second: float) -> float:
        """Run *batch* for ``first + second`` seconds; returns the end."""
        self.free = self.now(batch) + first + second
        return self.free


class WallClock:
    """``perf_counter`` time since construction (the real server).

    Modeled seconds are reported, not waited for: work takes the wall
    time it takes, and only retry backoff sleeps."""

    def __init__(self) -> None:
        self._t0 = time.perf_counter()

    def now(self, batch=None) -> float:
        return time.perf_counter() - self._t0

    @staticmethod
    def scale(seconds: float) -> float:
        return seconds

    def charge(self, seconds: float) -> None:
        pass

    @staticmethod
    def sleep(seconds: float) -> None:
        time.sleep(seconds)

    def occupy(self, batch, first: float, second: float) -> float:
        return self.now()


class ModeledExecutor:
    """Prices batches without computing them (results are ``None``)."""

    def kernel(self, plan, batch, strategy):
        return None

    def fallback(self, fallback: FallbackExecutor, key: str, csr, batch):
        return None


class NumericExecutor:
    """Computes batches with the DASP kernels.

    Unsharded batches run :func:`~repro.core.spmm.dasp_spmm` (k <= 8;
    its column folds are bitwise ``dasp_spmv``) or the tuner's large-k
    strategy.  A sharded plan fans its bands out: ``submit_task``
    (e.g. :meth:`Scheduler.submit_task`) borrows up to ``lanes - 1``
    idle workers, and the calling thread claims every band no helper
    picked up, so the join cannot deadlock.  Bands are concatenated in
    order — bitwise the unsharded result.
    """

    def __init__(self, obs=None, *, submit_task=None, lanes: int = 1) -> None:
        self.obs = obs
        self.submit_task = submit_task
        self.lanes = int(lanes)

    def kernel(self, plan, batch, strategy):
        X = batch.assemble_x()
        if isinstance(plan, ShardedPlan):
            return self._fan_out(plan, X)
        if strategy is not None:
            return dasp_spmm_large(plan, X, strategy)
        return dasp_spmm(plan, X, obs=self.obs)

    def fallback(self, fallback: FallbackExecutor, key: str, csr, batch):
        return fallback.run(key, csr, batch.assemble_x())

    def _fan_out(self, plan, X):
        S = plan.n_shards
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
                    # the un-spanned entry points: helper threads must
                    # not open root spans in the thread-local tracer
                    band = plan.shards[i].dasp
                    parts[i] = (dasp_spmm_tiled(band, X, tile_k=DEFAULT_TILE_K)
                                if X.shape[1] > MMA_N
                                else dasp_spmm_on_plan(band, X))
                    if self.obs is not None:
                        self.obs.counter("core.shard_executions_total").inc()
                except Exception as exc:  # noqa: BLE001 — joined below
                    with cond:
                        errors.append(exc)
                finally:
                    with cond:
                        state["done"] += 1
                        cond.notify_all()

        if self.submit_task is not None:
            for _ in range(min(S, self.lanes) - 1):
                self.submit_task(helper)
        helper()
        with cond:
            cond.wait_for(lambda: state["done"] >= state["next"])
            if errors:
                raise errors[0]
        return np.concatenate(parts, axis=0)


class ExecutionCore:
    """The per-batch serving policy (see the module docstring).

    Parameters
    ----------
    device / registry / stats / obs:
        The shell's device spec, :class:`PlanRegistry`,
        :class:`~repro.serve.stats.ServerStats` and observability handle.
    cost / clock / executor / outcomes:
        The pluggable parts: a (possibly shared) :class:`CostModel`, a
        clock, an executor and the shell's outcome hooks.
    matrices:
        ``fingerprint -> CSR`` dict shared with the shell (the build
        source on a plan miss; the fallback reads the resident plan's
        CSR for the batch's version when there is one).
    breaker / injector / retry / retry_rng / retry_budget / fallback:
        Resilience knobs; ``breaker``, ``injector`` and ``retry_budget``
        may be ``None``.  ``fallback=False`` fails un-servable batches
        instead of degrading them.
    shards / shard_workers / shard_k:
        Row sharding: ``None``/``1``, an integer, or ``"auto"``
        (:func:`repro.shard.choose_shards` over ``shard_workers`` lanes
        at width ``shard_k``); ``shard_hints`` holds per-matrix
        overrides.
    preprocess_deadline_s:
        Budget for one modeled preprocessing pass (over it: the plan
        acquisition fails and the batch degrades).
    plan_cache:
        ``False`` rebuilds (and charges) the plan for every batch.
    """

    def __init__(self, *, device, registry: PlanRegistry, stats, obs, cost,
                 clock, executor, outcomes, matrices: dict,
                 breaker=None, injector=None,
                 retry: RetryPolicy | None = None, retry_rng=None,
                 retry_budget=None, fallback: bool = True,
                 shards=None, shard_workers: int = 1, shard_k: int = MMA_N,
                 preprocess_deadline_s: float | None = None,
                 plan_cache: bool = True) -> None:
        self.device = device
        self.registry = registry
        self.stats = stats
        self.obs = obs
        self.cost = cost
        self.clock = clock
        self.executor = executor
        self.outcomes = outcomes
        self.matrices = matrices
        self.breaker = breaker
        self.injector = injector
        self.retry = retry if retry is not None else RetryPolicy()
        self.retry_rng = retry_rng
        self.retry_budget = retry_budget
        self.fallback_enabled = bool(fallback)
        self.fallback = FallbackExecutor(device)
        self.shards = shards
        self.shard_workers = int(shard_workers)
        self.shard_k = int(shard_k)
        self.shard_hints: dict[str, int | str] = {}
        self.preprocess_deadline_s = preprocess_deadline_s
        self.plan_cache = bool(plan_cache)
        self._shard_choice: dict[str, int] = {}
        self._hints: dict[str, object] = {}
        self._rng_lock = threading.Lock()

    # ------------------------------------------------------------------
    # plan acquisition
    # ------------------------------------------------------------------
    def shards_for(self, fp: str, csr) -> int:
        """Shard count for one matrix (a per-matrix hint wins; memoized
        for ``"auto"``)."""
        policy = self.shard_hints.get(fp, self.shards)
        if policy in (None, 1):
            return 1
        if policy != "auto":
            return int(policy)
        S = self._shard_choice.get(fp)
        if S is None:
            # offline model sweep; the winning plan is built — and
            # charged — through the traced path in :meth:`build`
            S = self._shard_choice.setdefault(fp, int(choose_shards(
                csr, self.shard_workers, device=self.device,
                k=self.shard_k).best_value))
        return S

    def build(self, fp: str, csr):
        """Traced preprocessing of *csr*: ``(plan, modeled seconds)``."""
        S = self.shards_for(fp, csr)
        if S > 1:
            return traced_preprocess_sharded(
                csr, self.device, S, obs=self.obs, injector=self.injector,
                fingerprint=fp)
        return traced_preprocess(csr, self.device, obs=self.obs,
                                 injector=self.injector, fingerprint=fp)

    def acquire(self, fp: str, key: str):
        """Fetch or build the plan for version *key*, charging the
        modeled build or load time.  Raises on injected preprocess
        faults, a blown preprocess deadline, or an over-budget plan."""
        pre: dict[str, float] = {}

        def build(csr):
            plan, seconds = self.build(fp, csr)
            if (self.preprocess_deadline_s is not None
                    and seconds > self.preprocess_deadline_s):
                raise DeadlineExceededError(
                    f"preprocess needs {seconds:.6f}s modeled, over the "
                    f"{self.preprocess_deadline_s:.6f}s budget")
            pre["s"] = seconds
            return plan

        csr = self.matrices[fp]
        if not self.plan_cache:
            plan, charged = build(csr), pre["s"]
        else:
            plan, source, load_s = self.registry.get_ex(
                csr, fingerprint=key, builder=build)
            if source == "ram":
                return plan
            charged = pre.get("s", 0.0) if source == "built" else load_s
        charged = self.clock.scale(charged)
        self.stats.observe_preprocess(charged)
        self.clock.charge(charged)
        return plan

    def reorder_hint(self, fp: str, plan):
        """A persisted ``spmm.reorder_perm`` as a tuner hint, or ``None``.

        Looked up once per matrix and counted as
        ``spmm.reorder.{loaded,derived}_total``, so a matrix tuned
        offline never pays the reorder sweep again."""
        if fp in self._hints:
            return self._hints[fp]
        aux = self.registry.load_aux(fp)
        hint = None
        if aux and "spmm.reorder_perm" in aux:
            hint = reorder_from_perm(plan.csr,
                                     np.asarray(aux["spmm.reorder_perm"]),
                                     mma_shape=plan.mma_shape)
            self.obs.counter("spmm.reorder.loaded_total").inc()
        else:
            self.obs.counter("spmm.reorder.derived_total").inc()
        return self._hints.setdefault(fp, hint)

    def _strategy(self, fp: str, key: str, plan, k: int):
        if not _is_large(plan, k):
            return None
        return self.cost.strategy(key, plan, k,
                                  lambda: self.reorder_hint(fp, plan))

    # ------------------------------------------------------------------
    # batch execution
    # ------------------------------------------------------------------
    def expire(self, batch) -> None:
        """Fail the requests of *batch* whose deadline has passed."""
        now = self.clock.now(batch)
        expired = batch.split_expired(now)
        if expired:
            self._lose(expired, DeadlineExceededError(
                f"{len(expired)} request(s) of a {batch.fingerprint[:8]}… "
                f"batch missed their deadline at t={now:.6f}s"),
                deadline=True)

    def execute(self, batch, version: int | None = None) -> None:
        """Run one batch to its outcome.

        ``version`` is the matrix version the batch reads; ``None``
        means the version its requests were pinned to at admission.
        """
        self.expire(batch)
        if not batch.requests:
            return
        fp = batch.fingerprint
        if version is None:
            version = batch.requests[0].version
        key = self.registry.versioned_key(fp, version)
        with self.obs.span("batch", attrs={"matrix": fp[:8], "k": batch.k}
                           if self.obs.tracing else None):
            self._run(batch, fp, key)

    def _run(self, batch, fp: str, key: str) -> None:
        now = self.clock.now(batch)
        if self.breaker is not None and not self.breaker.allow(fp, now):
            self._degrade(batch, key, CircuitOpenError(
                f"circuit open for matrix {fp[:8]}…"))
            return
        try:
            plan = self.acquire(fp, key)
        except Exception as exc:  # noqa: BLE001 — degrade, never crash a worker
            if self.breaker is not None:
                self.breaker.record_failure(fp, now)
            self._degrade(batch, key, exc)
            return
        strat = self._strategy(fp, key, plan, batch.k)
        if strat is not None:
            self.stats.observe_spmm_large(strat.name)
        retry = self.retry
        for attempt in range(retry.max_retries + 1):
            Y, t, useful, issued, extra, fault = self._attempt(
                fp, key, plan, batch, attempt)
            # a failed attempt's device time is burned all the same
            end = self.clock.occupy(batch, t, extra)
            if fault is None:
                if self.breaker is not None:
                    self.breaker.record_success(fp, end)
                self._complete(batch, Y, end, t + extra, useful, issued,
                               degraded=False)
                return
            if self.breaker is not None:
                self.breaker.record_failure(fp, end)
            if (getattr(fault, "transient", False)
                    and attempt < retry.max_retries and self._allow_retry()):
                self.stats.observe_retry()
                with self._rng_lock:
                    backoff = retry.backoff_s(attempt + 1, self.retry_rng)
                self.clock.sleep(backoff)
                self.expire(batch)
                if not batch.requests:
                    return
                continue
            # out of attempts, a permanent fault, or the retry budget is
            # dry: straight to the merge-CSR fallback
            self._degrade(batch, key, fault)
            return

    def _allow_retry(self) -> bool:
        """Spend one global retry token (always allowed with no budget)."""
        return self.retry_budget is None or self.retry_budget.try_spend()

    def _attempt(self, fp: str, key: str, plan, batch, attempt: int):
        """One kernel attempt inside a ``kernel`` span; returns
        ``(Y, seconds, useful, issued, extra_s, fault)``."""
        k = batch.k
        tracing = self.obs.tracing
        with self.obs.span("kernel", attrs={"attempt": attempt}
                           if tracing else None) as sp:
            strat = self._strategy(fp, key, plan, k)
            t, useful, issued, ev = self.cost.batch_cost(key, plan, k)
            t = self.clock.scale(t)
            Y, extra, fault = None, 0.0, None
            try:
                corrupt = False
                if self.injector is not None:
                    # kernel fault rules match the bare fingerprint
                    decision = self.injector.check_kernel(fp)
                    extra = self.clock.scale(decision.latency_s)
                    corrupt = decision.corrupt
                Y = self.executor.kernel(plan, batch, strat)
                if corrupt and Y is not None:
                    Y = self.injector.corrupt_output(Y)
                if corrupt or (Y is not None and not np.isfinite(Y).all()):
                    raise NumericFault(
                        f"non-finite kernel output for matrix {fp[:8]}…")
            except Exception as exc:  # noqa: BLE001 — retried or degraded
                fault = exc
            if tracing:
                if fault is not None:
                    sp.status = "error"
                    sp.set_attr("fault", type(fault).__name__)
                else:
                    # only successful attempts reach the stats counters
                    self._trace_kernel(sp, key, plan, k, t + extra, ev, strat)
        return Y, t, useful, issued, extra, fault

    def _trace_kernel(self, sp, key, plan, k, total, ev, strat) -> None:
        if isinstance(plan, ShardedPlan):
            # one `shard` span per band, phase children scaled so the
            # attributed sum equals the makespan the batch is charged
            sp.set_attr("shards", plan.n_shards)
            cost = sharded_batch_cost(plan, self.device, k,
                                      workers=self.cost.workers)
            scale = (total / cost.serial) if cost.serial else 0.0
            for i, band in enumerate(plan.shards):
                t_i = cost.per_shard[i]
                frac_i = mma_phase_fraction(band.dasp)
                ssp = sp.child("shard", attrs={"shard": i, "modeled_s": t_i})
                ssp.child("regular_mma", device_s=t_i * scale * frac_i)
                ssp.child("irregular_csr",
                          device_s=t_i * scale * (1.0 - frac_i))
        else:
            frac = self.cost.phase_fraction(key, plan)
            sp.child("regular_mma", device_s=total * frac)
            sp.child("irregular_csr", device_s=total * (1.0 - frac))
        if strat is not None:
            sp.set_attr("spmm_strategy", strat.name)
            sp.set_attr("tile_k", strat.tile_k)
        for name, value in ev.as_attrs().items():
            sp.set_attr(name, value)

    def _degrade(self, batch, key: str, cause: Exception) -> None:
        """Serve *batch* from the merge-CSR path (or fail it)."""
        if not self.fallback_enabled:
            self._lose(batch.requests, cause)
            return
        fp = batch.fingerprint
        # the version's own CSR: a fallback after a delta must compute
        # (and be priced on) the patched matrix, not the registered one
        plan = self.registry.peek(key)
        csr = plan.csr if plan is not None else self.matrices[fp]
        with self.obs.span("fallback", attrs={
                "matrix": fp[:8], "cause": type(cause).__name__}
                if self.obs.tracing else None) as sp:
            try:
                Y = self.executor.fallback(self.fallback, key, csr, batch)
                t, pre_s = self.fallback.modeled_cost(key, csr, batch.k)
            except Exception as exc:  # noqa: BLE001 — fallback itself broke
                if self.obs.tracing:
                    sp.status = "error"
                self._lose(batch.requests, exc)
                return
            t, pre_s = self.clock.scale(t), self.clock.scale(pre_s)
            sp.set_device_time(t)
            if pre_s:
                self.stats.observe_preprocess(pre_s)
                if self.obs.tracing:
                    sp.child("preprocess", device_s=pre_s)
        end = self.clock.occupy(batch, pre_s, t)
        # degraded batches issue no MMA work — utilization stays honest
        self._complete(batch, Y, end, t, 0.0, 0.0, degraded=True)

    def _complete(self, batch, Y, end: float, device_s: float, useful: float,
                  issued: float, *, degraded: bool) -> None:
        winners = self.outcomes.settle(batch, Y, end, degraded)
        if degraded:
            self.stats.observe_degraded(len(winners))
        self.stats.observe_batch(batch.k, device_s, useful_mma=useful,
                                 issued_mma=issued, completed=len(winners))
        for req in winners:
            self.stats.observe_latency(req.latency_s)
        self.outcomes.deliver(winners)

    def _lose(self, reqs, error: Exception, *, deadline: bool = False) -> None:
        n = self.outcomes.terminal(reqs)
        if deadline:
            self.stats.observe_deadline_exceeded(n)
        else:
            self.stats.observe_failed(n)
        self.outcomes.deliver(reqs, error)

