"""The batch-execution core shared by the simulator and the real server.

DASP splits a one-time analysis (CSR -> MMA-friendly plan) from a cheap
execution that repeats.  The serving policy wrapped around that
execution — which plan version a batch reads, the circuit-breaker gate,
plan acquisition (shard choice, traced build, store load — on demand,
or ahead of it through :meth:`ExecutionCore.warm`), the
attempt / retry / retry-budget loop, merge-CSR degradation and the
final bookkeeping — lives here exactly once, in
:class:`ExecutionCore`.  Every batch is priced by one memoized
:class:`CostModel` entry keyed by ``(plan version key, k)``.

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

from .._util import ReproError, check
from ..core.preprocess import traced_preprocess
from ..core.spmm import (dasp_spmm, dasp_spmm_on_plan, mma_phase_fraction,
                         mma_utilization_from_events, spmm_events)
from ..core.spmm_block import (BlockPlan, choose_spmm_strategy,
                               dasp_spmm_large, reorder_from_perm)
from ..gpu.cost_model import estimate_time
from ..resilience import (CircuitOpenError, DeadlineExceededError,
                          FallbackExecutor, NumericFault, RetryPolicy)
from ..shard import (ShardedPlan, build_sharded_plan, choose_shards,
                     sharded_batch_cost, traced_preprocess_sharded)
from ..shard.execute import run_bands
from .batcher import MMA_N
from .plan_cache import PlanRegistry


def _is_large(plan, k: int) -> bool:
    """Does a k-wide batch go through the large-k strategy tier?"""
    return not isinstance(plan, ShardedPlan) and k > plan.mma_shape.n


class CostModel:
    """One memoized price per ``(plan version key, k)``.

    The key is the registry's version key (``fp`` or ``fp@vN``), so a
    delta — which lands under a new key — never reuses the pre-update
    entry.  A :class:`~repro.shard.ShardedPlan` is charged the LPT
    makespan of its per-shard times over ``workers`` lanes; an
    unsharded batch wider than the MMA tile is charged the large-k
    strategy the caller's tuner picked for that key and k (its
    double-buffered time when ``double_buffer`` is set).  A cold price
    runs the x-gather analysis once (once per shard band; for a large-k
    batch inside the tuner), and everything read off a batch — charge,
    MMA flops, events, the tracer's phase split — comes from this one
    entry.  One instance may be shared by several replicas: prices
    depend only on the plan.
    """

    def __init__(self, device, *, workers: int = 1,
                 double_buffer: bool = False) -> None:
        self.device = device
        self.workers = int(workers)
        self.double_buffer = bool(double_buffer)
        self._entries: dict[tuple[str, int], tuple] = {}

    def batch_cost(self, key: str, plan, k: int, strategy=None) -> tuple:
        """``(device seconds, useful MMA flops, issued MMA flops,
        KernelEvents, bands)`` of one k-wide batch.  ``bands`` holds one
        ``(modeled seconds, regular-MMA share)`` pair per shard band
        (one pair for an unsharded plan) for span attribution.  A
        large-k batch is priced by its tuner *strategy*
        (:meth:`ExecutionCore.strategy`), which carries its price."""
        got = self._entries.get((key, k))
        if got is not None:
            return got
        if isinstance(plan, ShardedPlan):
            cost = sharded_batch_cost(plan, self.device, k,
                                      workers=self.workers,
                                      double_buffer=self.double_buffer)
            combined = cost.events[0]
            for e in cost.events[1:]:
                combined = combined.combine(e)
            bands = tuple(zip(cost.per_shard, (mma_phase_fraction(s.dasp)
                                               for s in plan.shards)))
            got = (cost.makespan, cost.useful_mma, cost.issued_mma, combined,
                   bands)
        else:
            if _is_large(plan, k):
                check(strategy is not None,
                      "a large-k batch is priced by its tuner strategy")
                ev = strategy.events
                t = (strategy.overlapped_s if self.double_buffer
                     else strategy.modeled_s)
            else:
                ev = spmm_events(plan, self.device, k)
                t = estimate_time(ev, self.device,
                                  dtype_bits=plan.dtype.itemsize * 8).total
            util = mma_utilization_from_events(plan, k, ev)
            got = (t, util * ev.flops_mma, ev.flops_mma, ev,
                   ((t, mma_phase_fraction(plan)),))
        return self._entries.setdefault((key, k), got)


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
    strategy.  A sharded plan fans its bands out through
    :func:`repro.shard.execute.run_bands`: ``submit_task`` (e.g.
    :meth:`Scheduler.submit_task`) borrows up to ``lanes - 1`` idle
    workers, and the calling thread claims every band no helper picked
    up.  Bands are concatenated in order — bitwise the unsharded
    result.
    """

    def __init__(self, obs=None, *, submit_task=None, lanes: int = 1) -> None:
        self.obs = obs
        self.submit_task = submit_task
        self.lanes = int(lanes)

    def kernel(self, plan, batch, strategy):
        X = batch.assemble_x()
        if isinstance(plan, ShardedPlan):
            # the un-spanned entry point: helper threads must not open
            # root spans in the thread-local tracer
            return run_bands(plan, lambda band: dasp_spmm_on_plan(band, X),
                             obs=self.obs, submit_task=self.submit_task,
                             lanes=self.lanes)
        if strategy is not None:
            return dasp_spmm_large(plan, X, strategy)
        return dasp_spmm(plan, X, obs=self.obs)

    def fallback(self, fallback: FallbackExecutor, key: str, csr, batch):
        return fallback.run(key, csr, batch.assemble_x())


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
    plan_cache:
        ``False`` rebuilds (and charges) the plan for every batch.
    """

    def __init__(self, *, device, registry: PlanRegistry, stats, obs, cost,
                 clock, executor, outcomes, matrices: dict,
                 breaker=None, injector=None,
                 retry: RetryPolicy | None = None, retry_rng=None,
                 retry_budget=None, fallback: bool = True,
                 shards=None, shard_workers: int = 1, shard_k: int = MMA_N,
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
        self.plan_cache = bool(plan_cache)
        self._shard_choice: dict[str, int] = {}
        self._perms: dict[str, np.ndarray | None] = {}
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

    def rebuilder(self, fp: str, csr):
        """:meth:`PlanRegistry.update`'s ``builder`` for *fp*: ``None``
        (the registry's plain ``DASPMatrix.from_csr``) for an unsharded
        matrix, else an untraced build with *fp*'s shard count, so a
        delta that reaches a matrix before its first read starts the
        version chain with the layout :meth:`build` would give it."""
        S = self.shards_for(fp, csr)
        if S == 1:
            return None
        return lambda c: build_sharded_plan(c, S)

    def fetch(self, fp: str, key: str, *, speculative: bool = False):
        """Fetch or build version *key*'s plan through the registry's
        single-flight: ``(plan, source, seconds)``.

        ``source`` is the registry's (``"ram"``, ``"store"`` or
        ``"built"``); *seconds* is the modeled load or traced build
        time, scaled by the clock and counted in ``preprocess_s`` (0.0
        for a RAM hit).  Nothing is charged to a clock — the caller
        books it.  ``speculative`` is the registry's ahead-of-demand
        accounting (:meth:`PlanRegistry.get_ex`).  Raises on injected
        preprocess faults or an over-budget plan."""
        pre: dict[str, float] = {}

        def build(csr):
            plan, pre["s"] = self.build(fp, csr)
            return plan

        plan, source, load_s = self.registry.get_ex(
            self.matrices[fp], fingerprint=key, builder=build,
            speculative=speculative)
        if source == "ram":
            return plan, source, 0.0
        seconds = self.clock.scale(pre.get("s", 0.0) if source == "built"
                                   else load_s)
        self.stats.observe_preprocess(seconds)
        return plan, source, seconds

    def acquire(self, fp: str, key: str):
        """The demand path: :meth:`fetch` (or, with the plan cache off,
        a fresh build) with its seconds charged to the clock."""
        if self.plan_cache:
            plan, _, seconds = self.fetch(fp, key)
        else:
            plan, seconds = self.build(fp, self.matrices[fp])
            seconds = self.clock.scale(seconds)
            self.stats.observe_preprocess(seconds)
        self.clock.charge(seconds)
        return plan

    def warm(self, fp: str, *, build: bool):
        """Acquire *fp*'s plan ahead of demand — the one warm path.

        ``build=False`` is the store-only preload
        (:meth:`PlanRegistry.warm`): the load-vs-rebuild gate is
        bypassed, since the load is paid off the serving clock, and
        nothing is built.  ``build=True`` is the speculative
        acquisition — the demand path's :meth:`fetch` run early: the
        store's gated load, else a traced :meth:`build` (only a build
        counts a cache miss) — counted as
        ``pipeline.warm_total{action}`` and
        ``pipeline.warm_{load,build}_total``; a failed build counts
        ``pipeline.warm_failed_total`` instead of raising (the demand
        path retries, and pays, later).

        Returns ``(prefetch-lane kind, seconds)`` — the seconds scaled
        and counted in ``preprocess_s`` — or ``None`` when the plan is
        already resident or nothing was acquired.
        """
        if self.registry.peek(fp) is not None:
            return None
        if not build:
            load_s = self.registry.warm(fp)
            if load_s is None:
                return None
            seconds = self.clock.scale(load_s)
            self.stats.observe_preprocess(seconds)
            return "load", seconds
        try:
            _, source, seconds = self.fetch(fp, fp, speculative=True)
        except ReproError:          # only a build can fail
            source = None
        if source == "ram":         # another thread landed it first
            return None
        action = "load" if source == "store" else "build"
        self.obs.counter("pipeline.warm_total", {"action": action}).inc()
        self.obs.counter(f"pipeline.warm_{action}_total").inc()
        if source is None:
            self.obs.counter("pipeline.warm_failed_total").inc()
            return None
        return ("warm.load" if action == "load" else "build"), seconds

    def strategy(self, fp: str, key: str, plan, k: int):
        """The tuner's choice for a k-wide batch of version *key*, or
        ``None`` below the large-k tier (and for sharded plans).

        The version's row order is derived once (:meth:`_row_order`) and
        kept, with the per-k choices beside it, in the registry's
        per-version slot, so all of it retires with the version.
        Racing callers keep the first stored choice, so every batch of
        a given width executes identically.
        """
        if not _is_large(plan, k):
            return None
        order, chosen = self.registry.derived(
            key, lambda: (self._row_order(fp, plan), {}))
        got = chosen.get(k)
        if got is None:
            got = chosen.setdefault(k, choose_spmm_strategy(
                plan, k, self.cost.device, order=order))
        return got

    def _row_order(self, fp: str, plan) -> BlockPlan:
        """Derive the large-k row order of one plan version.

        A ``spmm.reorder_perm`` persisted with the base artifact is a
        decision about the matrix, read once per base fingerprint; its
        tile stats are recomputed on this version's rows.  Without one
        the candidate sweep runs.  Counted per version as
        ``spmm.reorder.{loaded,derived}_total``.
        """
        if fp not in self._perms:
            aux = self.registry.load_aux(fp)
            self._perms[fp] = (np.asarray(aux["spmm.reorder_perm"])
                               if aux and "spmm.reorder_perm" in aux
                               else None)
        perm = self._perms[fp]
        if perm is None:
            self.obs.counter("spmm.reorder.derived_total").inc()
            return BlockPlan(plan)
        self.obs.counter("spmm.reorder.loaded_total").inc()
        return BlockPlan(plan, reorder_from_perm(
            plan.csr, perm, mma_shape=plan.mma_shape))

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
        strat = self.strategy(fp, key, plan, batch.k)
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
            strat = self.strategy(fp, key, plan, k)
            t, useful, issued, ev, bands = self.cost.batch_cost(
                key, plan, k, strat)
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
                    self._trace_kernel(sp, plan, t + extra, ev, bands, strat)
        return Y, t, useful, issued, extra, fault

    def _trace_kernel(self, sp, plan, total, ev, bands, strat) -> None:
        if isinstance(plan, ShardedPlan):
            # one `shard` span per band, phase children scaled so the
            # attributed sum equals the makespan the batch is charged
            sp.set_attr("shards", plan.n_shards)
            serial = sum(t_i for t_i, _ in bands)
            scale = (total / serial) if serial else 0.0
            for i, (t_i, frac_i) in enumerate(bands):
                ssp = sp.child("shard", attrs={"shard": i, "modeled_s": t_i})
                ssp.child("regular_mma", device_s=t_i * scale * frac_i)
                ssp.child("irregular_csr",
                          device_s=t_i * scale * (1.0 - frac_i))
        else:
            (_, frac), = bands
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

