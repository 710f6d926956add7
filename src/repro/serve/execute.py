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

Every plan is its row bands (``plan.bands()``; a plain plan is one):
one price over them (:func:`repro.shard.sharded_batch_cost`), one kernel
path (:func:`repro.shard.execute.run_bands`) and a large-k tuner
strategy per band — the core never asks which kind of plan it holds.

The two serving shells differ only in what they plug in:

* a **clock** — :class:`VirtualClock` (the simulator's modeled device
  timeline: batches start at ``max(free, formed_s)`` and occupy it for
  their modeled seconds) or :class:`WallClock` (``perf_counter`` time;
  retry backoff really sleeps);
* an **executor** — :class:`ModeledExecutor` (price only, no numerics)
  or :class:`NumericExecutor` (each band through ``dasp_spmm_on_plan``
  or its large-k strategy, plus the same pricing);
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
from functools import reduce

import numpy as np

from .._util import ReproError, check
from ..core.preprocess import traced_preprocess
from ..core.spmm import dasp_spmm_on_plan, mma_phase_fraction, spmm_span
from ..core.spmm_block import (BlockPlan, choose_spmm_strategy,
                               dasp_spmm_large, reorder_from_perm)
from ..obs import get_obs
from ..resilience import (CircuitOpenError, DeadlineExceededError,
                          FallbackExecutor, NumericFault, RetryPolicy)
from ..shard import (build_sharded_plan, choose_shards, sharded_batch_cost,
                     traced_preprocess_sharded)
from ..shard.execute import run_bands
from .batcher import MMA_N
from .plan_cache import PlanRegistry


class CostModel:
    """One memoized price per ``(plan version key, k)``.

    The key is the registry's version key (``fp`` or ``fp@vN``), so a
    delta — which lands under a new key — never reuses the pre-update
    entry.  A batch is charged the LPT makespan of its band prices over
    ``workers`` lanes (:func:`repro.shard.sharded_batch_cost`): each
    band at its k-wide events or, wider than the MMA tile, at the
    large-k strategy the caller's tuner picked for it (double-buffered
    with ``double_buffer``).  A cold price runs the x-gather analysis
    once per band (for a large-k batch inside the tuner), and
    everything read off a batch — charge, MMA flops, events, the
    tracer's phase split — comes from this one entry.  One instance may
    be shared by several replicas: prices depend only on the plan.
    """

    def __init__(self, device, *, workers: int = 1,
                 double_buffer: bool = False) -> None:
        self.device = device
        self.workers = int(workers)
        self.double_buffer = bool(double_buffer)
        self._entries: dict[tuple[str, int], tuple] = {}

    def batch_cost(self, key: str, plan, k: int, strategies=None) -> tuple:
        """``(device seconds, useful MMA flops, issued MMA flops,
        KernelEvents, bands)`` of one k-wide batch.  ``bands`` holds one
        ``(modeled seconds, regular-MMA share)`` pair per band for span
        attribution.  A large-k batch is priced by its per-band tuner
        *strategies* (:meth:`ExecutionCore.strategy`), which carry
        their prices."""
        got = self._entries.get((key, k))
        if got is not None:
            return got
        check(strategies is not None or k <= plan.mma_shape.n,
              "a large-k batch is priced by its tuner strategies")
        cost = sharded_batch_cost(plan, self.device, k, workers=self.workers,
                                  double_buffer=self.double_buffer,
                                  strategies=strategies)
        combined = reduce(lambda a, b: a.combine(b), cost.events)
        bands = tuple(zip(cost.per_shard, (mma_phase_fraction(d)
                                           for _, _, d in plan.bands())))
        got = (cost.makespan, cost.useful_mma, cost.issued_mma, combined,
               bands)
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

    Every plan runs its bands through
    :func:`repro.shard.execute.run_bands`, each band
    :func:`~repro.core.spmm.dasp_spmm_on_plan` (column folds bitwise
    ``dasp_spmv``) or its large-k strategy.  ``submit_task`` (e.g.
    :meth:`Scheduler.submit_task`) borrows up to ``lanes - 1`` idle
    workers for the other bands; the result is bitwise the unsharded
    one.  The batch's ``spmm`` span and ``core.spmm_calls_total`` are
    recorded on the calling thread: helper threads run un-spanned band
    kernels, so they never open root spans.
    """

    def __init__(self, obs=None, *, submit_task=None, lanes: int = 1) -> None:
        self.obs = obs if obs is not None else get_obs()
        self.submit_task = submit_task
        self.lanes = int(lanes)

    def kernel(self, plan, batch, strategies):
        X = batch.assemble_x()

        def band(i, dasp):
            if strategies is None:
                return dasp_spmm_on_plan(dasp, X)
            return dasp_spmm_large(dasp, X, strategies[i])

        with spmm_span(self.obs, "vectorized", X.shape[1]):
            return run_bands(plan, band, obs=self.obs,
                             submit_task=self.submit_task, lanes=self.lanes)

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
        """The tuner's choices for a k-wide batch of version *key*, one
        per band of *plan*, or ``None`` at ``k <= plan.mma_shape.n``.

        The per-band row orders are derived once (:meth:`_row_order`)
        and kept, with the per-k choices beside them, in the registry's
        per-version slot, so all of it retires with the version.
        Racing callers keep the first stored choice, so every batch of
        a given width executes identically.
        """
        if k <= plan.mma_shape.n:
            return None
        orders, chosen = self.registry.derived(
            key, lambda: (self._row_order(fp, plan), {}))
        got = chosen.get(k)
        if got is None:
            got = chosen.setdefault(k, tuple(
                choose_spmm_strategy(d, k, self.cost.device, order=order)
                for (_, _, d), order in zip(plan.bands(), orders)))
        return got

    def _row_order(self, fp: str, plan) -> tuple:
        """Derive the large-k row order of each band of one plan version.

        A ``spmm.reorder_perm`` persisted with the base artifact is a
        decision about the matrix, read once per base fingerprint; a
        band gets its rows in perm order, shifted by its first row (a
        plain plan, the perm itself), tile stats recomputed on this
        version's rows.  Without one the candidate sweep runs.  Counted
        per version as ``spmm.reorder.{loaded,derived}_total``.
        """
        if fp not in self._perms:
            aux = self.registry.load_aux(fp)
            self._perms[fp] = (np.asarray(aux["spmm.reorder_perm"])
                               if aux and "spmm.reorder_perm" in aux
                               else None)
        perm = self._perms[fp]
        bands = plan.bands()
        if perm is None:
            self.obs.counter("spmm.reorder.derived_total").inc()
            return tuple(BlockPlan(d) for _, _, d in bands)
        self.obs.counter("spmm.reorder.loaded_total").inc()
        return tuple(
            BlockPlan(d, reorder_from_perm(
                d.csr, perm[(perm >= lo) & (perm < hi)] - lo,
                mma_shape=d.mma_shape))
            for lo, hi, d in bands)

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
        for strat in self.strategy(fp, key, plan, batch.k) or ():
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
            strats = self.strategy(fp, key, plan, k)
            t, useful, issued, ev, bands = self.cost.batch_cost(
                key, plan, k, strats)
            t = self.clock.scale(t)
            Y, extra, fault = None, 0.0, None
            try:
                corrupt = False
                if self.injector is not None:
                    # kernel fault rules match the bare fingerprint
                    decision = self.injector.check_kernel(fp)
                    extra = self.clock.scale(decision.latency_s)
                    corrupt = decision.corrupt
                Y = self.executor.kernel(plan, batch, strats)
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
                    self._trace_kernel(sp, t + extra, ev, bands, strats)
        return Y, t, useful, issued, extra, fault

    def _trace_kernel(self, sp, total, ev, bands, strats) -> None:
        owners = [sp]     # the span(s) that carry each band's strategy
        if len(bands) > 1:
            # one `shard` span per band, phase children scaled so the
            # attributed sum equals the makespan the batch is charged
            sp.set_attr("shards", len(bands))
            serial = sum(t_i for t_i, _ in bands)
            scale = (total / serial) if serial else 0.0
            owners = []
            for i, (t_i, frac_i) in enumerate(bands):
                ssp = sp.child("shard", attrs={"shard": i, "modeled_s": t_i})
                ssp.child("regular_mma", device_s=t_i * scale * frac_i)
                ssp.child("irregular_csr",
                          device_s=t_i * scale * (1.0 - frac_i))
                owners.append(ssp)
        else:
            (_, frac), = bands
            sp.child("regular_mma", device_s=total * frac)
            sp.child("irregular_csr", device_s=total * (1.0 - frac))
        for owner, strat in zip(owners, strats or ()):
            owner.set_attr("spmm_strategy", strat.name)
            owner.set_attr("tile_k", strat.tile_k)
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

