"""Workload driver — open-loop synthetic traffic replay in virtual time.

Replays a serving workload against the batching + plan-caching pipeline
as a deterministic discrete-event simulation: Poisson arrivals at a
configured offered rate, matrix popularity drawn from a Zipf
distribution over the representative suite, a single modeled device
executing flushed batches in FIFO order, and a bounded device backlog
applying backpressure.  Every batch is charged its modeled device time
(:func:`repro.core.spmm.spmm_events` through the cost model), cache
misses additionally pay the modeled preprocessing cost (Figure 13), and
per-request latency is ``completion - arrival`` in virtual seconds.

**Chaos mode** (:class:`ChaosConfig`) injects a seeded fault mix over
the same traffic: preprocessing failures, transient kernel failures
(retried with the configured backoff, charged in virtual time),
NaN-corrupted outputs (caught by validation), extra latency, and an
optional permanently-poisoned matrix that drives its circuit breaker
open.  Un-servable batches degrade to the modeled merge-CSR fallback;
requests past their deadline fail fast and are counted.

Being single-threaded and clocked virtually, the driver is exactly
reproducible for a given seed — the property the serving benchmarks
rely on — while running the same :class:`RequestBatcher`,
:class:`PlanRegistry` and per-batch policy
(:class:`~repro.serve.execute.ExecutionCore`: breaker, plan
acquisition, retry, fallback, pricing) as the real-threaded server.

The workload itself is one model shared by both virtual-time drivers:
:class:`Traffic` turns a :class:`WorkloadConfig` into an arrival stream
(every traffic RNG stream lives there) and :func:`replay` is the one
arrival loop feeding it to a *front* — a single :class:`ReplicaSim`
here, N of them behind a consistent-hash router in
:mod:`repro.cluster.driver`.  The cluster's N=1 exact-parity gate rests
on both drivers running that one draw, that one loop and the same
per-replica core.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .._util import ReproError, check, default_rng
from ..core.delta import random_delta
from ..core.format import DASPMatrix
from ..gpu.device import get_device
from ..obs import Obs
from ..resilience import (
    BreakerConfig,
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    FaultRule,
    RetryPolicy,
)
from ..pipeline import (
    PipelineConfig,
    PrefetchLane,
    SpeculativeWarmer,
    WarmerConfig,
)
from .batcher import Batch, DEFAULT_FLUSH_TIMEOUT_S, MMA_N, RequestBatcher
from .execute import CostModel, ExecutionCore, ModeledExecutor, VirtualClock
from .plan_cache import DEFAULT_BUDGET_BYTES, PlanRegistry, matrix_fingerprint
from .request import SpMMRequest, SpMVRequest
from .stats import ServerStats

#: Extra modeled microseconds a chaos-mix latency rule charges.
CHAOS_LATENCY_US = 300.0


@dataclass
class ChaosConfig:
    """Seeded fault mix injected over the synthetic workload.

    Attributes
    ----------
    fault_rate:
        Total firing probability, split evenly over *kinds* (0.05 =
        5% of eligible calls hit some fault).
    seed:
        RNG seed of the injector (independent of the traffic seed).
    kinds:
        Which fault kinds participate in the even split.
    poison_rank:
        Optionally make the ``poison_rank``-th pool matrix fail every
        kernel — the deterministic way to exercise the circuit breaker
        under Zipf traffic.

    A latency rule that fires charges :data:`CHAOS_LATENCY_US` extra
    modeled microseconds.
    """

    fault_rate: float = 0.05
    seed: int = 7
    kinds: tuple = ("preprocess_error", "kernel_error", "kernel_nan",
                    "latency")
    poison_rank: int | None = None


@dataclass
class WorkloadConfig:
    """Knobs of one synthetic serving workload.

    Attributes
    ----------
    n_requests / rate_rps / zipf_s / seed:
        Open-loop traffic shape: request count, Poisson arrival rate
        (requests per virtual second), Zipf popularity exponent over
        the matrix pool, RNG seed.  ``rate_rps=None`` auto-picks a rate
        that saturates the modeled device (~4x its unbatched capacity).
    n_matrices / dtype / device:
        Pool size (taken from the representative suite in order) and
        the modeled precision/hardware.
    max_batch / flush_timeout_s:
        Batching policy (``max_batch=1`` is the request-at-a-time
        baseline).
    cache_budget_bytes / plan_cache:
        Plan-registry byte budget; ``plan_cache=False`` rebuilds the
        plan for every batch (the re-preprocessing baseline).
    queue_depth:
        Bounded device backlog (flushed-but-unstarted batches); arrivals
        beyond it are rejected.
    deadline_s / retry / breaker / fallback / chaos:
        Resilience knobs (virtual-time deadlines per request, retry
        policy for transient kernel failures, circuit-breaker
        thresholds, merge-CSR degradation on/off, fault mix).  All
        inert by default: with ``chaos=None`` and ``deadline_s=None``
        the driver behaves exactly like the resilience-free baseline.
    shards / shard_workers:
        Row sharding (:mod:`repro.shard`): ``shards=None`` keeps the
        single-kernel path, an integer partitions every pool matrix
        into that many nnz-balanced row bands, ``"auto"`` picks the
        count per matrix from the makespan cost model.  A sharded
        batch is charged the LPT makespan of its per-shard modeled
        times over ``shard_workers`` concurrent lanes instead of the
        single-chain time.
    store / warm_start:
        Durable plan tier (:class:`repro.store.PlanStore` or a
        path-like): builds write through as ``.daspz`` artifacts and
        cache misses try a disk load first, charging the *modeled*
        load time instead of the rebuild.  ``warm_start=True``
        additionally warms every pool matrix before traffic starts
        (:meth:`ReplicaSim.warm`): its artifact is preloaded off the
        virtual clock, like a server restarting from its previous
        run's store — or, with the warmer on, it is acquired
        speculatively on the prefetch lane.
    pipeline:
        Async pipelined execution (:mod:`repro.pipeline`): ``True`` or
        a :class:`~repro.pipeline.PipelineConfig` charges cold-matrix
        plan loads/builds to a modeled prefetch lane instead of the
        device clock — the batch parks until the lane finishes while
        the device keeps executing resident matrices — and prices
        shard bands / SpMM column tiles with the double-buffered
        overlap schedule.  Results are bitwise-identical to
        pipeline-off; only the timeline changes.  ``False`` (default)
        keeps the pre-pipeline driver bit-exactly.
    warmer:
        Speculative plan warmer (``True`` or a
        :class:`~repro.pipeline.WarmerConfig`): watches the Zipf
        popularity estimate from the run's obs counters and
        preloads/prebuilds not-yet-requested pool matrices on the
        prefetch lane (:meth:`ExecutionCore.warm`: the store's
        load-vs-rebuild gate picks a load or a rebuild).  Implies the
        prefetch lane even when ``pipeline`` is off.
    spmm_mix / spmm_ks:
        Large-k SpMM traffic: ``spmm_mix`` is the fraction of requests
        issued as :class:`~repro.serve.SpMMRequest` blocks (bypassing
        the coalescing batcher, exactly like the real server), with
        ``k`` drawn uniformly from ``spmm_ks``.  The mix uses a
        dedicated RNG stream (``seed + 13``), drawn only when the mix
        is nonzero — an SpMV-only workload stays bit-identical to the
        pre-mix driver.
    update_mix / structural_frac / update_entries:
        Dynamic-matrix traffic: ``update_mix`` is the fraction of
        arrival slots that carry a matrix *delta* instead of a read —
        the replica patches the resident plan through
        :meth:`repro.serve.PlanRegistry.update` (advancing the version
        chain; queued reads drain against their pinned version) rather
        than rebuilding it.  ``structural_frac`` of the updates change
        the sparsity pattern (:class:`repro.core.StructuralUpdate`);
        the rest touch values only.  Deltas draw ``update_entries``
        coordinates each from a dedicated RNG stream (``seed + 17``),
        touched only when the mix is nonzero — a static workload stays
        bit-identical to the pre-delta driver.
    """

    n_requests: int = 2000
    rate_rps: float | None = None
    zipf_s: float = 1.1
    seed: int = 2023
    n_matrices: int = 4
    dtype: str = "float64"
    device: str = "A100"
    max_batch: int = MMA_N
    flush_timeout_s: float = DEFAULT_FLUSH_TIMEOUT_S
    cache_budget_bytes: int = DEFAULT_BUDGET_BYTES
    plan_cache: bool = True
    queue_depth: int = 256
    entries: list = field(default_factory=list)  # overrides the suite pool
    deadline_s: float | None = None
    retry: RetryPolicy = field(default_factory=RetryPolicy)
    breaker: BreakerConfig = field(default_factory=BreakerConfig)
    fallback: bool = True
    chaos: ChaosConfig | None = None
    shards: int | str | None = None
    shard_workers: int = 4
    store: object = None
    warm_start: bool = False
    pipeline: PipelineConfig | bool = False
    warmer: WarmerConfig | bool = False
    spmm_mix: float = 0.0
    spmm_ks: tuple = (16, 32, 64)
    update_mix: float = 0.0
    structural_frac: float = 0.3
    update_entries: int = 8


def zipf_weights(n: int, s: float) -> np.ndarray:
    """Normalized Zipf popularity over ``n`` ranked items."""
    check(n >= 1, "need at least one item")
    w = np.arange(1, n + 1, dtype=np.float64) ** -float(s)
    return w / w.sum()


def _resolve_pipeline(cfg: WorkloadConfig) -> PipelineConfig | None:
    """Normalize the ``pipeline`` field (bool shorthand) to a config."""
    if isinstance(cfg.pipeline, PipelineConfig):
        return cfg.pipeline
    return PipelineConfig() if cfg.pipeline else None


def _resolve_warmer(cfg: WorkloadConfig) -> WarmerConfig | None:
    """Normalize the ``warmer`` field (bool shorthand) to a config."""
    if isinstance(cfg.warmer, WarmerConfig):
        return cfg.warmer
    return WarmerConfig() if cfg.warmer else None


def _modeled_for(cfg: WorkloadConfig, device) -> CostModel:
    """The run's memoized cost model (shareable across replicas)."""
    pcfg = _resolve_pipeline(cfg)
    return CostModel(
        device, workers=cfg.shard_workers,
        double_buffer=pcfg.double_buffer if pcfg is not None else False)


def _matrix_pool(cfg: WorkloadConfig):
    """Build the (fingerprint-keyed) CSR pool for the workload."""
    if cfg.entries:
        entries = cfg.entries
    else:
        from ..matrices import representative_suite

        check(cfg.n_matrices >= 1, "n_matrices must be >= 1")
        entries = representative_suite()[:cfg.n_matrices]
    dtype = np.dtype(cfg.dtype)
    pool = []
    for e in entries:
        csr = e.matrix().astype(dtype)
        pool.append((e.name, matrix_fingerprint(csr), csr))
    return pool


def _build_injector(cfg: WorkloadConfig, pool) -> FaultInjector | None:
    chaos = cfg.chaos
    if chaos is None:
        return None
    plan = FaultPlan.chaos_mix(chaos.fault_rate, seed=chaos.seed,
                               latency_s=CHAOS_LATENCY_US * 1e-6,
                               kinds=chaos.kinds)
    if chaos.poison_rank is not None:
        check(0 <= chaos.poison_rank < len(pool),
              "poison_rank outside the matrix pool")
        plan.rules.append(FaultRule(
            kind="kernel_error", rate=1.0,
            fingerprint=pool[chaos.poison_rank][1]))
    return FaultInjector(plan)


class ReplicaSim:
    """One modeled serving replica in virtual time.

    A thin shell around :class:`~repro.serve.execute.ExecutionCore`:
    it supplies the virtual clock (``device_free``), the modeled
    executor and the outcome hooks (the ``completed`` list and hedge
    pairs), and owns the event-loop state the core does not — the
    bounded backlog, a :class:`RequestBatcher`, a :class:`PlanRegistry`
    (optionally backed by a :class:`repro.store.PlanStore`), a
    :class:`CircuitBreaker`, plan-prefetch parking and the per-replica
    :class:`ServerStats`.

    It is also the single-replica *front* of :func:`replay`
    (``advance_to`` / ``offer`` / ``apply_update`` / ``drain`` and
    ``csr_by_fp``).  :func:`run_workload` drives exactly one instance;
    the cluster driver drives N of them behind a consistent-hash
    router, each with its own ``obs`` handle so queue-depth gauges and
    breaker counters stay per-replica (the signals
    :class:`repro.cluster.ReplicaHealth` consumes).  A simulated
    request only gets ``completion_s`` stamped, never a result vector,
    which keeps million-request cluster replays cheap.

    Parameters
    ----------
    cfg:
        The :class:`WorkloadConfig` whose serving knobs (batching,
        cache budget, queue depth, resilience) this replica applies.
    device / dtype:
        Resolved device object and numpy dtype (shared by the run).
    pool:
        ``(name, fingerprint, csr)`` triples of the matrix pool.
    obs:
        Per-replica observability handle (fresh private one when
        omitted).
    injector:
        Optional per-replica :class:`FaultInjector`.
    retry_rng:
        Retry-jitter RNG stream; *shared* across the run's replicas so
        the N=1 cluster draws exactly the single-driver sequence.
    modeled:
        Memoized :class:`~repro.serve.execute.CostModel`; shareable
        across replicas (plan costs are deterministic per version).
    store:
        Optional disk tier for this replica's plan registry (a
        :class:`repro.store.PlanStore` or a path-like; replicas of one
        cluster each open their own instance over a shared directory).
    replica_id:
        Stable identifier used in cluster routing and span attribution.
    time_scale:
        Multiplier on every modeled device second this replica charges
        (kernels, preprocessing, fallback) — the ``slow_replica`` chaos
        scenario: a straggler that is alive and correct, just slow.
    overload:
        Shared :class:`repro.overload.OverloadContext` of the run
        (cluster-wide retry budget, hedge counters and pair
        accounting); ``None`` keeps all overload machinery inert.
    """

    def __init__(self, cfg: WorkloadConfig, *, device, dtype, pool,
                 obs: Obs | None = None, injector=None, retry_rng=None,
                 modeled: CostModel | None = None, store=None,
                 replica_id: str = "r0", time_scale: float = 1.0,
                 overload=None) -> None:
        check(cfg.queue_depth >= 1, "queue_depth must be >= 1")
        if obs is None or not obs.enabled:
            obs = Obs()
        self.cfg = cfg
        self.device = device
        self.dtype = dtype
        self.obs = obs
        self.replica_id = replica_id
        if injector is not None:
            injector.bind(obs)
        self.registry = PlanRegistry(cfg.cache_budget_bytes,
                                     fault_injector=injector, obs=obs,
                                     store=store, device=device)
        self.batcher = RequestBatcher(cfg.max_batch, cfg.flush_timeout_s)
        self.stats = ServerStats(device=device.name, dtype=str(dtype), obs=obs)
        self.breaker = CircuitBreaker(cfg.breaker, obs=obs)
        self.overload = overload
        self.clock = VirtualClock(time_scale)
        self.core = ExecutionCore(
            device=device, registry=self.registry, stats=self.stats, obs=obs,
            cost=modeled if modeled is not None
            else _modeled_for(cfg, device),
            clock=self.clock, executor=ModeledExecutor(), outcomes=self,
            matrices={fp: csr for _, fp, csr in pool}, batcher=self.batcher,
            breaker=self.breaker, injector=injector, retry=cfg.retry,
            retry_rng=retry_rng if retry_rng is not None
            else default_rng(cfg.seed + 1),
            retry_budget=overload.retry_budget if overload is not None
            else None,
            fallback=cfg.fallback, shards=cfg.shards,
            shard_workers=cfg.shard_workers, shard_k=cfg.max_batch,
            plan_cache=cfg.plan_cache)
        #: fingerprint -> head CSR (the core's; :meth:`apply_update` moves it)
        self.csr_by_fp = self.core.matrices
        self.backlog: deque = deque()  # flushed batches awaiting the device
        self.completed: list[SpMVRequest] = []
        # --- async pipeline / speculative warming state ---------------
        self.pipeline_cfg = _resolve_pipeline(cfg)
        warmer_cfg = _resolve_warmer(cfg)
        # the warmer needs a lane to charge speculative loads to, even
        # with the request pipeline itself off
        if self.pipeline_cfg is not None or warmer_cfg is not None:
            lanes = self.pipeline_cfg.lanes if self.pipeline_cfg else 1
            self._lane = PrefetchLane(obs=obs, lanes=lanes)
            self._parked_total = obs.counter("pipeline.parked_total")
        else:
            self._lane = None
        if warmer_cfg is not None:
            self._warmer = SpeculativeWarmer(warmer_cfg, obs=obs)
            for _, fp, _csr in pool:
                self._warmer.register(fp)
        else:
            self._warmer = None
        #: fingerprint -> modeled completion time of an in-flight plan
        #: acquisition on the lane.  The plan is already resident on
        #: the Python side (the sim is single-threaded); batches must
        #: still park until the lane clock says the load finished.
        self._prefetching: dict[str, float] = {}
        self._parked: list[tuple[float, int, Batch]] = []
        self._park_seq = 0

    @property
    def device_free(self) -> float:
        """When the modeled device next idles (the virtual clock)."""
        return self.clock.free

    @device_free.setter
    def device_free(self, value: float) -> None:
        self.clock.free = value

    # ------------------------------------------------------------------
    # signals (consumed by the cluster health monitor)
    # ------------------------------------------------------------------
    @property
    def backlog_depth(self) -> int:
        """Flushed-but-unstarted batches (the queue-depth signal)."""
        return len(self.backlog)

    def signals(self) -> dict:
        """Raw health signals, shaped like :meth:`SpMVServer.signals`."""
        return {"queue_depth": self.backlog_depth,
                "open_circuits": self.breaker.open_count(),
                "deadline_exceeded": self.stats.n_deadline_exceeded,
                "requests": self.stats.n_requests}

    # ------------------------------------------------------------------
    # plan acquisition off the device clock
    # ------------------------------------------------------------------
    def warm(self, fingerprints, now: float | None = None) -> None:
        """Acquire *fingerprints*' plans ahead of demand — the one entry
        point for startup warm-start, ring warm-up, elastic re-warm and
        warmer ticks.

        Each plan goes through :meth:`ExecutionCore.warm`.  At startup
        (``now`` is ``None``: no clock runs yet) that is the store-only
        preload, off the virtual clock (a restart reading its previous
        run's artifacts), with or without the warmer.  Later, with the
        speculative warmer on, it is the speculative acquisition (gated
        store load, else build), its seconds booked on the prefetch
        lane from *now*; without the warmer, the preload again.  The
        warmer registers every fingerprint either way."""
        # the warmer implies a lane
        speculative = self._warmer is not None and now is not None
        for fp in fingerprints:
            if self._warmer is not None:
                self._warmer.register(fp)
            if fp in self._prefetching:
                continue
            got = self.core.warm(fp, build=speculative)
            if got is not None and speculative:
                self._book(fp, now, *got)

    def _prefetch(self, fp: str, now: float) -> None:
        """Pipeline mode: a request's cold plan acquisition, moved from
        the device clock to the prefetch lane.

        This is the demand path's :meth:`ExecutionCore.fetch` (a demand
        miss, counted as one); batches needing the plan park until the
        lane's completion time.  A failure counts
        ``pipeline.warm_failed_total``; the batch's own acquisition
        retries (and pays) later."""
        try:
            _, source, seconds = self.core.fetch(fp, self.core.current_key(fp))
        except ReproError:
            self.obs.counter("pipeline.warm_failed_total").inc()
            return
        if source != "ram":
            self._book(fp, now, "build" if source == "built" else "load",
                       seconds)

    def _book(self, fp: str, now: float, kind: str, seconds: float) -> None:
        """Book one plan acquisition on the prefetch lane."""
        self._prefetching[fp] = self._lane.schedule(now, seconds, kind=kind)

    def _park_if_pending(self, batch, fp: str) -> bool:
        """Park *batch* while its plan is still in flight on the lane.

        Returns True when parked; the device stays free for batches of
        resident matrices — the pipelining win."""
        ready = self._prefetching.get(fp)
        if ready is None:
            return False
        if ready > max(self.device_free, batch.formed_s):
            self._parked.append((ready, self._park_seq, batch))
            self._park_seq += 1
            self._parked_total.inc()
            return True
        self._prefetching.pop(fp, None)
        return False

    def _release_parked(self, now: float) -> None:
        """Re-enqueue parked batches whose plan acquisition finished."""
        due = [e for e in self._parked if e[0] <= now]
        if not due:
            return
        due.sort()
        self._parked = [e for e in self._parked if e[0] > now]
        for ready, _seq, batch in due:
            self._prefetching.pop(batch.fingerprint, None)
            # the batch cannot start before its plan is usable
            batch.formed_s = max(batch.formed_s, ready)
            self.backlog.append(batch)

    # ------------------------------------------------------------------
    # dynamic matrices — delta application
    # ------------------------------------------------------------------
    def apply_update(self, fp: str, delta, now: float, *,
                     persist: bool = True, derivations: dict | None = None
                     ) -> int:
        """Apply one matrix *delta* at virtual time *now*
        (:meth:`ExecutionCore.update`: fence, patch, charge, head move)
        and queue the fenced batch of pending reads on the backlog.
        Returns the new version (0 on the no-cache path)."""
        version, fence = self.core.update(fp, delta, now, persist=persist,
                                          derivations=derivations)
        if fence is not None:
            self.enqueue([fence])
        return version

    # ------------------------------------------------------------------
    # batch execution: outcome hooks of the shared core
    # ------------------------------------------------------------------
    @staticmethod
    def _side(req: SpMVRequest) -> str:
        return "hedge" if req.shadow else "primary"

    def terminal(self, reqs) -> int:
        """How many of *reqs* are terminal *logical* failures.

        Pair-less requests always are; a hedged copy only when its
        failure is the pair's second (both copies dead, neither won) —
        so each logical request gets exactly one counted outcome no
        matter how its two copies fare."""
        if self.overload is None:
            return len(reqs)
        return sum(1 for r in reqs
                   if r.pair is None or r.pair.mark_failed(self._side(r)))

    def settle(self, batch, Y, done: float, degraded: bool) -> list:
        """Stamp completions; returns the requests that win (the first
        processed copy of a hedge pair — the loser's device time is
        burned but produces no user-visible outcome)."""
        for req in batch.requests:
            req.completion_s = done
        ctx = self.overload
        if ctx is None:
            return batch.requests
        winners = []
        for req in batch.requests:
            if req.pair is None or req.pair.resolve(self._side(req)):
                if req.pair is not None and req.shadow:
                    ctx.hedges_won.inc()
                winners.append(req)
            else:
                ctx.hedges_wasted.inc()
        return winners

    def deliver(self, reqs, error=None) -> None:
        if error is None:
            self.completed.extend(reqs)

    def _run_one(self, batch) -> None:
        """Execute one batch on the modeled device, chaos included."""
        if self._lane is not None and self._park_if_pending(
                batch, batch.fingerprint):
            return
        if self.overload is not None:
            # drop copies whose hedge pair the other replica already
            # won — first-wins cancellation before any work or expiry
            # accounting happens here
            live = []
            for r in batch.requests:
                if r.pair is not None and r.pair.cancelled(self._side(r)):
                    self.overload.hedges_wasted.inc()
                else:
                    live.append(r)
            batch.requests = live
            if not batch.requests:
                return
        self.core.execute(batch)

    # ------------------------------------------------------------------
    # virtual-time event loop hooks
    # ------------------------------------------------------------------
    def start_batches(self, now: float) -> None:
        """Run every backlog batch whose start time has been reached."""
        while True:
            if self._parked:
                self._release_parked(now)
            if not self.backlog or self.device_free > now:
                return
            self._run_one(self.backlog.popleft())

    def enqueue(self, batches) -> None:
        for b in batches:
            self.backlog.append(b)

    def advance_to(self, now: float) -> None:
        """Process every timeout flush and device start due before *now*."""
        while True:
            deadline = self.batcher.next_deadline()
            if deadline >= now:
                break
            # nextafter guards against (arrival + timeout) - arrival
            # rounding below the timeout and stalling the flush
            batches = self.batcher.due(np.nextafter(deadline, np.inf))
            if not batches:
                break
            self.enqueue(batches)
            self.start_batches(deadline)
        self.start_batches(now)

    def offer(self, req: SpMVRequest, now: float) -> bool:
        """Admit one request (False = rejected under backpressure)."""
        self.stats.observe_request()
        if len(self.backlog) >= self.cfg.queue_depth:
            self.stats.observe_rejected()
            return False
        # pin the request to the matrix version current at admission;
        # updates landing while it queues must not change its answer
        req.version = self.registry.version_of(req.fingerprint)
        if self._warmer is not None:
            self._warmer.observe(req.fingerprint)
            self.warm(self._warmer.due(resident=lambda f: (
                f in self._prefetching or self.core.resident(f))), now)
        if self.pipeline_cfg is not None and self.cfg.plan_cache \
                and req.fingerprint not in self._prefetching \
                and not self.core.resident(req.fingerprint):
            self._prefetch(req.fingerprint, now)
        if isinstance(req, SpMMRequest):
            # an SpMM block already is a batch; bypass the coalescer
            self.enqueue([Batch(req.fingerprint, [req], now)])
        else:
            full = self.batcher.add(req, now)
            if full is not None:
                self.enqueue([full])
        ctx = self.overload
        if ctx is not None and ctx.retry_budget is not None and not req.shadow:
            ctx.retry_budget.on_request()
        return True

    def drain(self, last_arrival: float) -> float:
        """End of arrivals: flush stragglers and let the device empty.

        Returns the virtual end time (last arrival or last flush
        deadline, whichever is later) and leaves ``stats.duration_s``
        set to the final completion time."""
        end = float(last_arrival)
        while True:
            deadline = self.batcher.next_deadline()
            if deadline == float("inf"):
                break
            batches = self.batcher.due(np.nextafter(deadline, np.inf))
            if not batches:
                break
            self.enqueue(batches)
            end = max(end, deadline)
        self.enqueue(self.batcher.flush_all(end))
        self.device_free = max(self.device_free, end)
        self.start_batches(float("inf"))
        self.stats.duration_s = max(
            (r.completion_s for r in self.completed), default=end)
        # Cache, breaker and fault counters already live in the shared
        # registry (one source of truth); only the non-counter breaker
        # state map is copied for the report.
        self.stats.breaker_state = self.breaker.snapshot()
        return end


def auto_rate(pool, modeled: CostModel, *, replicas: int = 1) -> float:
    """Saturating default offered rate: 4x the unbatched modeled
    capacity of the most popular matrix per replica (open-loop overload
    is the regime where batching pays; an idle server degenerates to
    singletons).  Built directly — going through a registry would
    pollute the cache/store counters the run reports, and the probe
    must give the same rate (hence the same traffic trace) whether or
    not a warm-start already populated the cache.  It is priced on a
    throwaway :class:`CostModel` on *modeled*'s device: the run's
    shared memo must hold only the plans batches actually execute (a
    sharded run's matrix 0 is charged its sharded makespan)."""
    plan0 = DASPMatrix.from_csr(pool[0][2])
    t1 = CostModel(modeled.device).batch_cost(pool[0][1], plan0, 1)[0]
    return 4.0 * replicas / t1


class Traffic:
    """One workload's arrival stream, drawn once from ``(cfg, pool, rate)``.

    It owns the traffic range checks and every traffic RNG stream, each
    drawn only when its mix is on — a disabled feature consumes no
    randomness, so the remaining streams (and every modeled number)
    stay bit-identical:

    * ``seed`` — Poisson gaps, then Zipf matrix choices, then one x
      vector per pool matrix (requests reuse them: the driver models
      traffic, the numeric path is covered by the server tests);
    * ``seed + 13`` — which slots are SpMM blocks, their ``k``, and the
      X blocks, drawn on first use (``spmm_mix > 0``);
    * ``seed + 7`` — batch-priority tags, drawn only when the caller
      passes a *batch_fraction* (the cluster's overload layer);
    * ``seed + 17`` — which slots carry a matrix delta, and the deltas
      themselves (``update_mix > 0``).
    """

    def __init__(self, cfg: WorkloadConfig, pool, rate: float, *,
                 batch_fraction: float | None = None) -> None:
        check(cfg.n_requests >= 1, "n_requests must be >= 1")
        check(rate > 0.0, "rate_rps must be > 0")
        check(0.0 <= cfg.spmm_mix <= 1.0, "spmm_mix must be in [0, 1]")
        check(0.0 <= cfg.update_mix < 1.0, "update_mix must be in [0, 1)")
        n = cfg.n_requests
        self.cfg = cfg
        self.pool = pool
        self.dtype = dtype = np.dtype(cfg.dtype)
        rng = default_rng(cfg.seed)
        self.arrivals = np.cumsum(rng.exponential(1.0 / rate, n))
        self.choices = rng.choice(len(pool), size=n,
                                  p=zipf_weights(len(pool), cfg.zipf_s))
        self.xs = {fp: rng.uniform(-1, 1, csr.shape[1]).astype(dtype)
                   for _, fp, csr in pool}
        self.is_spmm = None
        if cfg.spmm_mix > 0.0:
            check(len(cfg.spmm_ks) >= 1, "spmm_ks must be non-empty")
            self._spmm_rng = default_rng(cfg.seed + 13)
            self.is_spmm = self._spmm_rng.random(n) < cfg.spmm_mix
            self._k_idx = self._spmm_rng.integers(0, len(cfg.spmm_ks), size=n)
            self._xblocks: dict[tuple[str, int], np.ndarray] = {}
        self.is_batch = None
        if batch_fraction is not None:
            self.is_batch = default_rng(cfg.seed + 7).random(n) < batch_fraction
        self.is_update = None
        if cfg.update_mix > 0.0:
            self._delta_rng = default_rng(cfg.seed + 17)
            self.is_update = self._delta_rng.random(n) < cfg.update_mix

    @property
    def end(self) -> float:
        """Virtual time of the last arrival slot."""
        return float(self.arrivals[-1])

    def slots(self, csr_by_fp):
        """Yield ``(now, fingerprint, request, delta)`` per arrival slot.

        Exactly one of *request* (deadline and priority set) and
        *delta* is not ``None``.  A delta is drawn when its slot is
        reached, against ``csr_by_fp[fingerprint]`` — the caller's
        matrix at the head of its version chain, which only the
        caller's ``apply_update`` of an earlier slot moves."""
        cfg = self.cfg
        for i, now in enumerate(self.arrivals.tolist()):
            _, fp, csr = self.pool[self.choices[i]]
            if self.is_update is not None and self.is_update[i]:
                structural = bool(self._delta_rng.random()
                                  < cfg.structural_frac)
                yield now, fp, None, random_delta(
                    csr_by_fp[fp], self._delta_rng, structural=structural,
                    n_entries=cfg.update_entries)
                continue
            kw = dict(req_id=i, fingerprint=fp, arrival_s=now,
                      deadline_s=(now + cfg.deadline_s
                                  if cfg.deadline_s is not None
                                  else float("inf")),
                      priority=("batch" if self.is_batch is not None
                                and self.is_batch[i] else "interactive"))
            if self.is_spmm is not None and self.is_spmm[i]:
                k = int(cfg.spmm_ks[self._k_idx[i]])
                X = self._xblocks.get((fp, k))
                if X is None:
                    X = self._spmm_rng.uniform(
                        -1, 1, (csr.shape[1], k)).astype(self.dtype)
                    self._xblocks[(fp, k)] = X
                yield now, fp, SpMMRequest(x=X, **kw), None
            else:
                yield now, fp, SpMVRequest(x=self.xs[fp], **kw), None


def replay(traffic: Traffic, front) -> float:
    """The one arrival loop of both virtual-time drivers.

    *front* is a :class:`ReplicaSim` or a cluster (``advance_to``,
    ``offer``, ``apply_update``, ``drain`` and ``csr_by_fp``).  Every
    slot first advances the front to its arrival time, then offers the
    request or applies the delta; the end drains the front.  Returns
    the virtual end time ``front.drain`` reports."""
    for now, fp, req, delta in traffic.slots(front.csr_by_fp):
        front.advance_to(now)
        if delta is None:
            front.offer(req, now)
        else:
            front.apply_update(fp, delta, now)
    return front.drain(traffic.end)


def run_workload(cfg: WorkloadConfig, *, obs: Obs | None = None) -> ServerStats:
    """Simulate *cfg* and return the populated :class:`ServerStats`.

    ``obs`` is the run's observability handle (fresh private one by
    default); the plan registry, breaker, injector and stats facade all
    share it.  Pass one carrying a :class:`repro.obs.Tracer` to record
    ``batch -> preprocess / kernel / fallback`` span trees in *virtual*
    clock coordinates — the simulation itself stays bit-identical, as
    instrumentation never touches the RNG streams or modeled times.
    """
    if obs is None or not obs.enabled:
        obs = Obs()
    device = get_device(cfg.device)
    pool = _matrix_pool(cfg)
    modeled = _modeled_for(cfg, device)
    replica = ReplicaSim(cfg, device=device, dtype=np.dtype(cfg.dtype),
                         pool=pool, obs=obs,
                         injector=_build_injector(cfg, pool),
                         modeled=modeled, store=cfg.store)
    if cfg.warm_start:
        replica.warm([fp for _, fp, _csr in pool])
    rate = cfg.rate_rps if cfg.rate_rps is not None \
        else auto_rate(pool, modeled)
    replay(Traffic(cfg, pool, rate), replica)
    return replica.stats


def compare_batched_unbatched(cfg: WorkloadConfig, *,
                              obs: Obs | None = None) -> dict[str, ServerStats]:
    """Run *cfg* batched and as request-at-a-time; same traffic trace.

    ``obs`` (if given) observes the *batched* run — the one whose trace
    the comparison is about; the unbatched baseline keeps its private
    handle so the two runs' counters never mix.
    """
    batched = run_workload(cfg, obs=obs)
    unbatched = run_workload(replace(cfg, max_batch=1))
    return {"batched": batched, "unbatched": unbatched}
