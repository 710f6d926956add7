"""Cluster driver — the virtual-time workload replayed over N replicas.

Extends the single-replica driver (:func:`repro.serve.run_workload`) to
a cluster-in-a-process: N :class:`~repro.serve.driver.ReplicaSim`
replicas behind a consistent-hash ring, a probe loop feeding the
hysteresis health monitor, health-aware failover, ring-scoped
warm-start from a shared :class:`~repro.store.PlanStore`, and
(optionally) elastic scaling from queue-depth signals.

Everything stays **bit-deterministic** for a given config: traffic is
drawn once by :class:`~repro.serve.driver.Traffic` and replayed through
the shared :func:`~repro.serve.driver.replay` loop with the cluster as
its front, replicas execute sequentially in virtual time, health probes
only *read* replica state, and all hashing is seeded blake2b.  Two
properties the tests pin:

* **N=1 exact parity** — with one replica, every stat the cluster
  reports (latencies included) is bit-identical to
  :func:`repro.serve.run_workload` on the same config, because both
  run the same traffic draw and arrival loop over the same
  :class:`ReplicaSim` core;
* **scale-out** — the default offered rate is per-replica
  (``N``x the single-replica saturating rate), so modeled aggregate
  throughput grows ~linearly with N on a Zipf workload, and stays
  ≥3x at N=4 even with one replica fault-injected unhealthy (its
  traffic reroutes via the ring preference walk).

The driver can replay millions of requests: simulated replicas never
materialize result vectors and request objects are transient.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._util import check, default_rng
from ..gpu.device import get_device
from ..obs import Obs
from ..overload import PRIORITIES, HedgePair, OverloadConfig, OverloadContext
from ..resilience import FaultInjector, FaultPlan, FaultRule
from ..serve.batcher import SpMVRequest
from ..serve.driver import (
    ReplicaSim,
    Traffic,
    WorkloadConfig,
    _build_injector,
    _matrix_pool,
    _modeled_for,
    auto_rate,
    replay,
)
from ..serve.stats import ServerStats
from .health import HealthConfig, ReplicaHealth
from .placement import Placement
from .ring import DEFAULT_VNODES, HashRing


@dataclass(frozen=True)
class ElasticConfig:
    """Queue-depth-driven elastic scaling policy.

    Scale up (spawn a replica, rebalance the ring minimally, re-warm
    the moved fingerprints from the store) when the mean backlog across
    active replicas is at least ``scale_up_depth`` at a probe; scale
    down (drain the newest spawned replica back out) when it is at most
    ``scale_down_depth``.  ``cooldown_s`` virtual seconds must pass
    between actions so one burst cannot thrash the membership.
    """

    min_replicas: int = 1
    max_replicas: int = 8
    scale_up_depth: float = 8.0
    scale_down_depth: float = 0.25
    cooldown_s: float = 0.005

    def __post_init__(self) -> None:
        check(self.min_replicas >= 1, "min_replicas must be >= 1")
        check(self.max_replicas >= self.min_replicas,
              "max_replicas must be >= min_replicas")
        check(self.scale_up_depth > self.scale_down_depth,
              "scale_up_depth must exceed scale_down_depth")
        check(self.cooldown_s >= 0.0, "cooldown_s must be >= 0")


@dataclass
class ClusterConfig(WorkloadConfig):
    """One cluster workload: the single-replica knobs plus placement.

    The traffic knobs inherited from :class:`WorkloadConfig` are drawn
    and range-checked by the same :class:`~repro.serve.driver.Traffic`
    as the single-replica driver.  The cluster driver replays SpMV
    reads (and matrix updates) only: an inherited ``spmm_mix > 0`` is
    rejected rather than ignored.

    Attributes
    ----------
    n_replicas:
        Initial replica count.  ``rate_rps=None`` auto-scales the
        offered rate to ``n_replicas`` x the single-replica saturating
        default, so each N is loaded equally per replica.
    vnodes / ring_seed:
        Consistent-hash ring construction (:class:`HashRing`).
    health:
        :class:`HealthConfig` hysteresis thresholds for routing.
    probe_interval_s:
        Virtual seconds between health probes, > 0 (``None`` derives
        ~200 probes over the expected run).
    fail_replica / fail_rate:
        Fault-inject one replica (by index) with transient kernel
        errors at ``fail_rate`` — the unhealthy-failover gate: its
        breakers open, health marks it down, traffic reroutes.
    elastic:
        Optional :class:`ElasticConfig`; ``None`` keeps membership
        fixed.
    overload:
        Optional :class:`repro.overload.OverloadConfig` activating
        admission control (shed at the router before any replica sees
        the request, batch priority first), a cluster-wide retry
        budget shared by every replica, and hedged requests (a shadow
        copy to the next preference replica when the primary's latency
        EWMA marks it a straggler; first completion wins).  ``None``
        keeps the run bit-identical to a pre-overload driver.
    slow_replica / slow_factor:
        Chaos scenario: multiply replica ``slow_replica``'s modeled
        device time by ``slow_factor`` — a straggler that stays alive
        and correct while dominating the tail.
    partition_replica / partition_window:
        Chaos scenario: drop the router↔replica link to
        ``partition_replica`` for the virtual-time window given as
        fractions of the total arrival span — no new traffic reaches
        it and its probes come back unreachable (tripping every health
        threshold) until the window closes and recovery begins.
    """

    n_replicas: int = 4
    vnodes: int = DEFAULT_VNODES
    ring_seed: int = 0
    health: HealthConfig = field(default_factory=HealthConfig)
    probe_interval_s: float | None = None
    fail_replica: int | None = None
    fail_rate: float = 1.0
    elastic: ElasticConfig | None = None
    overload: OverloadConfig | None = None
    slow_replica: int | None = None
    slow_factor: float = 4.0
    partition_replica: int | None = None
    partition_window: tuple = (0.25, 0.75)


@dataclass
class ClusterStats:
    """Aggregated result of one cluster run.

    ``replicas`` maps replica id -> that replica's full
    :class:`ServerStats` (its private metrics registry); the aggregate
    properties fold them together the way a load balancer's dashboard
    would.  ``duration_s`` is the cluster makespan (latest completion
    on any replica), so ``throughput_rps`` reflects wall-parallel
    replicas, not summed busy time.
    """

    replicas: dict[str, ServerStats]
    routed: dict[str, int]
    n_failover: int = 0
    #: Requests sent to a sick home as a last resort because every
    #: reachable replica was down (``cluster.driver.unroutable_total``).
    n_unroutable: int = 0
    n_probes: int = 0
    n_transitions_down: int = 0
    n_transitions_up: int = 0
    n_scale_up: int = 0
    n_scale_down: int = 0
    n_moved_fingerprints: int = 0
    health: dict = field(default_factory=dict)
    duration_s: float = 0.0
    #: Logical (per-request, hedge-shadow-free) accounting, filled on
    #: every run.  ``n_offered`` is the request count the workload
    #: generated; ``n_shed`` were turned away by admission control,
    #: ``n_rejected_logical`` by primary-replica backpressure,
    #: ``n_link_failed`` by a full partition.  ``overload_enabled``
    #: only decides what the summary table reports.
    overload_enabled: bool = False
    n_offered: int = 0
    #: Arrival slots that carried a matrix delta instead of a read
    #: (broadcast to every replica; never part of ``n_offered``).
    n_updates: int = 0
    n_shed: int = 0
    n_rejected_logical: int = 0
    n_link_failed: int = 0
    n_hedges_issued: int = 0
    n_hedges_won: int = 0
    n_hedges_wasted: int = 0
    retry_budget_granted: int = 0
    retry_budget_denied: int = 0
    n_retries: int = 0
    #: priority -> {"offered", "shed", "completed"} (overload runs only)
    priorities: dict = field(default_factory=dict)

    # ------------------------------------------------------------------
    def _sum(self, attr: str):
        return sum(getattr(s, attr) for s in self.replicas.values())

    @property
    def n_replicas(self) -> int:
        return len(self.replicas)

    @property
    def n_requests(self) -> int:
        return self._sum("n_requests")

    @property
    def n_completed(self) -> int:
        return self._sum("n_completed")

    @property
    def n_rejected(self) -> int:
        return self._sum("n_rejected")

    @property
    def n_failed(self) -> int:
        return self._sum("n_failed")

    @property
    def n_deadline_exceeded(self) -> int:
        return self._sum("n_deadline_exceeded")

    @property
    def degraded_requests(self) -> int:
        return self._sum("degraded_requests")

    @property
    def device_busy_s(self) -> float:
        return self._sum("device_busy_s")

    @property
    def throughput_rps(self) -> float:
        """Completed requests per virtual second of cluster makespan."""
        return (self.n_completed / self.duration_s
                if self.duration_s > 0 else 0.0)

    @property
    def in_deadline_fraction(self) -> float:
        """Offered requests answered in deadline (strict: rejected,
        expired and failed requests all count against it)."""
        offered = self.n_requests
        return (self.n_completed / offered) if offered > 0 else 1.0

    @property
    def lost_requests(self) -> int:
        """Logically offered requests with no terminal outcome.

        Every generated request must end exactly one way — completed,
        admission-shed, backpressure-rejected, expired, failed, or
        unroutable behind a partition; anything else is a lost future.
        Computed on every run (the conservation invariant holds with or
        without the overload layer); the summary table prints it on
        overload runs only."""
        accounted = (self.n_shed + self.n_rejected_logical
                     + self.n_link_failed + self.n_completed
                     + self.n_deadline_exceeded + self.n_failed)
        return self.n_offered - accounted

    def in_deadline_by_priority(self, priority: str) -> float:
        """Completed / offered for one admission class (overload runs).

        Admission-shed requests are *excluded* from the denominator:
        shedding is the controller doing its job, and the question this
        metric answers is how the traffic the cluster accepted fared."""
        p = self.priorities.get(priority)
        if not p:
            return float("nan")
        accepted = p["offered"] - p["shed"]
        return (p["completed"] / accepted) if accepted > 0 else 1.0

    def latency_percentiles(self, qs=(50.0, 95.0, 99.0)) -> dict[float, float]:
        """Percentiles over every completed request, all replicas."""
        merged = [lat for s in self.replicas.values()
                  for lat in s.latencies_s]
        if not merged:
            return {q: float("nan") for q in qs}
        arr = np.asarray(merged)
        return {q: float(np.percentile(arr, q)) for q in qs}

    def summary_table(self) -> str:
        from ..bench import markdown_table

        pct = self.latency_percentiles()
        rows = [
            ("replicas", str(self.n_replicas)),
            ("requests offered", f"{self.n_requests:,}"),
            ("completed", f"{self.n_completed:,}"),
            ("rejected / expired / failed",
             f"{self.n_rejected:,} / {self.n_deadline_exceeded:,} / "
             f"{self.n_failed:,}"),
            ("degraded", f"{self.degraded_requests:,}"),
            ("in-deadline fraction", f"{self.in_deadline_fraction:.4f}"),
            ("throughput", f"{self.throughput_rps:,.0f} req/s"),
            ("p50 / p95 / p99 latency",
             f"{pct[50.0] * 1e6:,.1f} / {pct[95.0] * 1e6:,.1f} / "
             f"{pct[99.0] * 1e6:,.1f} us"),
            ("failovers", f"{self.n_failover:,}"),
            ("health probes / down / up",
             f"{self.n_probes:,} / {self.n_transitions_down} / "
             f"{self.n_transitions_up}"),
            ("scale up / down / moved fps",
             f"{self.n_scale_up} / {self.n_scale_down} / "
             f"{self.n_moved_fingerprints}"),
            ("makespan", f"{self.duration_s:.4f} s"),
        ]
        if self.n_updates:
            rows.append(("matrix updates (broadcast)", f"{self.n_updates:,}"))
        if self.overload_enabled:
            prio = " ".join(
                f"{p}:{self.in_deadline_by_priority(p):.4f}"
                for p in sorted(self.priorities))
            rows += [
                ("offered / shed / link-failed",
                 f"{self.n_offered:,} / {self.n_shed:,} / "
                 f"{self.n_link_failed:,}"),
                ("hedges issued / won / wasted",
                 f"{self.n_hedges_issued:,} / {self.n_hedges_won:,} / "
                 f"{self.n_hedges_wasted:,}"),
                ("retry budget granted / denied",
                 f"{self.retry_budget_granted:,} / "
                 f"{self.retry_budget_denied:,}"),
                ("in-deadline by priority", prio or "-"),
                ("lost requests", f"{self.lost_requests:,}"),
            ]
        return markdown_table(("cluster metric", "value"), rows)


def _replica_injector(cfg: ClusterConfig, pool, index: int):
    """The fault injector for replica *index* (chaos mix, plus the
    always-on kernel-error rule when this is the fail-injected one)."""
    injector = _build_injector(cfg, pool)
    if cfg.fail_replica is not None and index == cfg.fail_replica:
        rule = FaultRule(kind="kernel_error", rate=cfg.fail_rate)
        if injector is None:
            seed = cfg.chaos.seed if cfg.chaos is not None else cfg.seed
            injector = FaultInjector(FaultPlan(rules=[rule],
                                               seed=seed + 101))
        else:
            injector.plan.rules.append(rule)
    return injector


class _Cluster:
    """The cluster front of :func:`~repro.serve.driver.replay`.

    Holds the mutable cluster state — replicas, placement, the probe
    and partition schedule laid over the arrival *span*, and the
    logical outcome tally — behind the same ``advance_to`` / ``offer``
    / ``apply_update`` / ``drain`` / ``csr_by_fp`` interface a single
    :class:`ReplicaSim` exposes.
    """

    def __init__(self, cfg: ClusterConfig, *, device, dtype, pool,
                 modeled, retry_rng, obs: Obs, span: float = 0.0) -> None:
        self.cfg = cfg
        self.device = device
        self.dtype = dtype
        self.pool = pool
        self.modeled = modeled
        self.retry_rng = retry_rng
        self.obs = obs
        self.overload = (OverloadContext(cfg.overload, obs=obs)
                         if cfg.overload is not None else None)
        self.placement = Placement(
            HashRing(vnodes=cfg.vnodes, seed=cfg.ring_seed),
            ReplicaHealth(cfg.health, obs=obs),
            self.overload.latency if self.overload is not None else None)
        self.ring = self.placement.ring
        self.replicas: dict[str, ReplicaSim] = {}
        self._spawned = 0
        self._routed = obs.counter("cluster.driver.routed_total")
        self._failover = obs.counter("cluster.driver.failover_total")
        self._unroutable = obs.counter("cluster.driver.unroutable_total")
        self._scale_up = obs.counter("cluster.driver.scale_up_total")
        self._scale_down = obs.counter("cluster.driver.scale_down_total")
        self._moved = obs.counter("cluster.driver.moved_fingerprints_total")
        self._rejected = obs.counter("cluster.overload.rejected_total")
        self._link_failed = obs.counter("cluster.overload.link_failed_total")
        self.probe_interval = (cfg.probe_interval_s
                               if cfg.probe_interval_s is not None
                               else max(span / 200.0, 1e-6))
        self._next_probe = self.probe_interval
        self._last_scale = float("-inf")  # cooldown gates between actions
        self.partitioned_rid = (f"r{cfg.partition_replica}"
                                if cfg.partition_replica is not None
                                else None)
        self._partition_s = tuple(f * span for f in cfg.partition_window)
        #: logical outcome -> count (``update`` = delta slots)
        self.outcomes = dict.fromkeys(
            ("shed", "rejected", "link_failed", "routed", "update"), 0)
        self.prio_offered = dict.fromkeys(PRIORITIES, 0)
        self.prio_shed = dict.fromkeys(PRIORITIES, 0)
        #: fingerprint -> latest derived version (``PlanRegistry.update``'s
        #: ``derivations`` memo): each broadcast delta is derived once
        self.derivations: dict = {}
        for _ in range(cfg.n_replicas):
            self.spawn(warm=False)

    # ------------------------------------------------------------------
    def spawn(self, now: float = 0.0, *, warm: bool = True) -> str:
        """Add one replica at *now*; with ``warm``, re-warm from *now*
        the fingerprints the ring moved onto it (:meth:`ReplicaSim.warm`)."""
        cfg = self.cfg
        index = self._spawned
        rid = f"r{index}"
        self._spawned += 1
        fps = [fp for _, fp, _ in self.pool]
        before = {fp: self.ring.lookup(fp) for fp in fps} \
            if (warm and len(self.ring)) else {}
        replica_obs = Obs(tracer=self.obs.tracer.bound(replica=rid)
                          if self.obs.tracing else None)
        time_scale = (cfg.slow_factor
                      if (cfg.slow_replica is not None
                          and index == cfg.slow_replica) else 1.0)
        replica = ReplicaSim(
            cfg, device=self.device, dtype=self.dtype, pool=self.pool,
            obs=replica_obs, injector=_replica_injector(cfg, self.pool, index),
            retry_rng=self.retry_rng, modeled=self.modeled, store=cfg.store,
            replica_id=rid, time_scale=time_scale, overload=self.overload)
        if self.replicas:
            # A replica spawned mid-run must see the *current* matrix
            # state, not the pristine pool: under an update stream the
            # deltas are drawn against the evolved CSRs, and replaying
            # e.g. a delete of a never-inserted entry would fault; its
            # chains start at its peers' versions (one key, one matrix).
            src = next(iter(self.replicas.values()))
            replica.csr_by_fp.update(src.csr_by_fp)
            for fp in fps:
                replica.registry.start_at(fp, src.registry.version_of(fp))
        self.replicas[rid] = replica
        self.ring.add(rid)
        if before:
            moved = [fp for fp in fps if self.ring.lookup(fp) != before[fp]]
            self._moved.inc(len(moved))
            if moved:
                replica.warm(moved, now)
        return rid

    def drain_replica(self, rid: str, now: float) -> None:
        """Remove *rid* from routing; it finishes its backlog in place.

        The replica object stays in :attr:`replicas` (it still advances
        with virtual time and its stats are reported); only the ring
        membership — hence new traffic — changes, and that rebalance
        moves exactly the keys the replica owned.
        """
        self.ring.remove(rid)
        self.placement.health.forget(rid)
        # flush its half-formed batches so parked requests complete
        replica = self.replicas[rid]
        replica.enqueue(replica.batcher.flush_all(now))

    # ------------------------------------------------------------------
    def active(self) -> list[str]:
        """Routable replica ids, in spawn order (deterministic)."""
        return [rid for rid in self.replicas if rid in self.ring]

    @property
    def csr_by_fp(self) -> dict:
        """The matrices deltas are drawn against — the first replica's;
        every version chain advances in lockstep."""
        return next(iter(self.replicas.values())).csr_by_fp

    def _sync_partition(self, t: float) -> None:
        if self.partitioned_rid is None:
            return
        start, end = self._partition_s
        if start <= t < end:
            self.placement.partitioned.add(self.partitioned_rid)
        else:
            self.placement.partitioned.discard(self.partitioned_rid)

    def _advance_all(self, now: float) -> None:
        self._sync_partition(now)
        for replica in self.replicas.values():
            replica.advance_to(now)

    def advance_to(self, now: float) -> None:
        """Run every probe tick due by *now* — partition sync, replicas
        advanced to the tick, probe, autoscale — then bring the link
        state and every replica to *now*."""
        while self._next_probe <= now:
            tick = self._next_probe
            self._advance_all(tick)
            self.probe()
            self._last_scale = self.autoscale(tick, self._last_scale)
            self._next_probe += self.probe_interval
        self._advance_all(now)

    def route(self, fp: str) -> str | None:
        """The placement's first choice for *fp* (``Placement.order``).

        Returns ``None`` only when every preference sits behind the
        partition.  A sick first choice means every reachable replica
        is down: it still gets the request (home beats dropping) and
        counts as unroutable.
        """
        order = self.placement.order(fp)
        if not order:
            return None
        target = order[0]
        if not self.placement.health.is_healthy(target):
            self._unroutable.inc()
        self._routed.inc()
        if target != self.ring.lookup(fp):
            self._failover.inc()
        return target

    def apply_update(self, fp: str, delta, now: float) -> None:
        """Broadcast one matrix delta to every replica.

        Updates are control-plane traffic: they reach *all* replicas —
        including partitioned and draining ones, whose data-plane link
        is what the chaos window cuts — so every version chain stays in
        lockstep and a delta stream drawn against one shared CSR
        history is valid everywhere.  Only the matrix's *home* replica
        (first ring preference) persists the delta to the shared store:
        concurrent writers would trip the store's version-contiguity
        invariant.  The next version is derived once and shared through
        :attr:`derivations`; each replica still charges its own patch.
        """
        prefs = self.ring.preference(fp)
        home = prefs[0] if prefs else None
        for rid, replica in self.replicas.items():
            replica.apply_update(fp, delta, now, persist=(rid == home),
                                 derivations=self.derivations)
        self.outcomes["update"] += 1

    def offer(self, req: SpMVRequest, now: float) -> None:
        """Offer one logical request and tally its outcome (per
        priority too on overload runs)."""
        outcome = self.submit(req, now)
        self.outcomes[outcome] += 1
        if self.overload is not None:
            self.prio_offered[req.priority] += 1
            if outcome == "shed":
                self.prio_shed[req.priority] += 1

    def drain(self, end: float) -> float:
        """End of arrivals: every replica flushes and empties."""
        for replica in self.replicas.values():
            replica.drain(end)
        return end

    def submit(self, req: SpMVRequest, now: float) -> str:
        """Route one logical request; returns its immediate outcome.

        One of ``"shed"`` (admission control turned it away),
        ``"link_failed"`` (every preference replica is partitioned),
        ``"rejected"`` (primary replica backpressure), or ``"routed"``
        (accepted — possibly alongside a hedge shadow on a second
        replica when the primary's latency EWMA marks it a straggler).
        """
        ctx = self.overload
        fp = req.fingerprint
        if (ctx is not None and ctx.admission is not None
                and not ctx.admission.try_admit(req.priority, now)):
            return "shed"
        target = self.route(fp)
        if target is None:
            self._link_failed.inc()
            return "link_failed"
        hedge_rid = None
        if (ctx is not None and ctx.hedge is not None
                and self.placement.latency.is_straggler(
                    target, factor=ctx.hedge.factor)):
            hedge_rid = self.placement.hedge_target(fp, target)
        if hedge_rid is None:
            if self.replicas[target].offer(req, now):
                return "routed"
            self._rejected.inc()
            return "rejected"
        pair = HedgePair(primary_rid=target, hedge_rid=hedge_rid)
        req.pair = pair
        if not self.replicas[target].offer(req, now):
            req.pair = None
            self._rejected.inc()
            return "rejected"
        shadow = SpMVRequest(
            req_id=req.req_id, fingerprint=req.fingerprint, x=req.x,
            arrival_s=req.arrival_s, deadline_s=req.deadline_s,
            priority=req.priority, pair=pair, shadow=True)
        if self.replicas[hedge_rid].offer(shadow, now):
            ctx.hedges_issued.inc()
        else:
            req.pair = None  # hedge rejected: back to a plain request
        return "routed"

    # ------------------------------------------------------------------
    def probe(self) -> None:
        """Fold every active replica's signals and completed latencies
        into the placement (a partitioned one reads as unreachable)."""
        for rid in self.active():
            replica = self.replicas[rid]
            self.placement.observe(rid, replica.signals(),
                                   replica.stats.latencies_s)

    def autoscale(self, now: float, last_action: float) -> float:
        """Apply the elastic policy at one probe; returns the new
        last-action time (unchanged when nothing happened)."""
        policy = self.cfg.elastic
        if policy is None or now - last_action < policy.cooldown_s:
            return last_action
        active = self.active()
        depths = [self.replicas[rid].backlog_depth for rid in active]
        mean_depth = sum(depths) / len(depths) if depths else 0.0
        if (mean_depth >= policy.scale_up_depth
                and len(active) < policy.max_replicas):
            self.spawn(now)
            self._scale_up.inc()
            return now
        if (mean_depth <= policy.scale_down_depth
                and len(active) > policy.min_replicas):
            self.drain_replica(active[-1], now)  # newest spawned first
            self._scale_down.inc()
            return now
        return last_action


def run_cluster_workload(cfg: ClusterConfig, *,
                         obs: Obs | None = None) -> ClusterStats:
    """Simulate *cfg* over N replicas; returns :class:`ClusterStats`.

    ``obs`` carries the cluster-level ``cluster.driver.*`` counters and
    (optionally) a shared :class:`~repro.obs.Tracer` — each replica
    then traces through ``tracer.bound(replica=rid)``, so one trace
    store holds every replica's trees with per-replica attribution
    (``tracer.device_time_by_attr("replica")``).  Per-replica *metrics*
    stay in private registries so gauges never collide.
    """
    check(cfg.n_replicas >= 1, "n_replicas must be >= 1")
    check(cfg.spmm_mix == 0.0,
          "ClusterConfig.spmm_mix is not supported by run_cluster_workload "
          "(it replays SpMV reads only); use run_workload for SpMM traffic")
    check(cfg.probe_interval_s is None or cfg.probe_interval_s > 0.0,
          "probe_interval_s must be > 0")
    if cfg.fail_replica is not None:
        check(0 <= cfg.fail_replica < cfg.n_replicas,
              "fail_replica outside the initial replica set")
    check(cfg.slow_factor > 0.0, "slow_factor must be > 0")
    if cfg.slow_replica is not None:
        check(0 <= cfg.slow_replica < cfg.n_replicas,
              "slow_replica outside the initial replica set")
    if cfg.partition_replica is not None:
        check(0 <= cfg.partition_replica < cfg.n_replicas,
              "partition_replica outside the initial replica set")
        p0, p1 = cfg.partition_window
        check(0.0 <= p0 < p1 <= 1.0,
              "partition_window must satisfy 0 <= start < end <= 1")
    if obs is None or not obs.enabled:
        obs = Obs()
    device = get_device(cfg.device)
    pool = _matrix_pool(cfg)
    modeled = _modeled_for(cfg, device)
    rate = cfg.rate_rps if cfg.rate_rps is not None \
        else auto_rate(pool, modeled, replicas=cfg.n_replicas)
    overload_on = cfg.overload is not None
    traffic = Traffic(cfg, pool, rate, batch_fraction=(
        cfg.overload.batch_fraction if overload_on else None))
    end = traffic.end
    cluster = _Cluster(cfg, device=device, dtype=np.dtype(cfg.dtype),
                       pool=pool, modeled=modeled,
                       retry_rng=default_rng(cfg.seed + 1),  # shared jitter
                       obs=obs, span=end)

    if cfg.warm_start:
        # ring-scoped warm-up: each replica warms only its assigned
        # fingerprints (ReplicaSim.warm, exactly as a single replica)
        assigned = cluster.ring.assignments([fp for _, fp, _ in pool])
        for rid in cluster.active():
            cluster.replicas[rid].warm(assigned[rid])

    replay(traffic, cluster)

    priorities: dict[str, dict] = {}
    if overload_on:
        prio_completed = dict.fromkeys(PRIORITIES, 0)
        for replica in cluster.replicas.values():
            for req in replica.completed:
                prio_completed[req.priority] += 1
        priorities = {p: {"offered": cluster.prio_offered[p],
                          "shed": cluster.prio_shed[p],
                          "completed": prio_completed[p]}
                      for p in PRIORITIES}
    outcomes = cluster.outcomes

    def count(metric: str, labels=None) -> int:
        return int(obs.registry.counter(metric, labels).value)

    return ClusterStats(
        replicas={rid: r.stats for rid, r in cluster.replicas.items()},
        routed={rid: r.stats.n_requests
                for rid, r in cluster.replicas.items()},
        n_failover=count("cluster.driver.failover_total"),
        n_unroutable=count("cluster.driver.unroutable_total"),
        n_probes=count("cluster.health.probes_total"),
        n_transitions_down=count("cluster.health.transitions_total",
                                 {"to": "down"}),
        n_transitions_up=count("cluster.health.transitions_total",
                               {"to": "up"}),
        n_scale_up=count("cluster.driver.scale_up_total"),
        n_scale_down=count("cluster.driver.scale_down_total"),
        n_moved_fingerprints=count("cluster.driver.moved_fingerprints_total"),
        health=cluster.placement.health.snapshot(),
        duration_s=max((r.stats.duration_s
                        for r in cluster.replicas.values()), default=end),
        # Logical accounting is meaningful whenever the submit path can
        # shed/hedge/drop — overload on, or a chaos scenario active.
        overload_enabled=(overload_on or cfg.slow_replica is not None
                          or cfg.partition_replica is not None),
        n_offered=cfg.n_requests - outcomes["update"],
        n_updates=outcomes["update"],
        n_shed=outcomes["shed"],
        n_rejected_logical=outcomes["rejected"],
        n_link_failed=outcomes["link_failed"],
        n_hedges_issued=count("overload.hedge.issued_total"),
        n_hedges_won=count("overload.hedge.won_total"),
        n_hedges_wasted=count("overload.hedge.wasted_total"),
        retry_budget_granted=count("overload.retry_budget.granted_total"),
        retry_budget_denied=count("overload.retry_budget.denied_total"),
        n_retries=sum(r.stats.retries for r in cluster.replicas.values()),
        priorities=priorities,
    )
