"""`Router` — consistent-hash request placement over SpMV replicas.

Fronts N :class:`~repro.serve.server.SpMVServer` replicas with the
placement policy the cluster driver simulates at scale:

* **cache affinity** — a fingerprint's requests all land on its ring
  home (:class:`~repro.cluster.ring.HashRing`), so each replica's plan
  cache and store tier only ever hold the fingerprints assigned to it;
* **health-aware failover** — the preference list is walked past
  replicas the :class:`~repro.cluster.health.ReplicaHealth` monitor has
  marked down (and past ones answering with queue-full backpressure),
  so requests reroute instead of failing while a replica is sick;
* **straggler demotion** — healthy replicas whose router-observed
  latency EWMA makes them stragglers are moved behind their healthy
  peers in every preference walk (soft drain) without being downed;
* **overload control** — with an :class:`~repro.overload.OverloadConfig`
  installed, ``submit`` admission-checks each request first (shedding
  batch-priority traffic with a typed
  :class:`~repro.overload.AdmissionRejectedError` before any replica
  sees it) and **hedges** slow requests: a wall-clock timer scaled by
  the serving replica's latency EWMA re-issues the request to the next
  replica on the preference walk, first result wins, the loser is
  discarded and counted under ``overload.hedge.wasted_total``;
* **ring-scoped warm-up** — :meth:`warm` preloads each replica's
  assigned fingerprints from the shared
  :class:`~repro.store.PlanStore`, concurrently across replicas (the
  store's advisory read lock makes the shared directory safe).

Matrices are registered on *every* replica (the CSR is cheap to hold;
plans are built lazily), so any failover target can serve any
fingerprint — at worst it rebuilds the plan its cache never saw.

After :meth:`close`, ``submit``/``warm`` raise
:class:`RouterClosedError` — callers get a typed signal instead of
whichever replica error the close race happened to surface, and no
future is ever handed out that nobody will complete.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future

from .._util import ReproError, check
from ..obs import Obs
from ..overload import HedgePair, OverloadConfig, OverloadContext
from ..resilience.errors import ServerClosedError
from ..serve.request import SpMMRequest, SpMVRequest
from ..serve.scheduler import QueueFullError
from .health import HealthConfig, ReplicaHealth, ReplicaSignals
from .ring import DEFAULT_VNODES, HashRing


class NoHealthyReplicaError(ReproError):
    """Every preference-list replica refused the request."""


class RouterClosedError(ReproError):
    """``submit``/``warm`` called on a router after ``close()``."""


class Router:
    """Place requests onto replicas by fingerprint (see module docstring).

    Parameters
    ----------
    servers:
        ``{replica_id: SpMVServer}``, or a sequence of servers that get
        ids ``r0, r1, …`` in order.
    vnodes / seed:
        Ring construction knobs (:class:`HashRing`).
    health:
        :class:`HealthConfig` thresholds for the probe-driven monitor
        (pass ``None`` for defaults).
    overload:
        :class:`~repro.overload.OverloadConfig` enabling admission
        control and/or hedged requests at the router; ``None`` (the
        default) keeps the pre-overload behaviour exactly.
    obs:
        Shared handle for the ``cluster.router.*`` counters and the
        health monitor's instruments; fresh private one by default.
    """

    def __init__(self, servers, *, vnodes: int = DEFAULT_VNODES,
                 seed: int = 0, health: HealthConfig | None = None,
                 overload: OverloadConfig | None = None,
                 obs: Obs | None = None) -> None:
        if not isinstance(servers, dict):
            servers = {f"r{i}": s for i, s in enumerate(servers)}
        check(bool(servers), "need at least one replica")
        self.servers: dict[str, object] = dict(servers)
        self.ring = HashRing(self.servers, vnodes=vnodes, seed=seed)
        if obs is None or not obs.enabled:
            obs = Obs()
        self.obs = obs
        self.health = ReplicaHealth(health, obs=obs)
        self.overload = (OverloadContext(overload, obs=obs)
                         if overload is not None else None)
        self._routed = obs.counter("cluster.router.routed_total")
        self._failover = obs.counter("cluster.router.failover_total")
        self._no_replica = obs.counter("cluster.router.unroutable_total")
        self._lock = threading.Lock()
        self._closed = False
        self._timers: set[threading.Timer] = set()
        # previous (deadline_exceeded, requests) per replica, for
        # miss-rate deltas between probes
        self._prev: dict[str, tuple[int, int]] = {
            rid: (0, 0) for rid in self.servers}

    # ------------------------------------------------------------------
    def register(self, csr) -> str:
        """Register *csr* on every replica; returns its fingerprint.

        All replicas can serve all matrices (failover capability); only
        the ring home gets the fingerprint's traffic while healthy.
        """
        fp = None
        for server in self.servers.values():
            fp = server.register(csr)
        return fp

    def home(self, fingerprint: str) -> str:
        """The fingerprint's ring placement, health ignored."""
        return self.ring.lookup(fingerprint)

    def select(self, fingerprint: str) -> list[str]:
        """Preference order: healthy, then stragglers, then sick.

        Healthy-but-straggling replicas (latency EWMA far above their
        peers') are demoted behind the fast healthy ones — a soft
        drain that moves affinity traffic off a slow replica without
        the down/up cliff.  Unhealthy replicas are kept (at the end,
        in ring order) as a last resort: when *every* replica is down,
        routing to the home beats dropping the request.
        """
        prefs = self.ring.preference(fingerprint)
        healthy = [r for r in prefs if self.health.is_healthy(r)]
        sick = [r for r in prefs if not self.health.is_healthy(r)]
        if self.health.config.straggler_factor is not None:
            fast = [r for r in healthy if not self.health.is_straggler(r)]
            slow = [r for r in healthy if self.health.is_straggler(r)]
            healthy = fast + slow
        return healthy + sick

    # ------------------------------------------------------------------
    def _try_submit(self, candidates, request):
        """Walk *candidates*; return ``(rid, future)`` from the first
        replica that accepts *request*.  Skips queue-full and
        individually closed replicas; raises
        :class:`RouterClosedError` when the race was the router's own
        close, or :class:`NoHealthyReplicaError` when everyone
        refused.  Replicas never mutate the submitted object, so the
        hedging path re-issues the same request safely."""
        last: Exception | None = None
        for rid in candidates:
            try:
                future = self.servers[rid].submit(request)
            except QueueFullError as exc:
                last = exc
                continue
            except ServerClosedError as exc:
                if self._closed:
                    raise RouterClosedError("router is closed") from exc
                last = exc
                continue
            return rid, future
        self._no_replica.inc()
        raise NoHealthyReplicaError(
            f"no replica accepted matrix {request.fingerprint[:8]}… "
            f"(tried {len(candidates)})") from last

    def _watch_latency(self, rid: str, future) -> None:
        """Feed the per-replica latency EWMA when *future* settles."""
        ctx = self.overload
        if ctx is None or ctx.latency is None:
            return
        start = time.monotonic()
        future.add_done_callback(
            lambda _f: ctx.latency.observe(rid, time.monotonic() - start))

    def submit(self, request):
        """Route one typed request; returns a Future for its result.

        Takes the same :class:`~repro.serve.SpMVRequest` /
        :class:`~repro.serve.SpMMRequest` objects as
        :meth:`repro.serve.SpMVServer.submit` — one request vocabulary
        across the stack, with ``deadline_us`` / ``priority`` /
        ``shards`` keyword-only on the request.

        Walks :meth:`select`, skipping replicas that refuse with
        queue-full backpressure; counts a failover whenever the serving
        replica is not the ring home.  Raises
        :class:`NoHealthyReplicaError` when every replica refused,
        :class:`~repro.overload.AdmissionRejectedError` when admission
        control sheds the request, and :class:`RouterClosedError`
        after :meth:`close`.

        With hedging enabled the returned Future is a router-owned
        wrapper resolved by whichever replica answers first.
        """
        check(isinstance(request, (SpMVRequest, SpMMRequest)),
              "submit() takes an SpMVRequest or SpMMRequest")
        if self._closed:
            raise RouterClosedError("router is closed")
        ctx = self.overload
        if ctx is not None and ctx.admission is not None:
            ctx.admission.admit(request.priority, time.monotonic())
        prefs = self.select(request.fingerprint)
        home = self.ring.lookup(request.fingerprint)
        rid, future = self._try_submit(prefs, request)
        self._routed.inc()
        self.obs.counter("cluster.router.replica_routed_total",
                         {"replica": rid}).inc()
        if rid != home:
            self._failover.inc()
        self._watch_latency(rid, future)
        if ctx is None or ctx.hedge is None or len(prefs) < 2:
            return future
        return self._hedge(ctx, rid, future, prefs, request)

    # ------------------------------------------------------------------
    def _hedge(self, ctx: OverloadContext, primary_rid: str, primary,
               prefs, request):
        """Wrap *primary* in a first-wins Future with a hedge timer.

        The timer fires after ``max(min_delay_s, delay_factor x EWMA)``
        without a primary result and re-issues the request to the next
        replica on the preference walk; whichever side completes first
        resolves the wrapper, the loser is counted as wasted.  A
        primary *failure* before the timer fires issues the hedge
        immediately (failover); the wrapper fails only when both
        avenues are exhausted.
        """
        cfg = ctx.hedge
        outer: Future = Future()
        outer.set_running_or_notify_cancel()
        pair = HedgePair(primary_rid=primary_rid)
        state = {"hedge_issued": False, "hedge_unroutable": False,
                 "primary_error": None, "hedge_error": None,
                 "failed": False}
        lock = threading.Lock()
        ewma = ctx.latency.ewma(primary_rid)
        delay = max(cfg.min_delay_s, cfg.delay_factor * ewma)
        timer = threading.Timer(delay, lambda: issue_hedge())
        timer.daemon = True

        def maybe_fail_locked(err) -> bool:
            # caller holds `lock`; True when this call must fail outer
            exhausted = (state["primary_error"] is not None
                         and (state["hedge_error"] is not None
                              or state["hedge_unroutable"]))
            if exhausted and not state["failed"]:
                state["failed"] = True
                return True
            return False

        def issue_hedge() -> None:
            self._timers.discard(timer)
            with lock:
                if state["hedge_issued"] or pair.resolved:
                    return
                state["hedge_issued"] = True
            rest = [r for r in prefs if r != primary_rid]
            try:
                if self._closed:
                    raise RouterClosedError("router is closed")
                hrid, hfut = self._try_submit(rest, request)
            except (NoHealthyReplicaError, RouterClosedError) as exc:
                with lock:
                    state["hedge_unroutable"] = True
                    fail = maybe_fail_locked(exc)
                if fail:
                    outer.set_exception(state["primary_error"])
                return
            pair.hedge_rid = hrid
            ctx.hedges_issued.inc()
            self._watch_latency(hrid, hfut)
            hfut.add_done_callback(lambda f: on_done("hedge", f))

        def on_done(side: str, fut) -> None:
            err = fut.exception()
            if err is None:
                if pair.resolve(side):
                    if side == "primary":
                        timer.cancel()
                        self._timers.discard(timer)
                    else:
                        ctx.hedges_won.inc()
                    outer.set_result(fut.result())
                else:
                    ctx.hedges_wasted.inc()
                return
            with lock:
                state[f"{side}_error"] = err
                spawn = (side == "primary" and not state["hedge_issued"])
                fail = False if spawn else maybe_fail_locked(err)
            if spawn:
                timer.cancel()
                issue_hedge()
                # the hedge may have been unroutable -> re-check
                with lock:
                    fail = maybe_fail_locked(err)
            if fail:
                outer.set_exception(err)

        primary.add_done_callback(lambda f: on_done("primary", f))
        if not pair.resolved:
            self._timers.add(timer)
            timer.start()
        return outer

    # ------------------------------------------------------------------
    def probe(self) -> dict[str, bool]:
        """Sample every replica's signals into the health monitor.

        Returns ``{replica_id: healthy}`` after hysteresis.  Call
        periodically (the real deployment's probe loop); the monitor
        itself is clock-free.  With overload enabled, the router's
        latency EWMA rides along as the straggler signal.
        """
        ctx = self.overload
        out: dict[str, bool] = {}
        with self._lock:
            for rid, server in self.servers.items():
                raw = server.signals()
                prev_miss, prev_req = self._prev[rid]
                d_req = raw["requests"] - prev_req
                d_miss = raw["deadline_exceeded"] - prev_miss
                miss_rate = (d_miss / d_req) if d_req > 0 else 0.0
                self._prev[rid] = (raw["deadline_exceeded"], raw["requests"])
                ewma = (ctx.latency.ewma(rid)
                        if ctx is not None and ctx.latency is not None
                        else 0.0)
                out[rid] = self.health.observe(rid, ReplicaSignals(
                    queue_depth=raw["queue_depth"],
                    open_circuits=raw["open_circuits"],
                    miss_rate=miss_rate,
                    latency_ewma_s=ewma))
        return out

    # ------------------------------------------------------------------
    def assignments(self, fingerprints) -> dict[str, list[str]]:
        """replica id -> assigned fingerprints (ring homes)."""
        return self.ring.assignments(fingerprints)

    def warm(self, fingerprints) -> dict[str, int]:
        """Concurrently preload each replica's assigned fingerprints.

        Every replica warms only its ring-assigned subset from its
        registry's store tier, on its own thread — the cold-start path
        of a whole cluster restarting against one shared store
        directory.  Returns ``{replica_id: plans_warmed}``.
        """
        if self._closed:
            raise RouterClosedError("router is closed")
        assigned = self.assignments(fingerprints)
        warmed: dict[str, int] = {rid: 0 for rid in self.servers}

        def work(rid: str) -> None:
            server = self.servers[rid]
            if server.registry.store is None:
                return
            count = 0
            for fp in assigned[rid]:
                load_s = server.registry.warm(fp)
                if load_s is not None:
                    server.stats.observe_preprocess(load_s)
                    count += 1
            warmed[rid] = count

        threads = [threading.Thread(target=work, args=(rid,),
                                    name=f"cluster-warm-{rid}")
                   for rid in self.servers]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = sum(warmed.values())
        if total:
            self.obs.counter("cluster.router.warmed_total").inc(total)
        return warmed

    # ------------------------------------------------------------------
    def close(self, timeout: float | None = None) -> None:
        """Close every replica (drains by default; never leaks futures).

        Subsequent ``submit``/``warm`` raise :class:`RouterClosedError`;
        pending hedge timers are cancelled (their wrapper futures are
        resolved by the replicas' own close-time future fail-out).
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            timers = list(self._timers)
            self._timers.clear()
        for t in timers:
            t.cancel()
        for server in self.servers.values():
            server.close(timeout)

    def __enter__(self) -> "Router":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
