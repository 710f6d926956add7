"""Replica health — hysteresis over breaker/queue/deadline signals.

:class:`ReplicaHealth` turns the raw signals a replica already exposes
(the ``serve.scheduler.queue_depth`` gauge, open circuit-breaker
counts, the deadline-miss rate since the previous probe) into a binary
healthy/unhealthy routing decision with **hysteresis**: a replica is
marked down only after ``down_after`` consecutive bad probes and
marked up again only after ``up_after`` consecutive good ones, so a
single queue spike or one half-open breaker probe cannot flap routing.

Between "healthy" and "down" there is a third, softer state:
**straggler**.  A replica whose latency EWMA (fed by
:class:`~repro.cluster.placement.Placement` via
:attr:`ReplicaSignals.latency_ewma_s`) exceeds
``straggler_factor`` times the median of its peers' is still alive and
still correct — it is just slow, which is exactly the replica that
dominates the cluster's tail latency.  Stragglers stay *routable* but
are demoted to the back of the healthy portion of every preference
walk (a soft drain): affinity traffic moves off them gradually without
the cliff of marking them down, and they rejoin automatically once
their EWMA recovers.  ``straggler_factor=None`` (the default) disables
the mechanism entirely.

The monitor never contacts replicas itself — callers sample signals
(:meth:`repro.serve.SpMVServer.signals` on the real server, replica
state directly in the virtual-time cluster driver) and feed them to
:meth:`ReplicaHealth.observe`.  That keeps it clock-free and equally
usable under wall time and virtual time.  All state mutation is
guarded by one lock: ``observe`` runs on probe threads while the
driver calls ``snapshot``/``forget`` concurrently.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .._util import check
from ..overload.hedge import exceeds_peer_median


@dataclass(frozen=True)
class HealthConfig:
    """Thresholds and hysteresis of the replica health monitor.

    A probe is *bad* when any enabled threshold trips: queue depth at
    or above ``max_queue_depth``, more than ``max_open_circuits`` open
    (or half-open) breaker circuits, or a deadline-miss rate above
    ``max_miss_rate`` over the probe interval.  ``None`` disables a
    threshold.

    ``straggler_factor`` enables the soft-drain straggler state: a
    replica whose ``latency_ewma_s`` exceeds this multiple of the
    median of its peers' positive EWMAs is demoted (not downed) in the
    preference walk, hedging on or off (the placement feeds the EWMA).
    ``None`` (default) turns demotion off.
    """

    max_queue_depth: int | None = 64
    max_open_circuits: int | None = 0
    max_miss_rate: float | None = 0.5
    down_after: int = 2
    up_after: int = 3
    straggler_factor: float | None = None

    def __post_init__(self) -> None:
        check(self.down_after >= 1, "down_after must be >= 1")
        check(self.up_after >= 1, "up_after must be >= 1")
        if self.max_queue_depth is not None:
            check(self.max_queue_depth >= 1, "max_queue_depth must be >= 1")
        if self.max_open_circuits is not None:
            check(self.max_open_circuits >= 0,
                  "max_open_circuits must be >= 0")
        if self.max_miss_rate is not None:
            check(0.0 <= self.max_miss_rate <= 1.0,
                  "max_miss_rate must be in [0, 1]")
        if self.straggler_factor is not None:
            check(self.straggler_factor > 1.0,
                  "straggler_factor must be > 1")


@dataclass(frozen=True)
class ReplicaSignals:
    """One probe's worth of raw replica signals.

    ``queue_depth`` counts work waiting for the device (scheduler queue
    on the real server, flushed-batch backlog in the virtual driver);
    ``open_circuits`` counts fingerprints whose breaker is not closed;
    ``miss_rate`` is deadline misses / requests since the last probe
    (0.0 when idle); ``latency_ewma_s`` is the smoothed request
    latency observed *at the router* (0.0 = no data yet), the signal
    behind straggler demotion.
    """

    queue_depth: int = 0
    open_circuits: int = 0
    miss_rate: float = 0.0
    latency_ewma_s: float = 0.0


class _ReplicaState:
    __slots__ = ("healthy", "bad_streak", "good_streak", "last")

    def __init__(self) -> None:
        self.healthy = True
        self.bad_streak = 0
        self.good_streak = 0
        self.last = ReplicaSignals()


#: Signals fed for a probe that could not reach the replica at all
#: (partition): trips every enabled threshold at once.
UNREACHABLE_SIGNALS = ReplicaSignals(queue_depth=1 << 30,
                                     open_circuits=1 << 30, miss_rate=1.0)


class ReplicaHealth:
    """Hysteresis-filtered health state per replica id.

    ``obs`` backs ``cluster.health.probes_total``,
    ``cluster.health.transitions_total{to=up|down}`` and a
    ``cluster.health.unhealthy`` gauge; it defaults to a fresh private
    handle (per-run-object convention).

    Thread-safe: ``observe``/``observe_unreachable`` may run on probe
    threads while the router reads ``is_healthy``/``is_straggler`` and
    the driver calls ``snapshot``/``forget``.
    """

    def __init__(self, config: HealthConfig | None = None, *,
                 obs=None) -> None:
        from ..obs import Obs

        self.config = config if config is not None else HealthConfig()
        self._states: dict[str, _ReplicaState] = {}
        self._lock = threading.RLock()
        if obs is None or not obs.enabled:
            obs = Obs()
        self.obs = obs
        self._probes = obs.counter("cluster.health.probes_total")
        self._unhealthy_gauge = obs.gauge("cluster.health.unhealthy")

    # ------------------------------------------------------------------
    def _state(self, replica_id: str) -> _ReplicaState:
        # caller holds the lock
        s = self._states.get(replica_id)
        if s is None:
            s = self._states[replica_id] = _ReplicaState()
        return s

    def is_bad(self, signals: ReplicaSignals) -> bool:
        """Does one probe trip any enabled threshold?"""
        cfg = self.config
        if (cfg.max_queue_depth is not None
                and signals.queue_depth >= cfg.max_queue_depth):
            return True
        if (cfg.max_open_circuits is not None
                and signals.open_circuits > cfg.max_open_circuits):
            return True
        if (cfg.max_miss_rate is not None
                and signals.miss_rate > cfg.max_miss_rate):
            return True
        return False

    def observe(self, replica_id: str, signals: ReplicaSignals) -> bool:
        """Fold one probe in; returns the (possibly updated) health."""
        bad = self.is_bad(signals)
        with self._lock:
            s = self._state(replica_id)
            s.last = signals
            self._probes.inc()
            if bad:
                s.bad_streak += 1
                s.good_streak = 0
                if s.healthy and s.bad_streak >= self.config.down_after:
                    s.healthy = False
                    self._transition("down")
            else:
                s.good_streak += 1
                s.bad_streak = 0
                if not s.healthy and s.good_streak >= self.config.up_after:
                    s.healthy = True
                    self._transition("up")
            return s.healthy

    def observe_unreachable(self, replica_id: str) -> bool:
        """Fold in a probe that never got an answer (link partition)."""
        return self.observe(replica_id, UNREACHABLE_SIGNALS)

    def _transition(self, to: str) -> None:
        # caller holds the lock
        self.obs.counter("cluster.health.transitions_total",
                         {"to": to}).inc()
        self._unhealthy_gauge.set(self._unhealthy_count_locked())

    # ------------------------------------------------------------------
    def is_healthy(self, replica_id: str) -> bool:
        """Unknown replicas are healthy (no probe = no evidence)."""
        with self._lock:
            s = self._states.get(replica_id)
            return s.healthy if s is not None else True

    def is_straggler(self, replica_id: str) -> bool:
        """Healthy but slow relative to its peers (soft-drain state).

        Compares the replica's ``latency_ewma_s`` against
        ``straggler_factor`` x the median of the *other* replicas'
        positive EWMAs; needs at least two such peers (no population,
        no outlier).  Always False when the factor is disabled or the
        replica is already unhealthy (down dominates demoted).
        """
        factor = self.config.straggler_factor
        if factor is None:
            return False
        with self._lock:
            s = self._states.get(replica_id)
            if s is None or not s.healthy:
                return False
            mine = s.last.latency_ewma_s
            peers = [t.last.latency_ewma_s
                     for rid, t in self._states.items() if rid != replica_id]
        return exceeds_peer_median(mine, peers, factor)

    def stragglers(self) -> list[str]:
        with self._lock:
            rids = list(self._states)
        return [rid for rid in rids if self.is_straggler(rid)]

    def _unhealthy_count_locked(self) -> int:
        return sum(1 for s in self._states.values() if not s.healthy)

    def unhealthy_count(self) -> int:
        with self._lock:
            return self._unhealthy_count_locked()

    def forget(self, replica_id: str) -> None:
        """Drop a drained replica's state (elastic scale-down)."""
        with self._lock:
            self._states.pop(replica_id, None)
            self._unhealthy_gauge.set(self._unhealthy_count_locked())

    def snapshot(self) -> dict[str, dict]:
        """replica id -> {healthy, streaks, last signals} for reports."""
        with self._lock:
            return {
                rid: {
                    "healthy": s.healthy,
                    "bad_streak": s.bad_streak,
                    "good_streak": s.good_streak,
                    "queue_depth": s.last.queue_depth,
                    "open_circuits": s.last.open_circuits,
                    "miss_rate": s.last.miss_rate,
                    "latency_ewma_s": s.last.latency_ewma_s,
                    "straggler": self.is_straggler(rid),
                }
                for rid, s in sorted(self._states.items())
            }
