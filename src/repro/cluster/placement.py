"""`Placement` — the one placement policy of the cluster layer.

The :class:`~repro.cluster.router.Router` and the virtual-time cluster
driver both ask it which replica serves a fingerprint.  It owns what
that decision reads: the ring, the health monitor, the one per-replica
latency EWMA, the partitioned set (always empty for the router) and
the per-replica probe cursors.  The shells keep the rest: queue-full
walks, futures and hedge timers (router); virtual time, hedge shadows
and counters (driver).
"""

from __future__ import annotations

from ..overload.hedge import LatencyTracker
from .health import ReplicaHealth, ReplicaSignals
from .ring import HashRing


class Placement:
    """Preference order, hedge target and probe folding (see module)."""

    def __init__(self, ring: HashRing, health: ReplicaHealth,
                 latency: LatencyTracker | None = None) -> None:
        self.ring = ring
        self.health = health
        self.latency = latency if latency is not None else LatencyTracker()
        self.partitioned: set[str] = set()
        self._prev: dict[str, tuple[int, int]] = {}
        self._lat_seen: dict[str, int] = {}

    def order(self, fp: str) -> list[str]:
        """Reachable replicas for *fp*: healthy and fast, then healthy
        stragglers (soft drain), then sick ones — each group in ring
        order.  Sick replicas stay as a last resort: when every replica
        is down, the home beats dropping the request.  Empty only when
        every replica sits behind the partition."""
        fast, slow, sick = [], [], []
        for rid in self.ring.preference(fp):
            if rid in self.partitioned:
                continue
            if not self.health.is_healthy(rid):
                sick.append(rid)
            elif self.health.is_straggler(rid):
                slow.append(rid)
            else:
                fast.append(rid)
        return fast + slow + sick

    def hedge_target(self, fp: str, primary: str) -> str | None:
        """First healthy replica of :meth:`order` other than *primary*."""
        for rid in self.order(fp):
            if rid != primary and self.health.is_healthy(rid):
                return rid
        return None

    def observe(self, rid: str, signals: dict, latencies=None) -> bool:
        """Fold one probe of *rid* into the health monitor.

        *signals* is the cumulative dict of ``SpMVServer.signals()`` /
        ``ReplicaSim.signals()``; the deadline-miss rate is the delta
        since this replica's previous probe.  *latencies*, when given,
        is the replica's full completed-latency list: the fresh tail is
        folded into the EWMA as one mean sample.  A partitioned replica
        answers nothing, so it is observed as unreachable.  Returns the
        replica's health after hysteresis.
        """
        if rid in self.partitioned:
            return self.health.observe_unreachable(rid)
        if latencies is not None:
            seen = self._lat_seen.get(rid, 0)
            fresh = latencies[seen:]
            if fresh:
                self._lat_seen[rid] = seen + len(fresh)
                self.latency.observe(rid, sum(fresh) / len(fresh))
        misses, requests = signals["deadline_exceeded"], signals["requests"]
        prev_miss, prev_req = self._prev.get(rid, (0, 0))
        self._prev[rid] = (misses, requests)
        d_req = requests - prev_req
        return self.health.observe(rid, ReplicaSignals(
            queue_depth=signals["queue_depth"],
            open_circuits=signals["open_circuits"],
            miss_rate=(misses - prev_miss) / d_req if d_req > 0 else 0.0,
            latency_ewma_s=self.latency.ewma(rid)))
