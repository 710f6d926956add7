"""The shared placement policy (repro.cluster.placement).

Unit tests of :class:`Placement`, plus a differential test that scripts
one health sequence through both shells — the :class:`Router` over stub
replicas and the cluster driver's ``_Cluster`` — and requires the same
primary and the same hedge target for every fingerprint.
"""

import numpy as np

from repro._util import default_rng
from repro.cluster import (
    ClusterConfig,
    HashRing,
    HealthConfig,
    Placement,
    ReplicaHealth,
    Router,
)
from repro.cluster.driver import _Cluster
from repro.gpu.device import get_device
from repro.matrices import synthetic_collection
from repro.obs import Obs
from repro.serve import SpMVRequest
from repro.serve.driver import _matrix_pool, _modeled_for
from tests.test_cluster_router import StubReplica

RIDS = ("r0", "r1", "r2")
FPS = [f"m{i}" for i in range(48)]
HEALTH = HealthConfig(down_after=1, up_after=1, straggler_factor=2.0)
GOOD = {"queue_depth": 0, "open_circuits": 0, "deadline_exceeded": 0,
        "requests": 0}
BAD = dict(GOOD, queue_depth=10**6)


def make_placement(health=HEALTH):
    return Placement(HashRing(RIDS, seed=1), ReplicaHealth(health))


class TestOrder:
    def test_healthy_order_is_ring_order(self):
        p = make_placement()
        for fp in FPS:
            assert p.order(fp) == p.ring.preference(fp)

    def test_three_groups_each_in_ring_order(self):
        p = make_placement()
        for rid, lat in (("r0", 0.001), ("r1", 0.010), ("r2", 0.001)):
            p.latency.observe(rid, lat)
        p.observe("r0", BAD)
        for rid in ("r1", "r2"):
            p.observe(rid, GOOD)
        assert p.health.is_straggler("r1")
        for fp in FPS:
            assert p.order(fp) == ["r2", "r1", "r0"]

    def test_partitioned_replicas_are_unreachable(self):
        p = make_placement()
        p.partitioned.update(RIDS[:2])
        assert all(p.order(fp) == ["r2"] for fp in FPS)
        p.partitioned.add("r2")
        assert all(p.order(fp) == [] for fp in FPS)

    def test_hedge_target_skips_primary_and_sick(self):
        p = make_placement()
        fp = FPS[0]
        first, second, third = p.order(fp)
        assert p.hedge_target(fp, first) == second
        p.observe(second, BAD)
        assert p.hedge_target(fp, first) == third
        p.observe(third, BAD)
        assert p.hedge_target(fp, first) is None


class TestObserve:
    def test_miss_rate_is_the_delta_between_probes(self):
        p = make_placement(HealthConfig(max_miss_rate=0.5, down_after=1))
        p.observe("r0", dict(GOOD, deadline_exceeded=9, requests=10))
        assert p.health.snapshot()["r0"]["miss_rate"] == 0.9
        p.observe("r0", dict(GOOD, deadline_exceeded=10, requests=20))
        assert p.health.snapshot()["r0"]["miss_rate"] == 0.1
        p.observe("r0", dict(GOOD, deadline_exceeded=10, requests=20))
        assert p.health.snapshot()["r0"]["miss_rate"] == 0.0

    def test_fresh_latencies_fold_as_one_mean_sample(self):
        p = make_placement()
        lat = [0.002, 0.004]
        p.observe("r0", GOOD, lat)
        assert p.latency.ewma("r0") == 0.003
        p.observe("r0", GOOD, lat)  # nothing new: EWMA unchanged
        assert p.latency.ewma("r0") == 0.003
        assert p.health.snapshot()["r0"]["latency_ewma_s"] == 0.003

    def test_partitioned_probe_is_unreachable(self):
        p = make_placement()
        p.partitioned.add("r0")
        assert p.observe("r0", GOOD) is False
        assert not p.health.is_healthy("r0")


def driver_cluster() -> _Cluster:
    cfg = ClusterConfig(n_requests=1, n_replicas=len(RIDS), ring_seed=1,
                        entries=synthetic_collection(2, seed=5),
                        health=HEALTH)
    device = get_device(cfg.device)
    return _Cluster(cfg, device=device, dtype=np.dtype(cfg.dtype),
                    pool=_matrix_pool(cfg), modeled=_modeled_for(cfg, device),
                    retry_rng=default_rng(0), obs=Obs())


class TestRouterDriverParity:
    def test_same_primary_and_hedge_target_through_one_health_script(self):
        servers = {rid: StubReplica() for rid in RIDS}
        router = Router(servers, seed=1, health=HEALTH)
        cluster = driver_cluster()
        assert router.placement.ring.members() == cluster.ring.members()

        def probe(signals, latency=None):
            for rid, sig in signals.items():
                servers[rid].sig = sig
                if latency is not None:
                    for p in (router.placement, cluster.placement):
                        p.latency.observe(rid, latency[rid])
            router.probe()
            for rid in RIDS:
                cluster.placement.observe(rid, servers[rid].sig)

        def router_primary(fp):
            before = {rid: len(s.pending) for rid, s in servers.items()}
            router.submit(SpMVRequest(fp, np.zeros(4)))
            (rid,) = [r for r, s in servers.items()
                      if len(s.pending) > before[r]]
            return rid

        def assert_same(label):
            moved = 0
            for fp in FPS:
                primary = router_primary(fp)
                assert primary == cluster.route(fp), (label, fp)
                assert (router.placement.hedge_target(fp, primary)
                        == cluster.placement.hedge_target(fp, primary)), (
                    label, fp)
                moved += primary != cluster.ring.lookup(fp)
            return moved

        home = cluster.ring.lookup(FPS[0])
        try:
            probe({rid: GOOD for rid in RIDS})
            assert assert_same("healthy") == 0
            probe({rid: BAD if rid == home else GOOD for rid in RIDS})
            assert assert_same("home down") > 0
            probe({rid: GOOD for rid in RIDS},
                  latency={rid: 0.010 if rid == home else 0.001
                           for rid in RIDS})
            assert router.health.is_straggler(home)
            assert cluster.placement.health.is_straggler(home)
            assert assert_same("one straggler") > 0
            probe({rid: BAD for rid in RIDS})
            assert assert_same("all down") == 0
            for fp in FPS:
                assert cluster.placement.hedge_target(fp, home) is None
        finally:
            router.close()

        # Partition (driver only): the cut replica is never chosen.
        for rid in RIDS:
            cluster.placement.observe(rid, GOOD)
        cluster.placement.partitioned.add(home)
        for fp in FPS:
            primary = cluster.route(fp)
            assert primary != home
            assert cluster.placement.hedge_target(fp, primary) != home
