"""Router tests over real SpMVServer replicas (repro.cluster.router)."""

import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.cluster import (
    HealthConfig,
    NoHealthyReplicaError,
    Router,
)
from repro.obs import Obs
from repro.overload import HedgeConfig, OverloadConfig
from repro.serve import SpMVRequest
from repro.store import PlanStore
from tests.conftest import random_csr


def make_matrices(n=3, seed=0):
    rng = np.random.default_rng(seed)
    return [random_csr(48 + 16 * i, 48 + 16 * i, rng) for i in range(n)]


class StubReplica:
    """A replica that accepts every request and reports scripted signals.

    With ``delay=None`` its futures stay pending until the test settles
    them through :attr:`pending`; with a ``delay`` each request resolves
    on its own after that many seconds (a fast or slow replica).
    ``close`` fails out whatever is still pending, like
    ``SpMVServer.close`` does.
    """

    def __init__(self, delay=None):
        self.delay = delay
        self.pending = []
        self.sig = {"queue_depth": 0, "open_circuits": 0,
                    "deadline_exceeded": 0, "requests": 0}

    def submit(self, request):
        fut = Future()
        if self.delay is None:
            self.pending.append(fut)
        else:
            threading.Timer(self.delay, fut.set_result,
                            (request.fingerprint,)).start()
        return fut

    def signals(self):
        return dict(self.sig)

    def close(self, timeout=None):
        from repro.resilience import ServerClosedError

        for fut in self.pending:
            if not fut.done():
                fut.set_exception(ServerClosedError("replica closed"))


def fps_homed_on_each(router, n_keys=64):
    """One fingerprint per replica, each homed there on the ring."""
    out = {}
    for i in range(n_keys):
        out.setdefault(router.placement.ring.lookup(f"m{i}"), f"m{i}")
    assert len(out) == len(router.servers)
    return out


def wait_for(pred, timeout=5.0):
    end = time.monotonic() + timeout
    while not pred():
        assert time.monotonic() < end, "condition never held"
        time.sleep(0.002)


def make_router(n_servers=3, *, obs=None, health=None, **server_kw):
    from repro.serve import SpMVServer

    kw = dict(workers=1, queue_depth=16)
    kw.update(server_kw)
    servers = [SpMVServer(**kw) for _ in range(n_servers)]
    return Router(servers, seed=1, obs=obs, health=health)


class TestRouting:
    def test_register_returns_fingerprint_on_all(self):
        with make_router() as router:
            csr = make_matrices(1)[0]
            fp = router.register(csr)
            for server in router.servers.values():
                assert csr is not None
                assert server.submit(SpMVRequest(fp, np.zeros(csr.shape[1]))) is not None

    def test_affinity_routes_to_ring_home(self):
        obs = Obs()
        rng = np.random.default_rng(0)
        with make_router(obs=obs) as router:
            fps = [router.register(c) for c in make_matrices(4)]
            shapes = {fp: c.shape[1]
                      for fp, c in zip(fps, make_matrices(4))}
            futs = [router.submit(SpMVRequest(fp, rng.uniform(-1, 1, shapes[fp])))
                    for fp in fps for _ in range(5)]
            for f in futs:
                assert f.result(timeout=30) is not None
            # with everything healthy, every request went to its home
            assert obs.registry.counter(
                "cluster.router.failover_total").value == 0
            for fp in fps:
                home = router.placement.ring.lookup(fp)
                assert obs.registry.counter(
                    "cluster.router.replica_routed_total",
                    {"replica": home}).value > 0

    def test_select_moves_sick_replicas_back(self):
        health = HealthConfig(down_after=1, max_queue_depth=1)
        with make_router(health=health) as router:
            fp = router.register(make_matrices(1)[0])
            home = router.placement.ring.lookup(fp)
            from repro.cluster import ReplicaSignals

            router.health.observe(home, ReplicaSignals(queue_depth=99))
            order = router.placement.order(fp)
            assert order[-1] == home
            assert not router.health.is_healthy(home)

    def test_failover_when_home_marked_down(self):
        obs = Obs()
        health = HealthConfig(down_after=1)
        rng = np.random.default_rng(1)
        with make_router(obs=obs, health=health) as router:
            csr = make_matrices(1)[0]
            fp = router.register(csr)
            from repro.cluster import ReplicaSignals

            router.health.observe(router.placement.ring.lookup(fp),
                                  ReplicaSignals(queue_depth=10**6))
            fut = router.submit(SpMVRequest(fp, rng.uniform(-1, 1, csr.shape[1])))
            assert fut.result(timeout=30) is not None
            assert obs.registry.counter(
                "cluster.router.failover_total").value == 1

    def test_all_queues_full_raises(self):
        """Every replica refusing with backpressure surfaces as
        NoHealthyReplicaError, not a silent drop."""
        import threading

        from repro.serve import SpMVServer

        gate = threading.Event()
        # max_batch=1: every submit flushes a one-request batch, so the
        # depth-1 queues fill after one accepted request each
        servers = [SpMVServer(workers=1, queue_depth=1, max_batch=1)
                   for _ in range(2)]
        router = Router(servers, seed=1)
        try:
            csr = make_matrices(1)[0]
            fp = router.register(csr)
            x = np.zeros(csr.shape[1])
            # saturate both replicas' bounded queues
            blocked = []
            for server in servers:
                server.scheduler.submit_task(gate.wait)
            with pytest.raises(NoHealthyReplicaError):
                for _ in range(64):
                    blocked.append(router.submit(SpMVRequest(fp, x)))
        finally:
            gate.set()
            router.close()

    def test_probe_reports_health_map(self):
        with make_router(2) as router:
            router.register(make_matrices(1)[0])
            out = router.probe()
            assert out == {"r0": True, "r1": True}


class TestWarm:
    def test_concurrent_ring_scoped_warm(self, tmp_path):
        """All replicas warm their assigned fingerprints from one shared
        store directory, concurrently."""
        from repro.core import DASPMatrix
        from repro.serve import SpMVServer
        from repro.store import fingerprint_csr

        matrices = make_matrices(4, seed=7)
        store_dir = tmp_path / "plans"
        seed_store = PlanStore(store_dir)
        fps = []
        for csr in matrices:
            fp = fingerprint_csr(csr.astype(np.float64))
            seed_store.put(fp, DASPMatrix.from_csr(csr.astype(np.float64)))
            fps.append(fp)

        servers = [SpMVServer(workers=1, store=store_dir) for _ in range(3)]
        with Router(servers, seed=1) as router:
            for csr in matrices:
                router.register(csr.astype(np.float64))
            warmed = router.warm(fps)
        assigned = router.placement.ring.assignments(fps)
        assert sum(warmed.values()) == len(fps)
        for rid, n in warmed.items():
            assert n == len(assigned[rid])


class TestUpdate:
    def test_broadcast_keeps_replicas_in_lockstep(self, tmp_path):
        """``Router.update`` reaches every replica, so each holds the
        same version and any of them serves it; only the ring home
        writes the shared store's delta log, one record per version."""
        from repro.core import apply_delta_to_csr, random_delta
        from repro.serve import SpMVServer
        from repro.store import read_delta_log

        rng = np.random.default_rng(4)
        csr = make_matrices(1, seed=4)[0]
        store_dir = tmp_path / "plans"
        servers = [SpMVServer(workers=1, store=store_dir) for _ in range(3)]
        with Router(servers, seed=1) as router:
            fp = router.register(csr)
            x = rng.uniform(-1, 1, csr.shape[1])
            router.submit(SpMVRequest(fp, x)).result(10.0)
            for v in range(1, 5):
                delta = random_delta(csr, rng, structural=v % 2 == 0,
                                     n_entries=6)
                assert router.update(fp, delta) == v
                csr = apply_delta_to_csr(csr, delta)
            assert {s.registry.version_of(fp) for s in servers} == {4}
            for server in servers:      # failover targets included
                y = server.submit(SpMVRequest(fp, x)).result(10.0)
                np.testing.assert_allclose(y, csr.matvec(x), rtol=1e-12,
                                           atol=1e-12)
        records, _ = read_delta_log(PlanStore(store_dir).log_path_for(fp))
        assert [v for v, _ in records] == [1, 2, 3, 4]

    def test_update_after_close_raises_typed(self):
        from repro.cluster import RouterClosedError
        from repro.core import random_delta

        router = make_router(1)
        csr = make_matrices(1)[0]
        fp = router.register(csr)
        router.close()
        with pytest.raises(RouterClosedError):
            router.update(fp, random_delta(csr, np.random.default_rng(0)))


class TestClosed:
    def test_submit_and_warm_after_close_raise_typed(self):
        from repro import ReproError
        from repro.cluster import RouterClosedError

        router = make_router(2)
        csr = make_matrices(1)[0]
        fp = router.register(csr)
        router.close()
        with pytest.raises(RouterClosedError):
            router.submit(SpMVRequest(fp, np.zeros(csr.shape[1])))
        with pytest.raises(RouterClosedError):
            router.warm([fp])
        assert issubclass(RouterClosedError, ReproError)

    def test_close_is_idempotent(self):
        router = make_router(1)
        router.close()
        router.close()

    def test_close_submit_race_never_leaks_futures(self):
        """Submitters racing a concurrent close() either get a future
        that settles or a typed error — never a future nobody resolves
        and never an untyped crash."""
        import threading

        from repro.cluster import RouterClosedError
        from repro.resilience import ServerClosedError

        router = make_router(2, queue_depth=64)
        csr = make_matrices(1)[0]
        fp = router.register(csr)
        x = np.zeros(csr.shape[1])
        futures, unexpected = [], []
        start = threading.Barrier(5)

        def submitter():
            start.wait()
            for _ in range(50):
                try:
                    futures.append(router.submit(SpMVRequest(fp, x)))
                except (RouterClosedError, NoHealthyReplicaError):
                    pass
                except Exception as exc:  # pragma: no cover - regression
                    unexpected.append(exc)

        threads = [threading.Thread(target=submitter) for _ in range(4)]
        for t in threads:
            t.start()
        start.wait()
        router.close()
        for t in threads:
            t.join()
        assert not unexpected
        for fut in futures:
            try:
                assert fut.result(timeout=30) is not None
            except ServerClosedError:
                pass  # accepted then failed-out by close: still settled


class TestAllUnhealthy:
    def test_sick_replicas_still_serve_as_last_resort(self):
        """Health-down everywhere must not black-hole traffic: the
        preference walk keeps sick replicas at the end."""
        health = HealthConfig(down_after=1, up_after=1)
        rng = np.random.default_rng(3)
        with make_router(2, health=health) as router:
            from repro.cluster import ReplicaSignals

            csr = make_matrices(1)[0]
            fp = router.register(csr)
            for rid in router.servers:
                router.health.observe(rid,
                                      ReplicaSignals(queue_depth=10**6))
            assert not any(router.health.is_healthy(r)
                           for r in router.servers)
            fut = router.submit(SpMVRequest(fp, rng.uniform(-1, 1, csr.shape[1])))
            assert fut.result(timeout=30) is not None

    def test_all_refusing_raises_then_recovers_without_lost_futures(self):
        """Every replica refusing -> NoHealthyReplicaError; once they
        drain, the accepted backlog completes (zero lost futures) and
        new submits route normally again."""
        import threading

        from repro.serve import SpMVServer

        gate = threading.Event()
        servers = [SpMVServer(workers=1, queue_depth=1, max_batch=1)
                   for _ in range(2)]
        router = Router(servers, seed=1)
        try:
            csr = make_matrices(1)[0]
            fp = router.register(csr)
            x = np.zeros(csr.shape[1])
            for server in servers:
                server.scheduler.submit_task(gate.wait)
            accepted = []
            with pytest.raises(NoHealthyReplicaError):
                for _ in range(64):
                    accepted.append(router.submit(SpMVRequest(fp, x)))
            gate.set()  # recovery: replicas drain their queues
            for fut in accepted:
                assert fut.result(timeout=30) is not None
            assert router.submit(SpMVRequest(fp, x)).result(timeout=30) is not None
        finally:
            gate.set()
            router.close()


class TestStragglerWithoutHedging:
    def test_straggler_demoted_with_no_overload_config(self):
        """``straggler_factor`` alone must work: the router feeds every
        replica's latency EWMA itself, so a slow replica reads as a
        straggler after a probe and moves behind its fast peers."""
        servers = {"r0": StubReplica(0.001), "r1": StubReplica(0.001),
                   "r2": StubReplica(0.06)}
        health = HealthConfig(straggler_factor=2.0)
        with Router(servers, seed=1, health=health) as router:
            homes = fps_homed_on_each(router)
            futs = [router.submit(SpMVRequest(fp, np.zeros(4)))
                    for fp in homes.values() for _ in range(3)]
            for f in futs:
                f.result(timeout=10)
            # done-callbacks may run just after result() returns
            wait_for(lambda: len(router.placement.latency.snapshot()) == 3)
            router.probe()
            assert router.health.is_straggler("r2") is True
            assert not router.health.is_straggler("r0")
            order = router.placement.order(homes["r2"])
            assert order[-1] == "r2"
            assert set(order[:2]) == {"r0", "r1"}


def hedging_router(min_delay_s, obs):
    servers = {f"r{i}": StubReplica() for i in range(3)}
    overload = OverloadConfig(hedge=HedgeConfig(min_delay_s=min_delay_s))
    return servers, Router(servers, seed=1, overload=overload, obs=obs)


class TestHedging:
    def test_first_result_wins_and_loser_is_wasted(self):
        obs = Obs()
        servers, router = hedging_router(0.01, obs)
        with router:
            fp = "m0"
            order = router.placement.order(fp)
            primary, backup = servers[order[0]], servers[order[1]]
            fut = router.submit(SpMVRequest(fp, np.zeros(4)))
            wait_for(lambda: backup.pending)  # the hedge timer fired
            backup.pending[0].set_result("hedge")
            assert fut.result(timeout=5) == "hedge"
            primary.pending[0].set_result("primary")
            reg = obs.registry
            assert reg.counter("overload.hedge.issued_total").value == 1
            assert reg.counter("overload.hedge.won_total").value == 1
            assert reg.counter("overload.hedge.wasted_total").value == 1

    def test_primary_error_fails_over_before_the_timer(self):
        obs = Obs()
        servers, router = hedging_router(60.0, obs)
        with router:
            fp = "m0"
            order = router.placement.order(fp)
            fut = router.submit(SpMVRequest(fp, np.zeros(4)))
            assert not servers[order[1]].pending
            servers[order[0]].pending[0].set_exception(RuntimeError("boom"))
            # issued synchronously from the primary's done-callback
            assert len(servers[order[1]].pending) == 1
            assert obs.registry.counter(
                "overload.hedge.issued_total").value == 1
            servers[order[1]].pending[0].set_result("failover")
            assert fut.result(timeout=5) == "failover"

    def test_close_cancels_timers_and_settles_every_future(self):
        from repro.resilience import ServerClosedError

        servers, router = hedging_router(60.0, Obs())
        futs = [router.submit(SpMVRequest(f"m{i}", np.zeros(4)))
                for i in range(4)]
        timers = list(router._timers)
        assert len(timers) == 4
        router.close()
        assert not router._timers
        assert all(t.finished.is_set() for t in timers)
        for f in futs:
            assert isinstance(f.exception(timeout=5), ServerClosedError)
