"""Virtual-time cluster driver tests (repro.cluster.driver)."""

import numpy as np
import pytest

from repro.cluster import (
    ClusterConfig,
    ElasticConfig,
    HealthConfig,
    run_cluster_workload,
)
from repro._util import ValidationError
from repro.matrices import synthetic_collection
from repro.obs import Obs, Tracer
from repro.serve import WorkloadConfig, run_workload


def entries(n=4, seed=5):
    return synthetic_collection(n, seed=seed)


def cluster_cfg(**overrides) -> ClusterConfig:
    base = dict(n_requests=1500, seed=11, entries=entries(),
                n_replicas=2)
    base.update(overrides)
    return ClusterConfig(**base)


class TestSingleReplicaParity:
    def test_bit_identical_to_run_workload(self):
        """The N=1 cluster IS the single-replica driver: every stat,
        including the full latency list, matches bit for bit."""
        kw = dict(n_requests=1500, seed=11, entries=entries())
        single = run_workload(WorkloadConfig(**kw))
        cluster = run_cluster_workload(ClusterConfig(n_replicas=1, **kw))
        (replica,) = cluster.replicas.values()
        for attr in ("n_requests", "n_completed", "n_rejected", "n_failed",
                     "n_deadline_exceeded", "n_batches", "cache_hits",
                     "cache_misses", "device_busy_s", "preprocess_s",
                     "duration_s", "useful_mma_flops", "issued_mma_flops"):
            assert getattr(single, attr) == getattr(replica, attr), attr
        assert single.latencies_s == replica.latencies_s

    def test_parity_with_chaos_and_deadline(self):
        from repro.serve import ChaosConfig

        kw = dict(n_requests=1000, seed=3, entries=entries(),
                  deadline_s=0.005, chaos=ChaosConfig(fault_rate=0.08))
        single = run_workload(WorkloadConfig(**kw))
        cluster = run_cluster_workload(ClusterConfig(n_replicas=1, **kw))
        (replica,) = cluster.replicas.values()
        assert single.n_completed == replica.n_completed
        assert single.n_failed == replica.n_failed
        assert single.retries == replica.retries
        assert single.latencies_s == replica.latencies_s


class TestWarmKnobParity:
    """N=1 parity across every way a plan is acquired ahead of demand:
    both drivers warm through the one ``ReplicaSim.warm``."""

    @pytest.fixture(scope="class")
    def populated_store(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("parity_store")
        run_workload(WorkloadConfig(**self.KW, store=root))
        return root

    KW = dict(n_requests=600, n_matrices=3, seed=11)

    @pytest.mark.parametrize("store", [False, True], ids=["nostore", "store"])
    @pytest.mark.parametrize("pipeline", [False, True],
                             ids=["serial", "pipeline"])
    @pytest.mark.parametrize("warmer", [False, True], ids=["cold", "warmer"])
    @pytest.mark.parametrize("warm_start", [False, True],
                             ids=["nowarmstart", "warmstart"])
    def test_bit_identical(self, populated_store, warm_start, warmer,
                           pipeline, store):
        kw = dict(self.KW, warm_start=warm_start, warmer=warmer,
                  pipeline=pipeline,
                  store=populated_store if store else None)
        single = run_workload(WorkloadConfig(**kw))
        cluster = run_cluster_workload(ClusterConfig(n_replicas=1, **kw))
        (replica,) = cluster.replicas.values()
        assert single.latencies_s == replica.latencies_s
        for attr in ("preprocess_s", "warm_loads", "warm_builds",
                     "cache_misses"):
            assert getattr(single, attr) == getattr(replica, attr), attr


class TestConservation:
    """Every offered request ends exactly one way on every run, not
    only on overload runs."""

    @pytest.mark.parametrize("knobs", [
        {},
        {"chaos": "mix", "deadline_s": 0.004},
        {"fail_replica": 2},
        {"elastic": ElasticConfig(max_replicas=5)},
        {"update_mix": 0.1},
        {"chaos": "mix", "deadline_s": 0.004, "fail_replica": 2,
         "elastic": ElasticConfig(max_replicas=5), "update_mix": 0.1},
    ], ids=["plain", "chaos_deadline", "fail_replica", "elastic",
            "update_mix", "combined"])
    def test_no_lost_requests(self, knobs):
        from repro.serve import ChaosConfig

        if knobs.get("chaos") == "mix":
            knobs = {**knobs, "chaos": ChaosConfig(fault_rate=0.05)}
        stats = run_cluster_workload(cluster_cfg(n_replicas=3, **knobs))
        assert not stats.overload_enabled
        assert stats.n_offered + stats.n_updates == 1500
        assert stats.lost_requests == 0

    def test_imbalance_shows_without_overload(self):
        """The property is computed, not gated to 0 off overload runs."""
        from repro.cluster import ClusterStats

        stats = ClusterStats(replicas={}, routed={}, n_offered=5)
        assert not stats.overload_enabled
        assert stats.lost_requests == 5


class TestDeterminism:
    def test_same_config_same_stats(self):
        a = run_cluster_workload(cluster_cfg(n_replicas=3))
        b = run_cluster_workload(cluster_cfg(n_replicas=3))
        assert a.n_completed == b.n_completed
        assert a.routed == b.routed
        assert a.n_failover == b.n_failover
        assert a.duration_s == b.duration_s
        assert a.latency_percentiles() == b.latency_percentiles()

    def test_all_requests_accounted(self):
        stats = run_cluster_workload(cluster_cfg(n_replicas=3))
        cfg_requests = 1500
        assert stats.n_requests == cfg_requests
        assert (stats.n_completed + stats.n_rejected + stats.n_failed
                + stats.n_deadline_exceeded) >= stats.n_completed
        assert stats.n_completed > 0
        assert sum(stats.routed.values()) == cfg_requests


class TestPlacement:
    def test_traffic_spreads_across_replicas(self):
        stats = run_cluster_workload(cluster_cfg(
            n_replicas=4, n_requests=3000, entries=entries(8)))
        served = [rid for rid, n in stats.routed.items() if n > 0]
        assert len(served) >= 3  # Zipf skew may starve one replica

    def test_ring_seed_changes_placement(self):
        a = run_cluster_workload(cluster_cfg(ring_seed=0))
        b = run_cluster_workload(cluster_cfg(ring_seed=9))
        assert a.routed != b.routed


class TestFailover:
    def test_fault_injected_replica_loses_traffic(self):
        """With one replica erroring on every kernel, health marks it
        down and the ring reroutes — nothing is lost."""
        bad = run_cluster_workload(cluster_cfg(
            n_replicas=3, n_requests=4000, fail_replica=2,
            deadline_s=0.02))
        good = run_cluster_workload(cluster_cfg(
            n_replicas=3, n_requests=4000, deadline_s=0.02))
        assert bad.n_failover > 0
        assert bad.n_transitions_down >= 1
        # the sick replica serves (strictly) less than its fair share
        assert bad.routed["r2"] < good.routed["r2"]
        # no lost futures: offered = completed + explicit failures
        assert (bad.n_completed + bad.n_rejected + bad.n_failed
                + bad.n_deadline_exceeded) == bad.n_requests
        # rerouted traffic still completes within deadline
        assert bad.in_deadline_fraction > 0.95

    def test_fail_replica_must_be_in_range(self):
        with pytest.raises(Exception):
            run_cluster_workload(cluster_cfg(n_replicas=2, fail_replica=5))


class TestElastic:
    def test_scales_up_under_burst_and_back_down(self):
        stats = run_cluster_workload(cluster_cfg(
            n_replicas=1, n_requests=8000, entries=entries(6),
            elastic=ElasticConfig(max_replicas=6)))
        assert stats.n_scale_up >= 1
        assert stats.n_moved_fingerprints >= 1
        assert stats.n_completed == stats.n_requests
        # spawned replicas actually served traffic
        assert sum(1 for n in stats.routed.values() if n > 0) >= 2

    def test_respects_max_replicas(self):
        stats = run_cluster_workload(cluster_cfg(
            n_replicas=1, n_requests=6000,
            elastic=ElasticConfig(max_replicas=2)))
        assert stats.n_replicas <= 2

    def test_spawned_replica_rewarms_from_its_spawn_time(self, monkeypatch):
        """With the warmer on, a scale-up's re-warm of the moved
        fingerprints is booked on the new replica's prefetch lane from
        the spawn time, never before it (not from t=0)."""
        from repro.cluster import driver as cluster_driver
        from repro.pipeline import PrefetchLane

        spawned = {}    # id(prefetch lane) -> virtual spawn time
        first = {}      # id(prefetch lane) -> `now` of its first booking
        real_autoscale = cluster_driver._Cluster.autoscale
        real_schedule = PrefetchLane.schedule

        def autoscale(self, now, last_action):
            before = set(self.replicas)
            got = real_autoscale(self, now, last_action)
            for rid in set(self.replicas) - before:
                spawned[id(self.replicas[rid]._lane)] = now
            return got

        def schedule(self, now, cost_s, **kw):
            first.setdefault(id(self), now)
            return real_schedule(self, now, cost_s, **kw)

        monkeypatch.setattr(cluster_driver._Cluster, "autoscale", autoscale)
        monkeypatch.setattr(PrefetchLane, "schedule", schedule)
        stats = run_cluster_workload(cluster_cfg(
            n_replicas=1, n_requests=8000, entries=entries(6), warmer=True,
            elastic=ElasticConfig(max_replicas=6)))
        assert stats.n_scale_up >= 1 and stats.n_moved_fingerprints >= 1
        booked = [lane for lane in spawned if lane in first]
        assert booked, "no spawned replica re-warmed anything"
        for lane in booked:
            assert first[lane] >= spawned[lane] > 0.0

    def test_validation(self):
        with pytest.raises(Exception):
            ElasticConfig(min_replicas=0)
        with pytest.raises(Exception):
            ElasticConfig(scale_up_depth=1.0, scale_down_depth=2.0)


class TestConfigValidation:
    def test_spmm_mix_rejected_naming_the_field(self):
        """The cluster driver replays SpMV reads only; an SpMM mix it
        inherits from WorkloadConfig must fail, not be ignored."""
        with pytest.raises(ValidationError, match="spmm_mix"):
            run_cluster_workload(cluster_cfg(spmm_mix=0.1,
                                             spmm_ks=(16, 32)))

    @pytest.mark.parametrize("interval", [0.0, -5e-6])
    def test_nonpositive_probe_interval_rejected(self, interval):
        """A probe interval <= 0 would never advance the probe clock."""
        with pytest.raises(ValidationError, match="probe_interval_s"):
            run_cluster_workload(cluster_cfg(n_requests=50,
                                             probe_interval_s=interval))

    @pytest.mark.parametrize("field, value", [
        ("update_mix", 1.5), ("update_mix", -0.1), ("n_requests", 0)])
    def test_traffic_range_checks_match_the_single_driver(self, field,
                                                          value):
        """Both drivers draw their traffic through one model, so a bad
        traffic knob fails the same way in each."""
        kw = dict(n_requests=50, seed=11, entries=entries(2))
        kw[field] = value
        with pytest.raises(ValidationError) as single:
            run_workload(WorkloadConfig(**kw))
        with pytest.raises(ValidationError) as cluster:
            run_cluster_workload(ClusterConfig(n_replicas=2, **kw))
        assert str(cluster.value) == str(single.value)
        assert field in str(cluster.value)


class TestObservability:
    def test_shared_tracer_attributes_per_replica(self):
        obs = Obs(tracer=Tracer())
        stats = run_cluster_workload(cluster_cfg(n_replicas=2), obs=obs)
        by_replica = obs.tracer.device_time_by_attr("replica")
        assert set(by_replica) <= {"r0", "r1"}
        assert len(by_replica) >= 2
        for rid, sec in by_replica.items():
            assert sec > 0.0
        # phase attribution covers the cluster's device time exactly
        total = stats.device_busy_s + sum(
            s.preprocess_s for s in stats.replicas.values())
        att = obs.tracer.attribution(total)
        assert att["coverage"] == pytest.approx(1.0, rel=1e-9)

    def test_summary_table_renders(self):
        stats = run_cluster_workload(cluster_cfg())
        table = stats.summary_table()
        assert "replicas" in table and "failovers" in table

    def test_health_snapshot_in_stats(self):
        stats = run_cluster_workload(cluster_cfg(
            n_replicas=2, fail_replica=1, n_requests=3000,
            deadline_s=0.02))
        assert "r1" in stats.health
        assert stats.n_probes > 0


class TestWarmStart:
    def test_ring_scoped_warm_start(self, tmp_path):
        """Each replica preloads only its ring-assigned fingerprints
        from the shared store; first-touch rebuilds disappear."""
        store_dir = tmp_path / "plans"
        cold = run_cluster_workload(cluster_cfg(
            n_replicas=2, store=store_dir))
        warm = run_cluster_workload(cluster_cfg(
            n_replicas=2, store=store_dir, warm_start=True))
        cold_loads = sum(s.store_loads for s in cold.replicas.values())
        warm_loads = sum(s.store_loads for s in warm.replicas.values())
        assert warm_loads >= cold_loads
        assert warm.n_completed == warm.n_requests
        # warm replicas preprocess strictly less than cold ones
        warm_pre = sum(s.preprocess_s for s in warm.replicas.values())
        cold_pre = sum(s.preprocess_s for s in cold.replicas.values())
        assert warm_pre < cold_pre


def merged_latencies(stats):
    return [lat for rid in sorted(stats.replicas)
            for lat in stats.replicas[rid].latencies_s]


class TestChaosScenarios:
    def test_slow_replica_is_deterministic(self):
        cfg = dict(n_replicas=4, slow_replica=1, deadline_s=0.004)
        a = run_cluster_workload(cluster_cfg(**cfg))
        b = run_cluster_workload(cluster_cfg(**cfg))
        assert merged_latencies(a) == merged_latencies(b)
        assert a.routed == b.routed

    def test_slow_replica_inflates_its_latency(self):
        base = run_cluster_workload(cluster_cfg(n_replicas=4))
        slow = run_cluster_workload(cluster_cfg(n_replicas=4,
                                                slow_replica=1,
                                                slow_factor=8.0))
        # same placement, so compare the slowed replica against itself
        assert np.mean(slow.replicas["r1"].latencies_s) > \
            2.0 * np.mean(base.replicas["r1"].latencies_s)

    def test_straggler_demotion_soft_drains(self):
        """With straggler_factor set, the slow-but-alive replica loses
        most of its traffic without ever being marked down.  Uses the
        representative-suite pool: its modeled times are large enough
        that device slowness, not queueing noise, drives the EWMA."""
        base = dict(n_requests=1500, n_replicas=4, seed=3,
                    deadline_s=0.004, slow_replica=1)
        plain = run_cluster_workload(ClusterConfig(**base))
        demoted = run_cluster_workload(ClusterConfig(
            **base, health=HealthConfig(straggler_factor=2.0)))
        assert demoted.routed["r1"] < plain.routed["r1"] / 2
        assert demoted.health["r1"]["straggler"]
        assert demoted.health["r1"]["healthy"]

    def test_partition_drops_link_then_recovers(self):
        cfg = cluster_cfg(n_requests=3000, n_replicas=4,
                          partition_replica=0, deadline_s=0.004)
        stats = run_cluster_workload(cfg)
        # health saw the partition and the recovery
        assert stats.n_transitions_down >= 1
        assert stats.n_transitions_up >= 1
        assert stats.n_failover > 0
        # logical accounting holds: nothing silently vanished
        assert stats.overload_enabled
        assert stats.lost_requests == 0
        again = run_cluster_workload(cfg)
        assert merged_latencies(stats) == merged_latencies(again)

    def test_chaos_knobs_validated(self):
        with pytest.raises(Exception):
            run_cluster_workload(cluster_cfg(slow_replica=9))
        with pytest.raises(Exception):
            run_cluster_workload(cluster_cfg(partition_replica=-1))
        with pytest.raises(Exception):
            run_cluster_workload(cluster_cfg(
                partition_replica=0, partition_window=(0.8, 0.2)))


class TestOverloadIntegration:
    def test_disabled_features_keep_bit_parity(self):
        """An OverloadConfig with every mechanism off must not change a
        single latency vs no config at all (RNG-stream parity)."""
        from repro.overload import OverloadConfig

        plain = run_cluster_workload(cluster_cfg(n_replicas=3))
        noop = run_cluster_workload(cluster_cfg(
            n_replicas=3, overload=OverloadConfig()))
        assert merged_latencies(plain) == merged_latencies(noop)
        assert plain.n_completed == noop.n_completed

    def test_hedging_accounts_every_request(self):
        from repro.overload import HedgeConfig, OverloadConfig

        stats = run_cluster_workload(cluster_cfg(
            n_requests=2000, n_replicas=4, slow_replica=1,
            deadline_s=0.004,
            overload=OverloadConfig(hedge=HedgeConfig())))
        assert stats.overload_enabled
        assert stats.n_offered == 2000
        assert stats.lost_requests == 0
        assert stats.n_hedges_won <= stats.n_hedges_issued
        # every resolved pair burns exactly one loser (either side)
        assert stats.n_hedges_wasted <= 2 * stats.n_hedges_issued
        assert stats.n_hedges_issued > 0

    def test_admission_sheds_batch_first(self):
        from repro.overload import AdmissionConfig, OverloadConfig

        stats = run_cluster_workload(cluster_cfg(
            n_requests=2000, n_replicas=2, deadline_s=0.004,
            overload=OverloadConfig(
                admission=AdmissionConfig(rate_rps=1e5, burst=16.0),
                batch_fraction=0.4)))
        assert stats.n_shed > 0
        assert stats.lost_requests == 0
        p = stats.priorities
        shed_rate = {k: p[k]["shed"] / p[k]["offered"] for k in p}
        assert shed_rate["batch"] > shed_rate["interactive"]

    def test_retry_budget_bounds_cluster_retries(self):
        from repro.overload import OverloadConfig, RetryBudgetConfig
        from repro.serve import ChaosConfig

        rb = RetryBudgetConfig(ratio=0.1, initial=5.0, cap=50.0)
        stats = run_cluster_workload(cluster_cfg(
            n_requests=2000, n_replicas=2, deadline_s=0.004,
            chaos=ChaosConfig(fault_rate=0.2, seed=7),
            overload=OverloadConfig(retry_budget=rb)))
        assert stats.retry_budget_granted <= \
            rb.initial + rb.ratio * stats.n_offered
        assert stats.n_retries <= stats.retry_budget_granted
        assert stats.lost_requests == 0

    def test_overload_summary_table_renders(self):
        from repro.overload import HedgeConfig, OverloadConfig

        stats = run_cluster_workload(cluster_cfg(
            n_replicas=3, slow_replica=0, deadline_s=0.004,
            overload=OverloadConfig(hedge=HedgeConfig())))
        table = stats.summary_table()
        assert "hedges issued / won / wasted" in table
        assert "lost requests" in table


class TestSharedDerivation:
    """A broadcast delta is derived once per cluster run: replicas whose
    input plan provably derives the same version adopt it."""

    @staticmethod
    def _count_patches(monkeypatch):
        from repro.core import delta as core_delta

        calls = []
        real = core_delta.apply_update

        def counting(plan, delta, **kw):
            calls.append(delta)
            return real(plan, delta, **kw)

        monkeypatch.setattr(core_delta, "apply_update", counting)
        return calls

    def test_one_derivation_per_delta(self, monkeypatch):
        calls = self._count_patches(monkeypatch)
        stats = run_cluster_workload(cluster_cfg(
            n_replicas=3, n_requests=1200, update_mix=0.1,
            structural_frac=0.3, rate_rps=150000.0))
        per_replica = [s.delta_value_updates + s.delta_structural_updates
                       for s in stats.replicas.values()]
        assert per_replica == [stats.n_updates] * 3 and stats.n_updates > 0
        assert len(calls) == stats.n_updates
        assert len({id(d) for d in calls}) == stats.n_updates

    def test_divergent_input_derives_its_own(self, monkeypatch, tmp_path,
                                             rng):
        """Replica r2 loses its plans mid-stream and reloads from the
        store, so its input is no longer the shared derivation's: it
        patches for itself, and every version it holds equals a
        standalone registry fed the same stream and the same eviction —
        and, like every replica's, a from_csr rebuild."""
        from repro.core import DASPMatrix, dasp_spmv, random_delta
        from repro.gpu.device import get_device
        from repro.serve.plan_cache import PlanRegistry, matrix_fingerprint
        from repro.store import PlanStore

        from .conftest import ROW_PROFILES, random_csr
        from .test_delta_versioning import evolve

        matrix = random_csr(80, 400, rng,
                            row_len_sampler=ROW_PROFILES["mixed"])
        fp = matrix_fingerprint(matrix)
        dev = get_device("A100")
        replicas = [PlanRegistry(store=PlanStore(tmp_path / "shared"))
                    for _ in range(3)]
        alone = PlanRegistry(store=PlanStore(tmp_path / "alone"))
        for reg in (*replicas, alone):
            reg.get(matrix, fingerprint=fp)
        calls = self._count_patches(monkeypatch)
        memo: dict = {}
        x = rng.standard_normal(matrix.shape[1])
        csr = matrix
        evict_at = 3
        for v in range(1, 7):
            d = random_delta(csr, rng, structural=v % 2 == 1, n_entries=6)
            prev, csr = csr, evolve(csr, d)
            if v == evict_at:
                # evicted, then reloaded by a read before the delta lands
                for reg in (replicas[2], alone):
                    reg.clear()
                    cur = reg.versioned_key(fp, reg.version_of(fp))
                    assert reg.get_ex(None, fingerprint=cur)[1] == "store"
            before = len(calls)
            got = [reg.update(fp, d, csr=prev, derivations=memo,
                              persist=i == 0)
                   for i, reg in enumerate(replicas)]
            derived = len(calls) - before
            _, info_alone, plan_alone = alone.update(fp, d)
            # one shared derivation, plus r2's own while it diverges
            own = got[2][2] is not got[0][2]
            if v <= evict_at:
                assert own == (v == evict_at), v
            assert derived == 1 + own, v
            assert got[0][2] is got[1][2]
            _, info2, plan2 = got[2]
            assert info2.seconds(dev) == info_alone.seconds(dev)
            assert np.array_equal(dasp_spmv(plan2, x),
                                  dasp_spmv(plan_alone, x))
            ref = dasp_spmv(DASPMatrix.from_csr(csr), x)
            for version, info, plan in got:
                assert version == v
                assert np.array_equal(dasp_spmv(plan, x), ref)

    def test_absent_plan_adopts_without_building(self, monkeypatch,
                                                 tmp_path, rng):
        """A replica with no resident plan adopts a derivation whose
        input is clean with the default build's layout instead of
        rebuilding that input from CSR — and, as the home replica,
        seeds the store with the recorded input.  A dirty recorded
        input still means a rebuild."""
        from repro.core import DASPMatrix, dasp_spmv, random_delta
        from repro.serve.plan_cache import PlanRegistry, matrix_fingerprint
        from repro.store import PlanStore

        from .conftest import ROW_PROFILES, random_csr
        from .test_delta_versioning import evolve

        matrix = random_csr(80, 400, rng,
                            row_len_sampler=ROW_PROFILES["mixed"])
        fp = matrix_fingerprint(matrix)
        first, bare = PlanRegistry(), PlanRegistry()
        home = PlanRegistry(store=PlanStore(tmp_path / "s"))
        first.get(matrix, fingerprint=fp)
        builds = []
        real = DASPMatrix.from_csr

        def counting(cls, *args, **kw):
            builds.append(args)
            return real(*args, **kw)

        monkeypatch.setattr(DASPMatrix, "from_csr", classmethod(counting))
        memo: dict = {}
        d1 = random_delta(matrix, rng, structural=True, n_entries=6)
        v1, info1, plan1 = first.update(fp, d1, csr=matrix, derivations=memo)
        builds.clear()
        for reg, persist in ((bare, False), (home, True)):
            assert reg.update(fp, d1, csr=matrix, derivations=memo,
                              persist=persist) == (v1, info1, plan1)
        assert builds == []
        csr1 = evolve(matrix, d1)
        x = rng.standard_normal(matrix.shape[1])
        fresh = PlanRegistry(store=PlanStore(tmp_path / "s"))
        fresh.start_at(fp, 1)
        stored, source, _ = fresh.get_ex(None, fingerprint=fp + "@v1")
        assert source == "store"
        assert np.array_equal(dasp_spmv(stored, x),
                              dasp_spmv(real(csr1), x))
        # v1 carries an overlay: a replica without it must rebuild
        d2 = random_delta(csr1, rng, structural=False, n_entries=6)
        first.update(fp, d2, csr=csr1, derivations=memo)
        bare.clear()
        builds.clear()
        bare.update(fp, d2, csr=csr1, derivations=memo)
        assert [a[0].shape for a in builds] == [csr1.shape]
