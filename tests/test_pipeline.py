"""Tests for repro.pipeline — async pipelined execution + speculative
plan warming — and the warm-path bugfixes that shipped with it."""

import threading
import time

import numpy as np
import pytest

from repro._util import ValidationError
from repro.core import (
    BlockPlan,
    DASPMatrix,
    choose_spmm_strategy,
    overlap_schedule,
    reorder_from_perm,
    reorder_rows,
    spmm_block_events,
    spmm_tiled_overlap_cost,
)
from repro.core.spmm import gather_analysis
from repro.gpu.device import get_device
from repro.gpu.tiles import mma_tile_stats
from repro.obs import Obs
from repro.pipeline import (
    PipelineConfig,
    PrefetchLane,
    SpeculativeWarmer,
    WarmerConfig,
    zipf_fit,
)
from repro.serve import (
    PlanRegistry,
    PlanStore,
    SpMMRequest,
    WorkloadConfig,
    matrix_fingerprint,
    plan_nbytes,
    run_workload,
)
from repro.shard import lpt_assign, lpt_makespan, sharded_batch_cost
from tests.conftest import random_csr


# ----------------------------------------------------------------------
# the modeled prefetch lane
# ----------------------------------------------------------------------
class TestPrefetchLane:
    def test_single_lane_serializes(self):
        lane = PrefetchLane(obs=Obs())
        r1 = lane.schedule(0.0, 2.0)
        r2 = lane.schedule(1.0, 3.0)   # queues behind the first load
        assert r1 == 2.0 and r2 == 5.0
        assert lane.busy_until == 5.0

    def test_two_lanes_overlap(self):
        lane = PrefetchLane(obs=Obs(), lanes=2)
        assert lane.schedule(0.0, 2.0) == 2.0
        assert lane.schedule(1.0, 3.0) == 4.0   # second engine, starts at 1

    def test_counters(self):
        obs = Obs()
        lane = PrefetchLane(obs=obs)
        lane.schedule(0.0, 1.5, kind="load")
        lane.schedule(0.0, 0.5, kind="build")
        assert obs.counter("pipeline.prefetch_total").value == 2
        assert obs.counter("pipeline.prefetch_seconds_total").value == 2.0
        assert obs.counter("pipeline.prefetch_kind_total",
                           {"kind": "load"}).value == 1

    def test_validation(self):
        with pytest.raises(ValidationError):
            PrefetchLane(obs=Obs(), lanes=0)
        with pytest.raises(ValidationError):
            PipelineConfig(lanes=0)


# ----------------------------------------------------------------------
# Zipf fitting + the speculative warmer
# ----------------------------------------------------------------------
class TestZipfFit:
    def test_recovers_exponent(self):
        s = 1.4
        counts = (1000 * np.arange(1, 30, dtype=float) ** -s).astype(int)
        assert zipf_fit(counts) == pytest.approx(s, abs=0.1)

    def test_default_when_uninformative(self):
        assert zipf_fit([]) == 1.1
        assert zipf_fit([17]) == 1.1
        assert zipf_fit([5, 0, 0], default=2.0) == 2.0

    def test_clamped(self):
        assert zipf_fit([10 ** 9, 1]) <= 10.0
        assert zipf_fit([3, 5, 9]) == 0.0   # rising counts -> flat floor


class TestSpeculativeWarmer:
    def test_silent_until_min_observed(self):
        w = SpeculativeWarmer(WarmerConfig(min_observed=5), obs=Obs())
        for fp in ("a", "b"):
            w.register(fp)
        for _ in range(4):
            w.observe("a")
        assert w.due(resident=lambda f: False) == []
        w.observe("a")
        assert "b" in w.due(resident=lambda f: False)

    def test_popular_first_and_unobserved_tail(self):
        w = SpeculativeWarmer(WarmerConfig(min_observed=1, max_per_tick=3),
                              obs=Obs())
        for fp in ("cold1", "hot", "cold2"):
            w.register(fp)
        for _ in range(6):
            w.observe("hot")
        est = w.estimate()
        assert est[0][0] == "hot"
        # unobserved matrices keep registration order in the tail
        assert [fp for fp, _ in est[1:]] == ["cold1", "cold2"]
        assert sum(share for _, share in est) == pytest.approx(1.0)

    def test_nominates_once_and_reset(self):
        w = SpeculativeWarmer(WarmerConfig(min_observed=1), obs=Obs())
        w.register("a")
        w.register("b")
        w.observe("a")
        first = w.due(resident=lambda f: False)
        assert set(first) == {"a", "b"}
        assert w.due(resident=lambda f: False) == []
        w.reset("b")
        assert w.due(resident=lambda f: False) == ["b"]

    def test_skips_resident(self):
        w = SpeculativeWarmer(WarmerConfig(min_observed=1), obs=Obs())
        for fp in ("a", "b"):
            w.register(fp)
        w.observe("a")
        assert w.due(resident=lambda f: f == "a") == ["b"]

    def test_config_validation(self):
        with pytest.raises(ValidationError):
            WarmerConfig(min_share=1.5)
        with pytest.raises(ValidationError):
            WarmerConfig(max_per_tick=0)


# ----------------------------------------------------------------------
# double-buffered kernel pricing (numerics must never change)
# ----------------------------------------------------------------------
class TestOverlapSchedule:
    def test_hand_example(self):
        # load0 + max(c0, load1) + max(c1, load2) + c2
        assert overlap_schedule([1.0, 2.0, 1.0],
                                [3.0, 1.0, 2.0]) \
            == 1.0 + max(3.0, 2.0) + max(1.0, 1.0) + 2.0

    def test_never_beats_compute_or_single_load(self):
        loads, computes = [0.5, 0.4, 0.3], [1.0, 0.2, 0.7]
        t = overlap_schedule(loads, computes)
        assert t >= sum(computes)
        assert t <= sum(loads) + sum(computes)

    def test_tiled_overlap_bounds(self, rng):
        plan = DASPMatrix.from_csr(random_csr(96, 200, rng))
        ev = spmm_block_events(plan, gather_analysis(plan, "A100"), 64,
                               tile_k=32, stats=mma_tile_stats(plan.csr))
        serial, overlapped = spmm_tiled_overlap_cost(
            ev, get_device("A100"), 64, tile_k=32, dtype_bits=64)
        assert 0.0 < overlapped <= serial

    def test_sharded_double_buffer_bitwise(self, rng):
        from repro.shard import build_sharded_plan

        csr = random_csr(120, 150, rng)
        sp = build_sharded_plan(csr, 3)
        cost = sharded_batch_cost(sp, get_device("A100"), 8, workers=2)
        db_cost = sharded_batch_cost(sp, get_device("A100"), 8, workers=2,
                                     double_buffer=True)
        assert 0.0 < db_cost.makespan <= cost.makespan
        assert db_cost.serial == cost.serial

    def test_lpt_assign_matches_makespan(self):
        times = [3.0, 1.0, 2.0, 5.0, 0.5]
        lanes = lpt_assign(times, 2)
        assert sorted(i for lane in lanes for i in lane) == list(range(5))
        assert max(sum(times[i] for i in lane) for lane in lanes) \
            == lpt_makespan(times, 2)


class TestReorderFromPerm:
    def test_identity_is_natural(self, rng):
        csr = random_csr(48, 64, rng)
        ro = reorder_from_perm(csr, np.arange(48))
        assert ro.candidate == "natural"

    def test_matches_derived_reorder(self, rng):
        csr = random_csr(96, 128, rng,
                         row_len_sampler=lambda r, m: r.integers(0, 40, m))
        derived = reorder_rows(csr)
        loaded = reorder_from_perm(csr, derived.perm)
        assert np.array_equal(loaded.perm, derived.perm)
        assert np.array_equal(loaded.inv, derived.inv)
        plan = DASPMatrix.from_csr(csr)
        a = choose_spmm_strategy(plan, 64, get_device("A100"))
        b = choose_spmm_strategy(plan, 64, get_device("A100"),
                                 order=BlockPlan(plan, loaded))
        assert a.name == b.name and a.modeled_s == b.modeled_s


# ----------------------------------------------------------------------
# satellite 1: warm() rides the registry single-flight
# ----------------------------------------------------------------------
class TestWarmSingleFlight:
    def test_concurrent_warm_and_get_load_once(self, tmp_path, rng):
        csr = random_csr(80, 100, rng)
        fp = matrix_fingerprint(csr)
        store = PlanStore(tmp_path / "s")
        store.put(fp, DASPMatrix.from_csr(csr))

        obs = Obs()
        reg = PlanRegistry(store=store, obs=obs)
        loads = []
        orig = store.load

        def slow_load(key, **kw):
            loads.append(key)
            time.sleep(0.05)
            return orig(key, **kw)

        store.load = slow_load
        start = threading.Barrier(6)
        results = []

        def do_warm():
            start.wait()
            results.append(("warm", reg.warm(fp)))

        def do_get():
            start.wait()
            plan, _, _ = reg.get_ex(csr, fingerprint=fp)
            results.append(("get", plan))

        threads = [threading.Thread(target=do_warm) for _ in range(3)] \
            + [threading.Thread(target=do_get) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # exactly one disk read, one counted load — no double-count
        assert len(loads) == 1
        assert obs.counter("serve.plan_cache.store_loads_total").value == 1
        assert obs.counter("store.hits_total").value == 1
        assert reg.peek(fp) is not None

    def test_warm_does_not_block_behind_inflight_build(self, rng):
        csr = random_csr(40, 60, rng)
        fp = matrix_fingerprint(csr)
        reg = PlanRegistry()
        release = threading.Event()
        building = threading.Event()

        def slow_builder(matrix):
            building.set()
            assert release.wait(5.0)
            return DASPMatrix.from_csr(matrix)

        t = threading.Thread(
            target=lambda: reg.get_ex(csr, fingerprint=fp,
                                      builder=slow_builder))
        t.start()
        assert building.wait(5.0)
        # load_only must report "pending" without waiting for the build
        t0 = time.perf_counter()
        plan, source, load_s = reg.get_ex(None, fingerprint=fp,
                                          load_only=True)
        elapsed = time.perf_counter() - t0
        assert (plan, source, load_s) == (None, "pending", 0.0)
        assert elapsed < 1.0
        assert reg.warm(fp) is None     # warm() maps pending -> no-op
        release.set()
        t.join()
        assert reg.peek(fp) is not None


# ----------------------------------------------------------------------
# satellite 3: eviction converges with a shared metrics registry
# ----------------------------------------------------------------------
class TestEvictionConvergence:
    def test_two_registries_shared_obs_keep_newest_plan(self, rng):
        mats = [random_csr(60, 120, rng) for _ in range(4)]
        plans = [DASPMatrix.from_csr(m) for m in mats]
        budget = int(plan_nbytes(plans[0]) * 2.5)
        obs = Obs()
        # two registries share one Obs handle -> the byte *gauge* is the
        # sum of both residents; eviction must key on local accounting
        a = PlanRegistry(budget, obs=obs)
        b = PlanRegistry(budget, obs=obs)
        for m in mats:
            a.get(m)
            b.get(m)
        for reg in (a, b):
            assert len(reg._plans) >= 1          # never evicts to empty
            assert reg.bytes_cached <= reg.budget_bytes
            assert matrix_fingerprint(mats[-1]) in reg
            resident = sum(plan_nbytes(p) for p, _ in reg._plans.values())
            assert reg.bytes_cached == resident  # gauge drift contained
        # the shared gauge reports the true total across both registries
        assert obs.gauge("serve.plan_cache.bytes").value \
            == a.bytes_cached + b.bytes_cached

    def test_oversized_insert_rejected_cache_intact(self, rng):
        from repro.resilience.errors import PlanTooLargeError

        small = random_csr(40, 60, rng)
        big = random_csr(200, 300, rng)
        reg = PlanRegistry(plan_nbytes(DASPMatrix.from_csr(big)) // 2)
        reg.get(small)
        before = reg.bytes_cached
        with pytest.raises(PlanTooLargeError):
            reg.get(big)
        # the resident working set survives the rejected insert
        assert matrix_fingerprint(small) in reg
        assert reg.bytes_cached == before


# ----------------------------------------------------------------------
# virtual-time driver: pipelined execution
# ----------------------------------------------------------------------
def _base_cfg(**overrides):
    kw = dict(n_requests=600, n_matrices=3, seed=11)
    kw.update(overrides)
    return WorkloadConfig(**kw)


class TestDriverPipeline:
    def test_off_is_bit_identical_default(self):
        """pipeline=False must not perturb anything (same RNG stream)."""
        a = run_workload(_base_cfg())
        b = run_workload(_base_cfg(pipeline=False, warmer=False,
                                   spmm_mix=0.0))
        assert a.latencies_s == b.latencies_s
        assert a.device_busy_s == b.device_busy_s
        assert a.preprocess_s == b.preprocess_s

    def test_on_preserves_work_and_results(self):
        off = run_workload(_base_cfg())
        on = run_workload(_base_cfg(pipeline=True))
        # identical traffic, batches and kernel work — only *when* plan
        # acquisition is charged moves (device -> prefetch lane)
        assert on.n_completed == off.n_completed == 600
        assert on.n_batches == off.n_batches
        assert on.batch_hist == off.batch_hist
        # same per-batch kernel times, summed in a different order
        assert on.device_busy_s == pytest.approx(off.device_busy_s,
                                                 rel=1e-12)
        assert on.preprocess_s == pytest.approx(off.preprocess_s,
                                                rel=1e-12)
        assert on.prefetches == 3
        # cold batches parked instead of stalling the device
        assert on.parked_batches > 0
        assert on.duration_s <= off.duration_s

    def test_on_deterministic(self):
        a = run_workload(_base_cfg(pipeline=True, warmer=True))
        b = run_workload(_base_cfg(pipeline=True, warmer=True))
        assert a.latencies_s == b.latencies_s
        assert a.duration_s == b.duration_s

    def test_warmer_prebuilds_before_first_request(self, tmp_path):
        cfg = _base_cfg(n_matrices=4, store=tmp_path / "s")
        run_workload(cfg)   # populate the store
        warm = run_workload(_base_cfg(
            n_matrices=4, store=tmp_path / "s", pipeline=True,
            warmer=WarmerConfig(min_observed=4, max_per_tick=4)))
        assert warm.warms > 0
        assert warm.warm_loads + warm.warm_builds > 0
        assert warm.n_completed == 600
        # warmed loads are cheaper than the cold run's rebuilds
        cold = run_workload(_base_cfg(n_matrices=4))
        assert warm.preprocess_s < cold.preprocess_s

    def test_warm_start_rides_warmer(self, tmp_path):
        """With the warmer on, startup warm-start stays the store-only
        preload off the clock: every pool matrix is loaded before
        traffic and none is booked on the prefetch lane from t=0, so
        with nothing evicted the warmer never acts and the run is the
        warm start without it, request for request."""
        cfg = _base_cfg(store=tmp_path / "s")
        run_workload(cfg)
        stats = run_workload(_base_cfg(store=tmp_path / "s",
                                       warm_start=True, warmer=True))
        assert stats.store_loads == 3 and stats.warms == 0
        assert stats.n_completed == 600
        plain = run_workload(_base_cfg(store=tmp_path / "s", warm_start=True))
        assert stats.latencies_s == plain.latencies_s
        assert stats.preprocess_s == plain.preprocess_s

    def test_attribution_coverage_with_pipeline(self, tmp_path):
        from repro.obs import Tracer

        cfg = _base_cfg(store=tmp_path / "s")
        run_workload(cfg)
        obs = Obs(tracer=Tracer(clock=lambda: 0.0))
        stats = run_workload(_base_cfg(store=tmp_path / "s", pipeline=True,
                                       warmer=True), obs=obs)
        total = stats.device_busy_s + stats.preprocess_s
        att = obs.tracer.attribution(total)
        assert att["coverage"] >= 0.95

    def test_summary_table_has_pipeline_section(self):
        table = run_workload(_base_cfg(pipeline=True)).summary_table()
        assert "prefetches (modeled lane time)" in table
        assert "parked batches" in table
        # pipeline-off tables keep the old shape
        assert "parked" not in run_workload(_base_cfg()).summary_table()


# ----------------------------------------------------------------------
# satellite 2: server consults persisted reorder perms before deriving
# ----------------------------------------------------------------------
class TestServerReorderAux:
    def _csr(self, rng):
        return random_csr(96, 128, rng,
                          row_len_sampler=lambda r, m: r.integers(0, 40, m))

    def test_loaded_perm_bitwise_equals_derived(self, tmp_path, rng):
        from repro.serve import SpMVServer

        csr = self._csr(rng)
        fp = matrix_fingerprint(csr)
        X = rng.uniform(-1, 1, (csr.shape[1], 24))
        ro = reorder_rows(csr)
        store = PlanStore(tmp_path / "s")
        store.put(fp, DASPMatrix.from_csr(csr),
                  aux={"spmm.reorder_perm": ro.perm, "spmm.reorder_inv": ro.inv})

        with SpMVServer(workers=1, store=store) as s:
            s.register(csr)
            fut = s.submit(SpMMRequest(fp, X))
            s.flush()
            y_loaded = fut.result(timeout=10.0)
            obs = s.obs
            assert obs.counter("spmm.reorder.loaded_total").value == 1
            assert obs.counter("spmm.reorder.derived_total").value == 0

        with SpMVServer(workers=1) as s:
            s.register(csr)
            fut = s.submit(SpMMRequest(fp, X))
            s.flush()
            y_derived = fut.result(timeout=10.0)
            assert s.obs.counter("spmm.reorder.derived_total").value == 1
            assert s.obs.counter("spmm.reorder.loaded_total").value == 0

        assert np.array_equal(y_loaded, y_derived)

    def test_counted_once_per_matrix(self, rng):
        from repro.serve import SpMVServer

        csr = self._csr(rng)
        with SpMVServer(workers=1) as s:
            fp = s.register(csr)
            for k in (16, 32):
                fut = s.submit(SpMMRequest(fp, rng.uniform(-1, 1,
                                                           (csr.shape[1], k))))
                s.flush()
                fut.result(timeout=10.0)
            # two (fp, k) strategies, one reorder derivation
            assert s.obs.counter("spmm.reorder.derived_total").value == 1


class TestLargeKOrderPerVersion:
    """The row order is derived per plan version key; a stored perm is
    kept per base fingerprint and re-priced on every version's rows."""

    def _csr(self, rng):
        return random_csr(96, 128, rng,
                          row_len_sampler=lambda r, m: r.integers(0, 40, m))

    @staticmethod
    def _spmm(s, fp, rng, k):
        fut = s.submit(SpMMRequest(fp, rng.uniform(-1, 1, (128, k))))
        s.flush()
        return fut.result(timeout=10.0)

    def test_stored_perm_prices_each_version_with_its_stats(self, tmp_path,
                                                            rng):
        """Regression: the stored perm became one ReorderResult per base
        fingerprint, so v1 was priced with v0's tile stats."""
        from repro.core import random_delta
        from repro.serve import SpMVServer

        csr = self._csr(rng)
        fp = matrix_fingerprint(csr)
        ro = reorder_rows(csr)
        store = PlanStore(tmp_path / "s")
        store.put(fp, DASPMatrix.from_csr(csr),
                  aux={"spmm.reorder_perm": ro.perm, "spmm.reorder_inv": ro.inv})
        delta = random_delta(csr, rng, structural=True, n_entries=100,
                             insert_frac=1.0)
        with SpMVServer(workers=1, store=store) as s:
            s.register(csr)
            self._spmm(s, fp, rng, 32)
            assert s.update(fp, delta) == 1
            plan = s.registry.peek(f"{fp}@v1")
            self._spmm(s, fp, rng, 32)
            fresh = reorder_from_perm(plan.csr, ro.perm)
            assert fresh.stats != ro.stats
            want = choose_spmm_strategy(plan, 32, s.core.cost.device,
                                        order=BlockPlan(plan, fresh))
            assert s.core.cost._entries[(f"{fp}@v1", 32)][0] \
                == want.modeled_s
            assert s.obs.counter("spmm.reorder.loaded_total").value == 2
            assert s.obs.counter("spmm.reorder.derived_total").value == 0

    def test_one_derivation_per_version_key(self, rng, monkeypatch):
        """Three tile analyses (natural + two candidate orders) and one
        order derivation per version key, whatever the number of k."""
        import repro.core.spmm_block as sb
        from repro.core import random_delta
        from repro.serve import SpMVServer

        calls = []
        real = sb.mma_tile_stats
        monkeypatch.setattr(sb, "mma_tile_stats",
                            lambda *a, **kw: calls.append(1) or real(*a, **kw))
        csr = self._csr(rng)
        with SpMVServer(workers=1) as s:
            fp = s.register(csr)
            for version in range(3):
                for k in (16, 32, 64, 16, 128):
                    self._spmm(s, fp, rng, k)
                assert len(calls) == 3 * (version + 1)
                assert s.obs.counter(
                    "spmm.reorder.derived_total").value == version + 1
                s.update(fp, random_delta(s.core.matrices[fp], rng,
                                          structural=True))

    def test_retired_versions_drop_their_permuted_plans(self, rng,
                                                       monkeypatch):
        """After N updates under SpMM traffic, only the versions the
        registry retains (v and v-1) keep a permuted plan alive."""
        import gc
        import weakref

        from repro.core import random_delta
        from repro.formats import CSRMatrix
        from repro.serve import SpMVServer

        permuted = []
        real = CSRMatrix.permute_rows

        def tracked(self, perm):
            out = real(self, perm)
            permuted.append(weakref.ref(out))
            return out

        monkeypatch.setattr(CSRMatrix, "permute_rows", tracked)
        csr = self._csr(rng)
        with SpMVServer(workers=1) as s:
            fp = s.register(csr)
            for _ in range(6):
                self._spmm(s, fp, rng, 32)
                s.update(fp, random_delta(s.core.matrices[fp], rng,
                                          structural=True))
            assert s.stats.spmm_large_by_strategy.get("reordered", 0) == 6
            gc.collect()
            alive = [r for r in permuted if r() is not None]
            assert 1 <= len(alive) <= 2


# ----------------------------------------------------------------------
# warm-path bugfix: gated demand loads must resolve the device preset
# ----------------------------------------------------------------------
class TestDeviceRoundTrip:
    def test_marketing_name_resolves(self):
        spec = get_device("A100")
        assert get_device(spec.name) is spec
        assert get_device("A100-PCIe-40GB") is spec
        with pytest.raises(ValidationError):
            get_device("TPU")

    def test_demand_path_loads_from_populated_store(self, tmp_path):
        """Regression: the replica handed the store its device's
        marketing name (``A100-PCIe-40GB``); the load-vs-rebuild gate
        could not resolve it, every gated demand load raised, and a
        restart over a populated store silently served 100% of its
        traffic from the degraded fallback path."""
        cfg = _base_cfg(store=tmp_path / "s")
        run_workload(cfg)                      # publish artifacts
        restarted = run_workload(_base_cfg(store=tmp_path / "s"))
        assert restarted.degraded_requests == 0
        assert restarted.n_failed == 0
        # first touches now read the artifacts back (or the gate
        # legitimately priced a rebuild cheaper — but never an error)
        assert restarted.store_loads + restarted.cache_misses > 0
        assert restarted.n_completed == 600


# ----------------------------------------------------------------------
# satellite 4: SpMM blocks through the virtual-time driver
# ----------------------------------------------------------------------
class TestDriverSpmmMix:
    def test_mix_zero_is_bit_identical(self):
        a = run_workload(_base_cfg())
        b = run_workload(_base_cfg(spmm_mix=0.0, spmm_ks=(16, 999)))
        assert a.latencies_s == b.latencies_s

    def test_mix_serves_blocks_with_strategies(self):
        stats = run_workload(_base_cfg(spmm_mix=0.3, spmm_ks=(16, 64)))
        assert stats.n_completed == 600
        by_strat = stats.spmm_large_by_strategy
        assert sum(by_strat.values()) > 0
        assert set(by_strat) <= {"looped", "tiled", "reordered"}

    def test_mix_deterministic(self):
        a = run_workload(_base_cfg(spmm_mix=0.3))
        b = run_workload(_base_cfg(spmm_mix=0.3))
        assert a.latencies_s == b.latencies_s
        assert a.spmm_large_by_strategy == b.spmm_large_by_strategy

    def test_mix_with_pipeline_preserves_counts(self):
        off = run_workload(_base_cfg(spmm_mix=0.25))
        on = run_workload(_base_cfg(spmm_mix=0.25, pipeline=True))
        assert on.n_completed == off.n_completed
        assert on.spmm_large_by_strategy == off.spmm_large_by_strategy
        assert on.device_busy_s == pytest.approx(off.device_busy_s,
                                                 rel=1e-12)

    def test_cluster_n1_spmv_parity_with_pipeline(self):
        from repro.cluster import ClusterConfig, run_cluster_workload
        from repro.matrices import synthetic_collection

        kw = dict(n_requests=800, seed=11,
                  entries=synthetic_collection(3, seed=5), pipeline=True)
        single = run_workload(WorkloadConfig(**kw))
        cluster = run_cluster_workload(ClusterConfig(n_replicas=1, **kw))
        (replica,) = cluster.replicas.values()
        assert single.latencies_s == replica.latencies_s
        assert single.device_busy_s == replica.device_busy_s
        assert single.parked_batches == replica.parked_batches

    def test_validation(self):
        with pytest.raises(ValidationError):
            run_workload(_base_cfg(spmm_mix=1.5))
