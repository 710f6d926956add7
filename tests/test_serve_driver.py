"""Tests for the virtual-time workload driver."""

import numpy as np
import pytest

from repro._util import ValidationError
from repro.serve import (
    WorkloadConfig,
    compare_batched_unbatched,
    run_workload,
    zipf_weights,
)


class FakeEntry:
    """Suite-like entry wrapping a prebuilt CSR matrix."""

    def __init__(self, name, csr):
        self.name = name
        self._csr = csr

    def matrix(self):
        return self._csr


def small_entries(rng, n=2):
    from tests.conftest import random_csr

    return [FakeEntry(f"m{i}", random_csr(60, 120, rng)) for i in range(n)]


def small_cfg(rng, **kw):
    kw.setdefault("entries", small_entries(rng))
    kw.setdefault("n_requests", 300)
    kw.setdefault("seed", 42)
    return WorkloadConfig(**kw)


class TestZipf:
    def test_normalized_and_decreasing(self):
        w = zipf_weights(10, 1.2)
        assert w.sum() == pytest.approx(1.0)
        assert np.all(np.diff(w) < 0)

    def test_single_item(self):
        assert zipf_weights(1, 1.0)[0] == pytest.approx(1.0)

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            zipf_weights(0, 1.0)


class TestDriver:
    def test_deterministic(self, rng):
        s1 = run_workload(small_cfg(np.random.default_rng(5)))
        s2 = run_workload(small_cfg(np.random.default_rng(5)))
        assert s1.n_batches == s2.n_batches
        assert s1.batch_hist == s2.batch_hist
        assert s1.device_busy_s == pytest.approx(s2.device_busy_s)
        assert s1.latency_percentiles() == s2.latency_percentiles()

    def test_accounting_consistent(self, rng):
        stats = run_workload(small_cfg(rng))
        assert stats.n_requests == 300
        assert (stats.n_completed + stats.n_rejected) == stats.n_requests
        assert sum(k * c for k, c in stats.batch_hist.items()) \
            == stats.n_completed
        assert sum(stats.batch_hist.values()) == stats.n_batches
        assert len(stats.latencies_s) == stats.n_completed
        pct = stats.latency_percentiles()
        assert pct[50] <= pct[95] <= pct[99]
        assert stats.duration_s > 0

    def test_saturating_rate_fills_batches(self, rng):
        stats = run_workload(small_cfg(rng))  # rate auto -> overload
        assert stats.mean_batch_size > 4.0
        assert stats.mma_utilization > 0.5

    def test_unbatched_all_singletons(self, rng):
        stats = run_workload(small_cfg(rng, max_batch=1, queue_depth=10**6))
        assert set(stats.batch_hist) == {1}
        assert stats.mean_batch_size == 1.0

    def test_low_rate_degenerates_to_singletons(self, rng):
        # arrivals far apart relative to the flush timeout: no coalescing
        stats = run_workload(small_cfg(rng, n_requests=50, rate_rps=10.0,
                                       flush_timeout_s=1e-4))
        assert stats.mean_batch_size < 1.5

    def test_cache_hits_dominate(self, rng):
        stats = run_workload(small_cfg(rng))
        assert stats.cache_misses == 2  # one per pool matrix
        assert stats.cache_hits == stats.n_batches - 2
        assert stats.cache_hit_rate > 0.8

    def test_no_cache_pays_preprocess_per_batch(self, rng):
        entries = small_entries(rng)
        cached = run_workload(small_cfg(rng, entries=entries))
        uncached = run_workload(small_cfg(rng, entries=entries,
                                          plan_cache=False))
        assert uncached.preprocess_s > 5 * cached.preprocess_s
        assert uncached.goodput_rps < cached.goodput_rps
        assert uncached.cache_hits == 0

    def test_tiny_queue_rejects(self, rng):
        stats = run_workload(small_cfg(rng, queue_depth=1))
        assert stats.n_rejected > 0

    def test_batched_beats_unbatched(self, rng):
        res = compare_batched_unbatched(small_cfg(rng))
        assert res["batched"].throughput_rps \
            > 2.0 * res["unbatched"].throughput_rps

    def test_rejects_zero_requests(self, rng):
        with pytest.raises(ValidationError):
            run_workload(small_cfg(rng, n_requests=0))

    def test_fp16_runs(self, rng):
        from tests.conftest import random_csr

        entries = [FakeEntry("h", random_csr(50, 100, rng,
                                             dtype=np.float16))]
        stats = run_workload(small_cfg(rng, entries=entries,
                                       dtype="float16", n_requests=100))
        assert stats.dtype == "float16"
        assert stats.n_completed > 0


class TestAutoRateProbe:
    """The saturating-rate probe prices matrix 0 off the run's memo."""

    def test_probe_leaves_the_shared_memo_empty(self, rng):
        from repro.serve.driver import _matrix_pool, auto_rate
        from repro.serve.execute import CostModel

        modeled = CostModel("A100")
        rate = auto_rate(_matrix_pool(small_cfg(rng)), modeled)
        assert rate > 0 and modeled._entries == {}

    def test_sharded_run_prices_matrix0_k1_sharded(self, rng, monkeypatch):
        from repro.gpu import get_device
        from repro.serve import driver
        from repro.shard import build_sharded_plan, sharded_batch_cost

        models = []
        real = driver._modeled_for
        monkeypatch.setattr(driver, "_modeled_for", lambda cfg, device: (
            models.append(real(cfg, device)) or models[-1]))
        cfg = small_cfg(rng, shards=4, shard_workers=2, max_batch=1,
                        n_requests=100)
        run_workload(cfg)
        _, fp0, csr0 = driver._matrix_pool(cfg)[0]
        assert (fp0, 1) in models[0]._entries
        want = sharded_batch_cost(build_sharded_plan(csr0, 4),
                                  get_device("A100"), 1, workers=2)
        assert models[0]._entries[(fp0, 1)][0] == want.makespan

    def test_sharded_large_k_is_priced_per_band_strategy(self, monkeypatch):
        """``serve-sim --shards 2 --spmm-mix 0.2``: every k > 8 batch of
        a sharded plan goes through the large-k tier, one tuner strategy
        per band, and is charged the LPT makespan of the band strategy
        prices plus dispatch."""
        from repro.core.spmm_block import choose_spmm_strategy
        from repro.gpu import get_device
        from repro.serve import MMA_N, driver
        from repro.shard import build_sharded_plan, lpt_makespan

        models = []
        real = driver._modeled_for
        monkeypatch.setattr(driver, "_modeled_for", lambda cfg, device: (
            models.append(real(cfg, device)) or models[-1]))
        cfg = WorkloadConfig(n_requests=300, n_matrices=3, shards=2,
                             spmm_mix=0.2)
        stats = run_workload(cfg)
        assert stats.spmm_large_by_strategy
        A100 = get_device("A100")
        csrs = {fp: csr for _, fp, csr in driver._matrix_pool(cfg)}
        large = [(fp, k) for fp, k in models[0]._entries if k > MMA_N]
        assert large
        for fp, k in large:
            bands = build_sharded_plan(csrs[fp], 2).bands()
            assert len(bands) == 2
            want = lpt_makespan(
                [choose_spmm_strategy(d, k, A100).modeled_s
                 + A100.launch_overhead_s for _, _, d in bands],
                cfg.shard_workers)
            assert models[0]._entries[(fp, k)][0] == want
