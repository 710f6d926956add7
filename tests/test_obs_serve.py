"""Integration tests: repro.obs wired through the serving stack."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.obs import Obs, Tracer, export
from repro.resilience import FaultInjector, FaultPlan, FaultRule
from repro.serve import PlanRegistry, ServerStats, SpMVRequest, SpMVServer
from repro.serve.driver import WorkloadConfig, run_workload

from tests.conftest import random_csr

SCHEMA_PATH = Path(__file__).resolve().parent.parent / "schemas" / "serve_trace.schema.json"


def small_cfg(**kw):
    base = dict(n_requests=120, n_matrices=2, seed=7, device="A100")
    base.update(kw)
    return WorkloadConfig(**base)


class TestStatsFacade:
    def test_stats_snapshot_matches_registry_counters(self):
        """ServerStats reads live from the registry — no copy-at-close drift."""
        stats = run_workload(small_cfg())
        reg = stats.obs.registry
        assert stats.n_requests == reg.counter("serve.requests_total").value
        assert stats.n_completed == reg.counter("serve.completed_total").value
        assert stats.n_batches == reg.counter("serve.batches_total").value
        assert stats.cache_hits == reg.counter("serve.plan_cache.hits_total").value
        assert stats.cache_misses == reg.counter("serve.plan_cache.misses_total").value
        assert stats.device_busy_s == pytest.approx(
            reg.counter("serve.device_busy_seconds_total").value
        )

    def test_server_and_stats_share_one_obs(self, rng):
        """Satellite 3: cache counters seen via ServerStats mid-run, not copied
        at close — mutating the registry after close can't diverge from stats."""
        obs = Obs()
        with SpMVServer(max_batch=2, flush_timeout_s=0.01, workers=1, obs=obs) as server:
            fp = server.register(random_csr(64, 64, rng))
            x = rng.standard_normal(64)
            server.submit(SpMVRequest(fp, x)).result()
            server.submit(SpMVRequest(fp, x)).result()
            # Live (pre-close) facade equality with the plan registry.
            assert server.stats.cache_misses == server.registry.misses
            assert server.stats.cache_hits == server.registry.hits
        assert server.stats.cache_misses == 1
        assert server.stats.cache_hits == 1
        # One more registry bump is immediately visible through the stats
        # facade: both read the same counter object.
        obs.counter("serve.plan_cache.hits_total").inc()
        assert server.stats.cache_hits == server.registry.hits == 2

    @pytest.mark.parametrize("attr", ["n_requests", "device_busy_s",
                                      "faults_injected"])
    def test_stats_counter_facades_are_read_only(self, attr):
        """Counters only grow: a facade cannot be assigned (or lowered)."""
        stats = ServerStats()
        stats.observe_request(3)
        with pytest.raises(AttributeError):
            setattr(stats, attr, 1)
        assert stats.n_requests == 3
        assert not hasattr(stats.obs.registry.counter("serve.requests_total"),
                           "set")

    @pytest.mark.parametrize("attr", ["hits", "misses", "evictions",
                                      "bytes_cached"])
    def test_plan_registry_counter_facades_are_read_only(self, attr):
        registry = PlanRegistry()
        with pytest.raises(AttributeError):
            setattr(registry, attr, 0)


class TestServerTracing:
    def test_span_nesting_under_concurrent_submits(self, rng):
        obs = Obs(tracer=Tracer())
        with SpMVServer(max_batch=4, flush_timeout_s=0.01, workers=2, obs=obs) as server:
            fps = [server.register(random_csr(48 + 16 * i, 64, rng))
                   for i in range(3)]
            futs = [
                server.submit(SpMVRequest(fp, rng.standard_normal(64)))
                for _ in range(4)
                for fp in fps
            ]
            for f in futs:
                assert np.all(np.isfinite(f.result()))
        roots = obs.tracer.traces()
        assert roots and all(r.name in ("batch", "preprocess") for r in roots)
        batches = [r for r in roots if r.name == "batch"]
        assert batches
        for b in batches:
            assert b.status == "ok"
            kid_names = {c.name for c in b.children}
            assert "kernel" in kid_names
            kernel = next(c for c in b.children if c.name == "kernel")
            phase_names = {g.name for g in kernel.children}
            # dasp_spmm also opens its own nested "spmm" span under kernel.
            assert {"regular_mma", "irregular_csr"} <= phase_names
            # KernelEvents feed span attrs.
            assert kernel.attrs["flops_mma"] > 0
            assert kernel.attrs["bytes_total"] > 0
            assert 0.0 < kernel.attrs["mem_efficiency"] <= 1.0

    def test_fallback_span_on_degrade(self, rng):
        plan = FaultPlan(rules=[FaultRule(kind="kernel_error")], seed=3)
        obs = Obs(tracer=Tracer())
        with SpMVServer(
            max_batch=2, flush_timeout_s=0.01, workers=1, breaker=None,
            fault_injector=FaultInjector(plan), obs=obs,
        ) as server:
            fp = server.register(random_csr(64, 64, rng))
            y = server.submit(SpMVRequest(fp, np.ones(64))).result()
        assert np.all(np.isfinite(y))
        names = [sp.name for sp in obs.tracer.walk()]
        assert "fallback" in names
        fb = next(sp for sp in obs.tracer.walk() if sp.name == "fallback")
        assert fb.attrs["cause"] == "KernelFault"
        assert fb.device_s > 0
        assert obs.registry.family_total("resilience.faults_total") >= 1


class TestDriverTracing:
    def test_attribution_coverage_plain(self):
        obs = Obs(tracer=Tracer())
        stats = run_workload(small_cfg(), obs=obs)
        total = stats.device_busy_s + stats.preprocess_s
        att = obs.tracer.attribution(total)
        assert att["coverage"] >= 0.95
        assert att["phases"]["regular_mma"] > 0
        assert att["phases"]["preprocess"] > 0

    def test_attribution_coverage_under_chaos(self):
        from repro.serve.driver import ChaosConfig
        from repro.resilience import RetryPolicy

        obs = Obs(tracer=Tracer())
        cfg = small_cfg(
            n_requests=200,
            chaos=ChaosConfig(fault_rate=0.3, kinds=("kernel_error",)),
            retry=RetryPolicy(max_retries=2),
        )
        stats = run_workload(cfg, obs=obs)
        total = stats.device_busy_s + stats.preprocess_s
        att = obs.tracer.attribution(total)
        assert att["coverage"] >= 0.95
        error_kernels = [
            sp for sp in obs.tracer.walk()
            if sp.name == "kernel" and sp.status == "error"
        ]
        if stats.retries:
            assert error_kernels
            assert all("fault" in sp.attrs for sp in error_kernels)

    def test_obs_disabled_run_is_byte_identical(self):
        plain = run_workload(small_cfg())
        traced_obs = Obs(tracer=Tracer())
        traced = run_workload(small_cfg(), obs=traced_obs)
        assert plain.summary_table() == traced.summary_table()


class TestJsonSchema:
    def test_trace_doc_validates_against_checked_in_schema(self):
        jsonschema = pytest.importorskip("jsonschema")
        obs = Obs(tracer=Tracer())
        stats = run_workload(small_cfg(), obs=obs)
        doc = export.to_json_doc(
            obs, device_total_s=stats.device_busy_s + stats.preprocess_s
        )
        schema = json.loads(SCHEMA_PATH.read_text())
        jsonschema.validate(doc, schema)
        # And the serialized form round-trips to the same document.
        assert json.loads(export.render_json(
            obs, device_total_s=stats.device_busy_s + stats.preprocess_s
        )) == doc
