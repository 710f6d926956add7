"""Tests for the shared batch-execution core (`repro.serve.execute`).

One policy serves both the virtual-time simulator and the threaded
server; these tests pin what that buys:

* a differential run — one seeded chaos + deadline trace driven through
  the core under a virtual clock with the modeled executor and with the
  numeric executor gives every request the same outcome and the same
  charged device seconds (unsharded and 4-shard, k in 1..8 and k > 8);
* the server after a matrix delta: DASP and forced-fallback batches both
  compute the patched matrix, and the next batch is priced on it;
* the server never loses a future under queue-full backpressure;
* the cost model runs once per (version, k), not once per batch, and
  a cold price runs the x-gather analysis once (once per shard).
"""

import sys
import time
from concurrent.futures import wait
from dataclasses import replace

import numpy as np
import pytest

from repro.core import DASPMatrix, dasp_spmv
from repro.core.delta import random_delta
from repro.core.spmm import mma_utilization, spmm_events
from repro.gpu import get_device
from repro.gpu import memory as gpu_memory
from repro.gpu.cost_model import estimate_time
from repro.obs import Obs
from repro.resilience import (BreakerConfig, CircuitBreaker,
                              DeadlineExceededError, FaultInjector, FaultPlan,
                              RetryPolicy)
from repro.serve import (Batch, PlanRegistry, QueueFullError, ServerStats,
                         SpMMRequest, SpMVRequest, SpMVServer,
                         matrix_fingerprint)
from repro.serve import execute
from repro.serve.execute import (CostModel, ExecutionCore, ModeledExecutor,
                                 NumericExecutor, VirtualClock)
from repro.shard import build_sharded_plan, sharded_batch_cost
from tests.conftest import random_csr

A100 = get_device("A100")
SPMM_K = 12  # > MMA_N: the large-k strategy tier (or column tiles if sharded)


class Recorder:
    """Outcome hooks that log every request's fate."""

    def __init__(self):
        self.outcomes: dict[int, tuple] = {}
        self.results: dict[int, np.ndarray] = {}

    @staticmethod
    def terminal(reqs):
        return len(reqs)

    def settle(self, batch, Y, end, degraded):
        if Y is not None:
            batch.scatter(Y, end)
        for r in batch.requests:
            self.outcomes[r.req_id] = ("degraded" if degraded
                                       else "completed", end)
            if Y is not None:
                self.results[r.req_id] = r.result
        return batch.requests

    def deliver(self, reqs, error=None):
        if error is None:
            return
        kind = ("deadline" if isinstance(error, DeadlineExceededError)
                else "failed")
        for r in reqs:
            self.outcomes[r.req_id] = (kind, None)


def _pool(seed):
    rng = np.random.default_rng(seed)
    return [random_csr(72 + 16 * i, 96, rng) for i in range(3)]


def _trace(pool, seed, n_batches=60):
    """Seeded batches: widths 1..8 plus k > 8 blocks, tight deadlines."""
    rng = np.random.default_rng(seed)
    fps = [matrix_fingerprint(a) for a in pool]
    batches, rid, t = [], 0, 0.0
    for _ in range(n_batches):
        i = int(rng.integers(len(pool)))
        n = pool[i].shape[1]
        t += float(rng.uniform(0.0, 40e-6))
        budget = float(rng.choice([np.inf, 400e-6, 120e-6]))
        if rng.random() < 0.15:
            reqs = [SpMMRequest(fps[i], rng.uniform(-1, 1, (n, SPMM_K)),
                                req_id=rid, arrival_s=t,
                                deadline_s=t + budget)]
            rid += 1
        else:
            reqs = []
            for _ in range(int(rng.integers(1, 9))):
                reqs.append(SpMVRequest(fps[i], rng.uniform(-1, 1, n),
                                        req_id=rid, arrival_s=t,
                                        deadline_s=t + budget))
                rid += 1
        batches.append(Batch(fps[i], reqs, t))
    return batches


def _drive(pool, batches, executor, *, shards, fallback):
    obs = Obs()
    stats = ServerStats(obs=obs)
    injector = FaultInjector(FaultPlan.chaos_mix(
        0.5, seed=11, latency_s=50e-6,
        kinds=("preprocess_error", "kernel_error", "kernel_nan",
               "latency")))
    registry = PlanRegistry(obs=obs, fault_injector=injector, device=A100)
    out = Recorder()
    core = ExecutionCore(
        device=A100, registry=registry, stats=stats, obs=obs,
        cost=CostModel(A100, workers=4), clock=VirtualClock(),
        executor=executor, outcomes=out,
        matrices={matrix_fingerprint(a): a for a in pool},
        breaker=CircuitBreaker(BreakerConfig(), obs=obs), injector=injector,
        retry=RetryPolicy(max_retries=1),
        retry_rng=np.random.default_rng(5), fallback=fallback,
        shards=shards, shard_workers=4)
    for b in batches:
        core.execute(Batch(b.fingerprint, [replace(r) for r in b.requests],
                           b.formed_s))
    return out, stats


class TestDifferential:
    @pytest.mark.parametrize("shards", [None, 4])
    @pytest.mark.parametrize("fallback", [True, False])
    def test_modeled_and_numeric_executors_agree(self, shards, fallback):
        pool = _pool(3)
        batches = _trace(pool, seed=7)
        modeled, m_stats = _drive(pool, batches, ModeledExecutor(),
                                  shards=shards, fallback=fallback)
        numeric, n_stats = _drive(pool, batches, NumericExecutor(),
                                  shards=shards, fallback=fallback)
        n_requests = sum(len(b.requests) for b in batches)
        assert len(modeled.outcomes) == n_requests
        assert modeled.outcomes == numeric.outcomes
        for field in ("device_busy_s", "preprocess_s", "retries",
                      "degraded_requests", "n_failed",
                      "n_deadline_exceeded", "n_completed"):
            assert getattr(m_stats, field) == getattr(n_stats, field), field
        kinds = {o[0] for o in modeled.outcomes.values()}
        # the trace exercises every outcome the policy can produce
        assert {"completed", "deadline"} <= kinds
        assert ("degraded" if fallback else "failed") in kinds
        assert m_stats.retries > 0
        # and the numeric run computed the right answers
        by_id = {r.req_id: (b.fingerprint, r) for b in batches
                 for r in b.requests}
        csr_of = {matrix_fingerprint(a): a for a in pool}
        for rid, y in numeric.results.items():
            fp, req = by_id[rid]
            X = req.x if req.x.ndim == 2 else req.x[:, None]
            want = np.stack([csr_of[fp].matvec(X[:, j])
                             for j in range(X.shape[1])], axis=1)
            np.testing.assert_allclose(y.reshape(want.shape), want,
                                       rtol=1e-12, atol=1e-12)


class TestCostMemo:
    def test_server_prices_each_version_and_width_once(self, rng,
                                                       monkeypatch):
        calls = []
        real = execute.spmm_events
        monkeypatch.setattr(execute, "spmm_events",
                            lambda *a, **kw: calls.append(a[2]) or real(*a, **kw))
        csr = random_csr(40, 50, rng)
        with SpMVServer(workers=1, max_batch=1) as s:
            fp = s.register(csr)
            for _ in range(6):
                s.submit(SpMVRequest(fp, rng.uniform(-1, 1, 50))).result(10.0)
        assert calls == [1]


def count_sector_counts(monkeypatch) -> list:
    """Wrap every ``repro`` module's binding of ``sector_counts``; the
    returned list grows by one per call."""
    real = gpu_memory.sector_counts
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "") or "").startswith("repro") \
                and getattr(mod, "sector_counts", None) is real:
            monkeypatch.setattr(mod, "sector_counts", counted)
    return calls


class TestOneAnalysisPerPrice:
    @pytest.mark.parametrize("k", [1, 3, 8])
    def test_unsharded_cold_price_counts_sectors_once(self, rng, monkeypatch,
                                                      k):
        plan = DASPMatrix.from_csr(random_csr(120, 150, rng))
        calls = count_sector_counts(monkeypatch)
        cost = CostModel(A100)
        t, useful, issued, ev = cost.batch_cost("m", plan, k)
        assert len(calls) == 1
        assert cost.batch_cost("m", plan, k)[0] == t
        assert len(calls) == 1
        # the same price the standalone functions give
        assert t == estimate_time(spmm_events(plan, A100, k), A100,
                                  dtype_bits=64).total
        assert useful == mma_utilization(plan, k) * issued

    @pytest.mark.parametrize("k", [1, 8])
    def test_sharded_cold_price_counts_sectors_once_per_shard(
            self, rng, monkeypatch, k):
        plan = build_sharded_plan(random_csr(200, 150, rng), 4)
        assert plan.n_shards == 4
        calls = count_sector_counts(monkeypatch)
        cost = CostModel(A100, workers=2)
        t, useful, issued, _ = cost.batch_cost("m", plan, k)
        assert len(calls) == plan.n_shards
        cost.batch_cost("m", plan, k)
        assert len(calls) == plan.n_shards
        want = sharded_batch_cost(plan, A100, k, workers=2)
        assert (t, useful, issued) == (want.makespan, want.useful_mma,
                                       want.issued_mma)


class TestSharedMemoUnderThreads:
    def test_concurrent_batches_share_one_price_per_key(self, rng):
        """Worker threads race on the core's memos (costs, shard and
        plan lookups); every answer stays bitwise the single-threaded
        one and the cost memo holds one entry per (matrix, width)."""
        csrs = [random_csr(50 + 10 * i, 64, rng) for i in range(3)]
        xs = [rng.uniform(-1, 1, 64) for _ in range(8)]
        want = [[dasp_spmv(DASPMatrix.from_csr(a), x) for x in xs]
                for a in csrs]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with SpMVServer(workers=4, max_batch=4, flush_timeout_s=1e-4,
                            queue_depth=4096) as s:
                fps = [s.register(a) for a in csrs]
                futs = [(i, j, s.submit(SpMVRequest(fps[i], xs[j])))
                        for _ in range(10) for i in range(3)
                        for j in range(8)]
                done, pending = wait([f for _, _, f in futs], timeout=60.0)
                assert not pending
                for i, j, f in futs:
                    np.testing.assert_array_equal(f.result(), want[i][j])
                entries = s.core.cost._entries
                assert {key for key, _ in entries} == set(fps)
                assert {k for _, k in entries} <= {1, 2, 3, 4}
        finally:
            sys.setswitchinterval(old)


class TestServerAfterUpdate:
    @pytest.mark.parametrize("n_updates", [1, 2])
    def test_dasp_and_fallback_read_the_patched_matrix(self, rng,
                                                       n_updates):
        """A ValueUpdate, then a StructuralUpdate, land through
        ``registry.update``; the DASP batch, its price, and a batch the
        opened breaker forces onto the merge-CSR fallback all follow
        the patched plan."""
        csr = random_csr(60, 60, rng)
        x = rng.uniform(-1, 1, 60)
        with SpMVServer(workers=1, max_batch=1, flush_timeout_s=1e-3,
                        breaker=BreakerConfig(failure_threshold=1,
                                              recovery_s=1e9)) as s:
            fp = s.register(csr)
            s.submit(SpMVRequest(fp, x)).result(10.0)
            plan = None
            for structural in (False, True)[:n_updates]:
                head = plan.csr if plan is not None else csr
                _, _, plan = s.registry.update(fp, random_delta(
                    head, rng, structural=structural, n_entries=6))
            want = plan.csr.matvec(x)
            busy = s.stats.device_busy_s
            y = s.submit(SpMVRequest(fp, x)).result(10.0)
            np.testing.assert_allclose(y, want, rtol=1e-12, atol=1e-12)
            expect = estimate_time(spmm_events(plan, A100, 1), A100,
                                   dtype_bits=64).total
            assert s.stats.device_busy_s - busy == pytest.approx(
                expect, rel=1e-12)
            s.breaker.record_failure(fp, s.clock.now())
            y = s.submit(SpMVRequest(fp, x)).result(10.0)
            assert s.stats.degraded_requests == 1
            np.testing.assert_allclose(y, want, rtol=1e-12, atol=1e-12)


class TestNoLostFutures:
    def test_open_loop_queue_depth_one(self, rng):
        csrs = [random_csr(80, 80, rng) for _ in range(3)]
        futures, raised = [], 0
        with SpMVServer(workers=1, queue_depth=1, max_batch=4,
                        flush_timeout_s=1e-4) as s:
            fps = [s.register(a) for a in csrs]
            for i in range(300):
                j = i % 3
                try:
                    futures.append(s.submit(SpMVRequest(
                        fps[j], rng.uniform(-1, 1, 80))))
                except QueueFullError:
                    raised += 1
                if i % 50 == 0:
                    time.sleep(0.002)
            done, pending = wait(futures, timeout=60.0)
            assert not pending, f"{len(pending)} futures never resolved"
            s.drain(timeout=30.0)
            st = s.stats
            assert st.n_requests == 300
            assert (st.n_completed + st.n_rejected + st.n_shed + st.n_failed
                    + st.n_deadline_exceeded) == st.n_requests
            assert st.n_rejected >= raised > 0
        for f in futures:
            if f.exception() is not None:
                assert isinstance(f.exception(), QueueFullError)
