"""Tests for the shared batch-execution core (`repro.serve.execute`).

One policy serves both the virtual-time simulator and the threaded
server; these tests pin what that buys:

* a differential run — one seeded chaos + deadline trace driven through
  the core under a virtual clock with the modeled executor and with the
  numeric executor gives every request the same outcome and the same
  charged device seconds (unsharded and 4-shard, k in 1..8 and k > 8);
* the same differential under an update stream: both executors serve
  every request at the same version, each numeric result that
  version's ``csr.matvec``;
* the version fence: a batch pinned to v0 after an update is priced
  and computed on v0, and a read of a retired version is re-stamped to
  the current one, never rebuilt from a newer matrix;
* the server after a matrix delta: DASP and forced-fallback batches both
  compute the patched matrix, and the next batch is priced on it — also
  after the plan was evicted, and with updates landing while reads
  queue in the batcher and the scheduler;
* the server never loses a future under queue-full backpressure;
* a plain plan is priced as one band, bitwise the reference plain
  arithmetic at k <= MMA_N on the whole suite;
* the cost model runs once per (version, k), not once per batch, and
  a cold price runs the x-gather analysis once (once per shard) — the
  large-k tuner and the tracer included;
* ``ExecutionCore.warm`` — the one path for plans acquired ahead of
  demand — follows the store's load-vs-rebuild gate, survives corrupt
  artifacts and failed builds, and charges the server, the router and
  the simulator the same modeled load seconds.
"""

import sys
import time
from concurrent.futures import wait
from dataclasses import replace

import numpy as np
import pytest

from repro.core import DASPMatrix, dasp_spmv
from repro.core.delta import apply_delta_to_csr, random_delta
from repro.core.spmm import (gather_analysis, mma_phase_fraction,
                             mma_utilization, mma_utilization_from_events,
                             spmm_events)
from repro.core.spmm_block import spmm_block_events, spmm_tiled_overlap_cost
from repro.gpu import get_device
from repro.gpu import memory as gpu_memory
from repro.gpu.cost_model import estimate_time
from repro.matrices import representative_suite, suite_by_name
from repro.obs import Obs, Tracer
from repro.resilience import (BreakerConfig, CircuitBreaker,
                              DeadlineExceededError, FaultInjector, FaultPlan,
                              RetryPolicy)
from repro.serve import (Batch, PlanRegistry, QueueFullError,
                         RequestBatcher, ServerStats, SpMMRequest,
                         SpMVRequest, SpMVServer, matrix_fingerprint)
from repro.serve.execute import (CostModel, ExecutionCore, ModeledExecutor,
                                 NumericExecutor, VirtualClock)
from repro.shard import build_sharded_plan, sharded_batch_cost
from repro.shard import execute as shard_execute
from tests.conftest import ROW_PROFILES, random_csr

A100 = get_device("A100")
SPMM_K = 12  # > MMA_N: the large-k strategy tier (one strategy per band)


class Recorder:
    """Outcome hooks that log every request's fate."""

    def __init__(self):
        self.outcomes: dict[int, tuple] = {}
        self.results: dict[int, np.ndarray] = {}
        self.versions: dict[int, int] = {}

    @staticmethod
    def terminal(reqs):
        return len(reqs)

    def settle(self, batch, Y, end, degraded):
        if Y is not None:
            batch.scatter(Y, end)
        for r in batch.requests:
            self.outcomes[r.req_id] = ("degraded" if degraded
                                       else "completed", end)
            self.versions[r.req_id] = r.version
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


def _update_trace(pool, seed, n_events=90):
    """Seeded reads and deltas.  Each read batch is stamped with its
    matrix's version at admission and executes up to three events
    later, so some run after updates: against a retained older
    version, or re-stamped once theirs retired.  Returns the events
    (batches and ``(fp, delta)`` pairs) and every version's CSR."""
    rng = np.random.default_rng(seed)
    fps = [matrix_fingerprint(a) for a in pool]
    history = {fp: [a] for fp, a in zip(fps, pool)}
    timed, rid = [], 0
    for pos in range(n_events):
        fp = fps[int(rng.integers(len(pool)))]
        head = history[fp][-1]
        if rng.random() < 0.3:
            delta = random_delta(head, rng, structural=rng.random() < 0.4,
                                 n_entries=6)
            history[fp].append(apply_delta_to_csr(head, delta))
            timed.append((pos, 0, (fp, delta)))
            continue
        t = pos * 20e-6
        reqs = [SpMVRequest(fp, rng.uniform(-1, 1, head.shape[1]),
                            req_id=rid + j, arrival_s=t,
                            version=len(history[fp]) - 1)
                for j in range(int(rng.integers(1, 9)))]
        rid += len(reqs)
        timed.append((pos + int(rng.integers(0, 4)), 1 + rid,
                      Batch(fp, reqs, t)))
    return [ev for *_, ev in sorted(timed, key=lambda e: e[:2])], history


def _drive(pool, events, executor, *, shards, fallback):
    """Run *events* — batches, and ``(fp, delta)`` updates — through one
    chaos-injected core."""
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
        batcher=RequestBatcher(),
        breaker=CircuitBreaker(BreakerConfig(), obs=obs), injector=injector,
        retry=RetryPolicy(max_retries=1),
        retry_rng=np.random.default_rng(5), fallback=fallback,
        shards=shards, shard_workers=4)
    for ev in events:
        if isinstance(ev, Batch):
            core.execute(Batch(ev.fingerprint,
                               [replace(r) for r in ev.requests],
                               ev.formed_s))
        else:
            core.update(*ev, 0.0)
    return out, stats


def _core(csrs, cost, *, obs=None, shards=None, store=None):
    """A modeled-executor core over *csrs* with no resilience knobs."""
    obs = obs if obs is not None else Obs()
    return ExecutionCore(
        device=A100, registry=PlanRegistry(obs=obs, device=A100, store=store),
        stats=ServerStats(obs=obs), obs=obs, cost=cost, clock=VirtualClock(),
        executor=ModeledExecutor(), outcomes=Recorder(),
        matrices={matrix_fingerprint(a): a for a in csrs},
        batcher=RequestBatcher(), shards=shards)


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

    @pytest.mark.parametrize("shards", [None, 4])
    def test_update_stream_serves_the_same_versions(self, shards):
        pool = _pool(5)
        events, history = _update_trace(pool, seed=9)
        modeled, m_stats = _drive(pool, events, ModeledExecutor(),
                                  shards=shards, fallback=True)
        numeric, n_stats = _drive(pool, events, NumericExecutor(),
                                  shards=shards, fallback=True)
        assert modeled.outcomes == numeric.outcomes
        assert modeled.versions == numeric.versions
        for field in ("device_busy_s", "preprocess_s", "n_completed"):
            assert getattr(m_stats, field) == getattr(n_stats, field), field
        stamped = {r.req_id: (b.fingerprint, r) for b in events
                   if isinstance(b, Batch) for r in b.requests}
        restamped = sum(numeric.versions[i] != r.version
                        for i, (_, r) in stamped.items()
                        if i in numeric.versions)
        older = sum(v < len(history[stamped[i][0]]) - 1
                    for i, v in numeric.versions.items())
        # the trace reaches both sides of the fence: reads served at a
        # retained old version, and reads whose version had retired
        assert restamped > 0 and older > 0
        assert n_stats.obs.counter(
            "serve.version_restamped_total").value == restamped
        for rid, y in numeric.results.items():
            fp, req = stamped[rid]
            want = history[fp][numeric.versions[rid]].matvec(req.x)
            np.testing.assert_allclose(y, want, rtol=1e-12, atol=1e-12)


class TestVersionFence:
    def test_batch_pinned_to_v0_after_an_update_reads_v0(self, rng):
        """Regression: the bare key of v0 used to mean "current", so a
        batch admitted before an update was priced and computed on the
        updated plan."""
        csr = random_csr(90, 90, rng, row_len_sampler=ROW_PROFILES["mixed"])
        fp = matrix_fingerprint(csr)
        core = _core([csr], CostModel(A100))
        core.executor = NumericExecutor()
        x = rng.uniform(-1, 1, 90)
        core.execute(Batch(fp, [SpMVRequest(fp, x, req_id=0)], 0.0))
        v0 = core.registry.peek(fp)
        assert core.update(fp, random_delta(csr, rng, structural=True,
                                            n_entries=12), 0.0)[0] == 1
        busy = core.stats.device_busy_s
        pinned = SpMVRequest(fp, x, req_id=1, version=0)
        core.execute(Batch(fp, [pinned], 0.0))
        assert pinned.version == 0
        np.testing.assert_allclose(pinned.result, csr.matvec(x),
                                   rtol=1e-12, atol=1e-12)
        assert core.stats.device_busy_s - busy == \
            core.cost.batch_cost(fp, v0, 1)[0]
        assert not np.allclose(pinned.result, core.matrices[fp].matvec(x))

    def test_retired_version_is_restamped_not_rebuilt(self, rng):
        csr = random_csr(90, 90, rng)
        fp = matrix_fingerprint(csr)
        core = _core([csr], CostModel(A100))
        core.executor = NumericExecutor()
        x = rng.uniform(-1, 1, 90)
        core.execute(Batch(fp, [SpMVRequest(fp, x, req_id=0)], 0.0))
        for _ in range(2):      # v0 retires (v and v-1 are kept)
            core.update(fp, random_delta(core.matrices[fp], rng), 0.0)
        misses = core.stats.cache_misses
        late = SpMVRequest(fp, x, req_id=1, version=0)
        core.execute(Batch(fp, [late], 0.0))
        assert late.version == 2 and core.stats.cache_misses == misses
        np.testing.assert_allclose(late.result, core.matrices[fp].matvec(x),
                                   rtol=1e-12, atol=1e-12)
        assert core.obs.counter(
            "serve.version_restamped_total").value == 1


class TestCostMemo:
    def test_server_prices_each_version_and_width_once(self, rng,
                                                       monkeypatch):
        calls = []
        # every plan is priced as its bands by the band cost model
        real = shard_execute.spmm_events
        monkeypatch.setattr(shard_execute, "spmm_events",
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
        t, useful, issued, ev, _ = cost.batch_cost("m", plan, k)
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
        t, useful, issued, _, _ = cost.batch_cost("m", plan, k)
        assert len(calls) == plan.n_shards
        cost.batch_cost("m", plan, k)
        assert len(calls) == plan.n_shards
        want = sharded_batch_cost(plan, A100, k, workers=2)
        assert (t, useful, issued) == (want.makespan, want.useful_mma,
                                       want.issued_mma)


    @pytest.mark.parametrize("double_buffer", [False, True])
    @pytest.mark.parametrize("k", [12, 64])
    def test_large_k_cold_price_counts_sectors_once(self, rng, monkeypatch,
                                                    k, double_buffer):
        """The tuner's one analysis prices every candidate; the cost
        model reads its strategy and analyses nothing itself."""
        csr = random_csr(120, 150, rng, row_len_sampler=ROW_PROFILES["mixed"])
        fp = matrix_fingerprint(csr)
        core = _core([csr], CostModel(A100, double_buffer=double_buffer))
        plan = core.acquire(fp, fp)
        calls = count_sector_counts(monkeypatch)
        strats = core.strategy(fp, fp, plan, k)
        strat, = strats         # a plain plan is one band
        price = core.cost.batch_cost(fp, plan, k, strats)
        assert len(calls) == 1
        assert core.cost.batch_cost(
            fp, plan, k, core.strategy(fp, fp, plan, k)) is price
        assert len(calls) == 1
        # the same price the standalone functions give
        want_t = strat.modeled_s
        if double_buffer and strat.name != "looped":
            ev = spmm_block_events(plan, gather_analysis(plan, A100), k,
                                   tile_k=strat.tile_k, stats=strat.stats)
            want_t = spmm_tiled_overlap_cost(ev, A100, k, tile_k=strat.tile_k,
                                             dtype_bits=64)[1]
        ev = spmm_events(plan, A100, k)
        assert price[:4] == (want_t, mma_utilization(plan, k) * ev.flops_mma,
                             ev.flops_mma, ev)

    def test_traced_sharded_batch_counts_sectors_once_per_shard(
            self, rng, monkeypatch):
        """The tracer attributes a sharded batch from its memoized
        price: S analyses on the cold batch, none on the next one."""
        csr = random_csr(200, 150, rng)
        fp = matrix_fingerprint(csr)
        obs = Obs(tracer=Tracer())
        core = _core([csr], CostModel(A100, workers=2), obs=obs, shards=4)

        def batch():
            return Batch(fp, [SpMVRequest(fp, rng.uniform(-1, 1, 150),
                                          req_id=i) for i in range(3)], 0.0)

        calls = count_sector_counts(monkeypatch)
        core.execute(batch())
        assert len(calls) == 4
        core.execute(batch())
        assert len(calls) == 4
        want = sharded_batch_cost(core.registry.peek(fp), A100, 3, workers=2)
        for root in obs.tracer.traces():
            shards = [s for s in root.walk() if s.name == "shard"]
            assert [s.attrs["modeled_s"] for s in shards] \
                == list(want.per_shard)


@pytest.fixture(scope="module")
def suite_plans():
    """name -> plain plan of every representative-suite matrix, built
    on first use."""
    return {}


class TestPlainPriceReference:
    """A plain plan is one band: the band pricing path charges it the
    reference arithmetic of an unsharded ``k <= MMA_N`` batch — charge,
    MMA flops, events and the tracer's phase split, bitwise."""

    @pytest.mark.parametrize("double_buffer", [False, True])
    @pytest.mark.parametrize("k", range(1, 9))
    @pytest.mark.parametrize("name",
                             [e.name for e in representative_suite()])
    def test_matches_inline_plain_price(self, suite_plans, name, k,
                                        double_buffer):
        plan = suite_plans.get(name)
        if plan is None:
            plan = suite_plans.setdefault(name, DASPMatrix.from_csr(
                suite_by_name(name).matrix()))
        got = CostModel(A100, double_buffer=double_buffer).batch_cost(
            "m", plan, k)
        ev = spmm_events(plan, A100, k)
        t = estimate_time(ev, A100, dtype_bits=plan.dtype.itemsize * 8).total
        assert got == (t, mma_utilization_from_events(plan, k, ev)
                       * ev.flops_mma, ev.flops_mma, ev,
                       ((t, mma_phase_fraction(plan)),))


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


    def test_concurrent_large_k_blocks_share_one_order_per_version(self,
                                                                   rng):
        """Worker threads race on the per-version large-k state: every
        block stays bitwise the column-wise SpMV, one order is kept per
        matrix, and each width keeps one strategy per band — on a plain
        server and on a 2-shard one, whose bands also run on borrowed
        workers."""
        csrs = [random_csr(60 + 8 * i, 64, rng) for i in range(3)]
        csrs.append(random_csr(90, 64, rng,
                               row_len_sampler=ROW_PROFILES["mixed"]))
        blocks = [rng.uniform(-1, 1, (64, k)) for k in (16, 32, 16, 32)]
        want = [[np.stack([dasp_spmv(DASPMatrix.from_csr(a), X[:, j])
                           for j in range(X.shape[1])], axis=1)
                 for X in blocks] for a in csrs]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for shards in (None, 2):
                with SpMVServer(workers=4, queue_depth=4096,
                                shards=shards) as s:
                    fps = [s.register(a) for a in csrs]
                    futs = [(i, j, s.submit(SpMMRequest(fps[i], blocks[j])))
                            for _ in range(4) for i in range(len(csrs))
                            for j in range(len(blocks))]
                    done, pending = wait([f for _, _, f in futs],
                                         timeout=60.0)
                    assert not pending
                    for i, j, f in futs:
                        np.testing.assert_array_equal(f.result(),
                                                      want[i][j])
                    slots = s.registry._derived
                    assert set(slots) == set(fps)
                    for orders, chosen in slots.values():
                        assert len(orders) == (shards or 1)
                        assert set(chosen) == {16, 32}
                        assert all(len(c) == len(orders)
                                   for c in chosen.values())
        finally:
            sys.setswitchinterval(old)


class TestServerAfterUpdate:
    @pytest.mark.parametrize("n_updates", [1, 2])
    def test_dasp_and_fallback_read_the_patched_matrix(self, rng,
                                                       n_updates):
        """A ValueUpdate, then a StructuralUpdate, land through
        ``SpMVServer.update``; the DASP batch, its price, and a batch the
        opened breaker forces onto the merge-CSR fallback all follow
        the patched plan."""
        csr = random_csr(60, 60, rng)
        x = rng.uniform(-1, 1, 60)
        with SpMVServer(workers=1, max_batch=1, flush_timeout_s=1e-3,
                        breaker=BreakerConfig(failure_threshold=1,
                                              recovery_s=1e9)) as s:
            fp = s.register(csr)
            s.submit(SpMVRequest(fp, x)).result(10.0)
            for structural in (False, True)[:n_updates]:
                v = s.update(fp, random_delta(
                    s.core.matrices[fp], rng, structural=structural,
                    n_entries=6))
            plan = s.registry.peek(s.registry.versioned_key(fp, v))
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


    def test_read_after_update_and_eviction_sees_the_patch(self, rng):
        """Regression: the server's head CSR never advanced, so once the
        patched plan was evicted the rebuild read the registered
        matrix."""
        csr = random_csr(60, 60, rng)
        x = rng.uniform(-1, 1, 60)
        with SpMVServer(workers=1, max_batch=1) as s:
            fp = s.register(csr)
            s.submit(SpMVRequest(fp, x)).result(10.0)
            delta = random_delta(csr, rng, structural=True, n_entries=8)
            assert s.update(fp, delta) == 1
            s.registry.clear()
            y = s.submit(SpMVRequest(fp, x)).result(10.0)
        np.testing.assert_allclose(y, apply_delta_to_csr(csr, delta).matvec(x),
                                   rtol=1e-12, atol=1e-12)

    def test_updates_while_reads_queue(self, rng):
        """Updates land while reads sit in the batcher (fenced out and
        dispatched at their admission version) and in the scheduler
        queue; a budget of about two plans retires pinned versions
        early.  Every result is its stamped version's product, or a
        later version's when re-stamped — and the counter agrees."""
        csr = random_csr(96, 96, rng, row_len_sampler=ROW_PROFILES["mixed"])
        from repro.serve import plan_nbytes

        budget = 2 * plan_nbytes(DASPMatrix.from_csr(csr))
        heads, issued = [csr], []
        with SpMVServer(workers=2, max_batch=4, flush_timeout_s=0.05,
                        cache_budget_bytes=budget, queue_depth=256) as s:
            fp = s.register(csr)
            for step in range(16):
                for _ in range(int(rng.integers(1, 8))):
                    x = rng.uniform(-1, 1, 96)
                    issued.append((s.submit(SpMVRequest(fp, x)), x,
                                   len(heads) - 1))
                delta = random_delta(heads[-1], rng,
                                     structural=step % 3 == 0, n_entries=6)
                assert s.update(fp, delta) == len(heads)
                heads.append(apply_delta_to_csr(heads[-1], delta))
            assert s.drain(30.0)
            restamped = 0
            for fut, x, stamped in issued:
                y = fut.result(10.0)
                served = [v for v in range(stamped, len(heads))
                          if np.allclose(y, heads[v].matvec(x), rtol=1e-12,
                                         atol=1e-12)]
                assert served, "result matches no version from its stamp on"
                restamped += served[0] != stamped
            assert restamped > 0
            assert restamped == s.obs.counter(
                "serve.version_restamped_total").value
            assert s.stats.n_completed == len(issued)


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


def _warm_counts(obs) -> dict:
    return {a: int(obs.counter(f"pipeline.warm_{a}_total").value)
            for a in ("load", "build", "failed")}


def _gated_csr(loads: bool):
    """A matrix whose artifact the load-vs-rebuild gate loads (short
    rows) or rebuilds (long rows, where the payload outweighs the
    preprocessing it saves)."""
    rng = np.random.default_rng(12345)
    if loads:
        return random_csr(64, 64, rng, row_len_sampler=ROW_PROFILES["short"])
    return random_csr(300, 300, rng, row_len_sampler=ROW_PROFILES["long"])


def _stored(tmp_path, csr):
    from repro.store import PlanStore

    store = PlanStore(tmp_path / "s")
    fp = matrix_fingerprint(csr)
    store.put(fp, DASPMatrix.from_csr(csr))
    return store, fp


class TestWarm:
    def test_no_store_builds(self, rng):
        csr = random_csr(64, 64, rng)
        fp = matrix_fingerprint(csr)
        core = _core([csr], CostModel(A100))
        kind, seconds = core.warm(fp, build=True)
        assert kind == "build" and seconds > 0
        assert core.registry.peek(fp) is not None
        assert core.stats.preprocess_s == seconds
        assert _warm_counts(core.obs) == {"load": 0, "build": 1, "failed": 0}
        assert core.registry.misses == 1
        # resident now: warming again acquires (and counts) nothing
        assert core.warm(fp, build=True) is None
        assert core.registry.hits == 0

    def test_absent_artifact_builds(self, tmp_path, rng):
        from repro.store import PlanStore

        csr = random_csr(64, 64, rng)
        fp = matrix_fingerprint(csr)
        store = PlanStore(tmp_path / "s")
        core = _core([csr], CostModel(A100), store=store)
        kind, _ = core.warm(fp, build=True)
        assert kind == "build"
        assert fp in store          # written through like any build

    @pytest.mark.parametrize("loads", [True, False],
                             ids=["gate_loads", "gate_rebuilds"])
    def test_stored_artifact_follows_the_gate(self, tmp_path, loads):
        from repro.store import load_beats_rebuild, modeled_load_time

        store, fp = _stored(tmp_path, _gated_csr(loads))
        header = store.peek_header(fp)
        assert load_beats_rebuild(header, A100) is loads
        core = _core([_gated_csr(loads)], CostModel(A100), store=store)
        kind, seconds = core.warm(fp, build=True)
        assert kind == ("warm.load" if loads else "build")
        assert _warm_counts(core.obs) == {
            "load": int(loads), "build": int(not loads), "failed": 0}
        # a speculative load is not a cache miss; a speculative build is
        assert core.registry.misses == int(not loads)
        if loads:
            assert seconds == modeled_load_time(header, A100)

    def test_corrupt_artifact_quarantined_then_rebuilt(self, tmp_path):
        from repro.store import read_header

        csr = _gated_csr(loads=True)
        store, fp = _stored(tmp_path, csr)
        path = store.path_for(fp)
        header, payload_start = read_header(path)
        rec = next(r for r in header["arrays"] if r["nbytes"])
        blob = bytearray(path.read_bytes())
        blob[payload_start + int(rec["offset"])] ^= 0xFF
        path.write_bytes(bytes(blob))
        core = _core([csr], CostModel(A100), store=store)
        kind, _ = core.warm(fp, build=True)
        assert kind == "build"
        assert core.stats.store_quarantined == 1
        assert np.array_equal(core.registry.peek(fp).csr.data, csr.data)

    def test_failed_build_counts_and_does_not_raise(self, rng):
        from repro._util import ValidationError

        csr = random_csr(64, 64, rng)
        fp = matrix_fingerprint(csr)
        core = _core([csr], CostModel(A100))

        def broken(fp, csr):
            raise ValidationError("injected build failure")

        core.build = broken
        assert core.warm(fp, build=True) is None
        assert _warm_counts(core.obs) == {"load": 0, "build": 1, "failed": 1}
        assert core.registry.peek(fp) is None
        assert core.stats.preprocess_s == 0.0

    def test_preload_never_builds(self, tmp_path, rng):
        from repro.store import PlanStore, modeled_load_time

        csr = random_csr(64, 64, rng)
        fp = matrix_fingerprint(csr)
        for store in (None, PlanStore(tmp_path / "empty")):
            core = _core([csr], CostModel(A100), store=store)
            assert core.warm(fp, build=False) is None
            assert core.registry.peek(fp) is None
            assert core.registry.misses == 0
            assert core.stats.preprocess_s == 0.0
        # a stored artifact is preloaded even where the gate would
        # rebuild: the preload is paid off the serving clock
        store, fp = _stored(tmp_path, _gated_csr(loads=False))
        core = _core([_gated_csr(loads=False)], CostModel(A100), store=store)
        kind, seconds = core.warm(fp, build=False)
        assert kind == "load"
        assert seconds == modeled_load_time(store.peek_header(fp), A100)
        assert _warm_counts(core.obs) == {"load": 0, "build": 0, "failed": 0}
        assert core.warm(fp, build=False) is None   # resident: idempotent
        assert core.stats.preprocess_s == seconds

    def test_server_router_and_simulator_charge_the_same(self, tmp_path):
        """``SpMVServer(warm_start=True)``, ``Router.warm`` and the
        simulator's warm-start over one store charge the same modeled
        load seconds: they are one warm path."""
        from repro.cluster import Router
        from repro.matrices import representative_suite
        from repro.serve import WorkloadConfig, run_workload
        from repro.store import PlanStore

        pool = [e.matrix().astype(np.float64)
                for e in representative_suite()[:3]]
        store = PlanStore(tmp_path / "s")
        fps = [matrix_fingerprint(csr) for csr in pool]
        for fp, csr in zip(fps, pool):
            store.put(fp, DASPMatrix.from_csr(csr))
        sim = run_workload(WorkloadConfig(
            n_requests=50, n_matrices=3, seed=11, store=store.root,
            warm_start=True))
        assert sim.store_loads == 3 and sim.preprocess_s > 0
        with SpMVServer(workers=1, store=store.root, warm_start=True) as s:
            for csr in pool:
                s.register(csr)
            assert s.stats.preprocess_s == sim.preprocess_s
        servers = [SpMVServer(workers=1, store=store.root) for _ in range(2)]
        with Router(servers, seed=0) as router:
            for csr in pool:
                router.register(csr)
            assert sum(router.warm(fps).values()) == 3
            charged = sum(srv.stats.preprocess_s for srv in servers)
        assert charged == pytest.approx(sim.preprocess_s, rel=1e-12)
