"""Tests for the unified typed request API (`repro.serve.request`).

Covers the api_redesign contract: `SpMVRequest` / `SpMMRequest` objects
accepted by both `SpMVServer.submit` and `Router.submit` (the removed
positional form now fails fast), SpMM end-to-end through server and
router, and
the k=1-through-the-SpMM-path regression (events parity and serving
behavior unchanged).
"""

import warnings

import numpy as np
import pytest

from repro._util import ValidationError
from repro.cluster import Router
from repro.core import DASPMatrix, DASPMethod
from repro.core.spmm import spmm_events
from repro.serve import MMA_N, SpMMRequest, SpMVRequest, SpMVServer
from tests.conftest import random_csr


@pytest.fixture
def server():
    with SpMVServer(max_batch=4, flush_timeout_s=0.01, workers=2) as s:
        yield s


class TestRequestObjects:
    def test_spmv_request_width_one(self, rng):
        req = SpMVRequest("fp", rng.uniform(-1, 1, 8))
        assert req.width == 1
        assert req.priority == "interactive"
        assert req.deadline_us is None and req.shards is None

    def test_spmm_request_width_is_k(self, rng):
        req = SpMMRequest("fp", rng.uniform(-1, 1, (8, 24)),
                          priority="batch")
        assert req.width == 24
        assert req.priority == "batch"

    def test_public_fields_keyword_only(self, rng):
        with pytest.raises(TypeError):
            SpMVRequest("fp", rng.uniform(-1, 1, 4), 1000.0)

    def test_server_keeps_submitted_object_pristine(self, server, rng):
        csr = random_csr(20, 30, rng)
        fp = server.register(csr)
        req = SpMVRequest(fp, rng.uniform(-1, 1, 30), deadline_us=1e9)
        fut = server.submit(req)
        server.flush()
        fut.result(timeout=5.0)
        # the server stamps bookkeeping on a copy, never on the
        # caller's object (hedging re-issues the same request object)
        assert req.req_id == -1
        assert req.result is None and np.isnan(req.arrival_s)


class TestDeprecatedPositionalForm:
    def test_server_rejects_positional_form(self, server, rng):
        csr = random_csr(30, 40, rng)
        fp = server.register(csr)
        with pytest.raises(ValidationError, match="SpMVRequest"):
            server.submit(fp)
        with pytest.raises(TypeError):
            server.submit(fp, rng.uniform(-1, 1, 40))

    def test_router_rejects_positional_form(self, rng):
        servers = [SpMVServer(workers=1, queue_depth=16) for _ in range(2)]
        with Router(servers, seed=1) as router:
            fp = router.register(random_csr(24, 24, rng))
            with pytest.raises(ValidationError, match="SpMVRequest"):
                router.submit(fp)
            with pytest.raises(TypeError):
                router.submit(fp, rng.uniform(-1, 1, 24))

    def test_new_form_rejects_extra_positional_kwargs(self, server, rng):
        csr = random_csr(10, 12, rng)
        fp = server.register(csr)
        req = SpMVRequest(fp, rng.uniform(-1, 1, 12))
        with pytest.raises(Exception):
            server.submit(req, deadline_s=1.0)

    def test_new_form_emits_no_warning(self, server, rng):
        csr = random_csr(10, 12, rng)
        fp = server.register(csr)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            fut = server.submit(SpMVRequest(fp, rng.uniform(-1, 1, 12)))
        server.flush()
        assert fut.result(5.0).shape == (10,)


class TestSpMMServing:
    @pytest.mark.parametrize("k", [2, 8, 24, 100])
    def test_server_spmm_end_to_end(self, server, rng, k):
        csr = random_csr(40, 60, rng)
        fp = server.register(csr)
        X = rng.uniform(-1, 1, (60, k))
        fut = server.submit(SpMMRequest(fp, X))
        Y = fut.result(timeout=10.0)
        assert Y.shape == (40, k)
        # bitwise the plan-level column-wise reference
        plan = DASPMatrix.from_csr(csr)
        from repro.core import dasp_spmv
        ref = np.stack([dasp_spmv(plan, X[:, j]) for j in range(k)], axis=1)
        assert np.array_equal(Y, ref)

    def test_spmm_bypasses_batcher(self, server, rng):
        csr = random_csr(30, 50, rng)
        fp = server.register(csr)
        X = rng.uniform(-1, 1, (50, 16))
        fut = server.submit(SpMMRequest(fp, X))
        # no flush needed: the block goes straight to the scheduler
        assert fut.result(timeout=10.0).shape == (30, 16)
        assert server.stats.batch_hist.get(16, 0) >= 1

    def test_large_k_strategy_counter(self, rng):
        with SpMVServer(workers=1) as s:
            csr = random_csr(60, 80, rng)
            fp = s.register(csr)
            X = rng.uniform(-1, 1, (80, 64))
            s.submit(SpMMRequest(fp, X)).result(timeout=10.0)
            total = s.obs.registry.family_total("serve.spmm_large_total")
        assert total == 1

    def test_router_spmm_end_to_end(self, rng):
        servers = [SpMVServer(workers=1, queue_depth=16) for _ in range(2)]
        with Router(servers, seed=1) as router:
            csr = random_csr(32, 48, rng)
            fp = router.register(csr)
            X = rng.uniform(-1, 1, (48, 40))
            Y = router.submit(SpMMRequest(fp, X)).result(timeout=15.0)
        plan = DASPMatrix.from_csr(csr)
        from repro.core import dasp_spmv
        ref = np.stack([dasp_spmv(plan, X[:, j]) for j in range(40)], axis=1)
        assert np.array_equal(Y, ref)

    def test_shards_hint_on_request(self, rng):
        """A sharded k > 8 batch runs the large-k tier band by band: the
        result is bitwise the column-wise reference, every band counts
        its strategy, and the batch is charged the LPT makespan of the
        per-band strategy prices plus dispatch."""
        from repro.core import dasp_spmv
        from repro.shard import lpt_makespan

        with SpMVServer(workers=2) as s:
            csr = random_csr(64, 64, rng)
            fp = s.register(csr)
            X = rng.uniform(-1, 1, (64, 16))
            fut = s.submit(SpMMRequest(fp, X, shards=2))
            Y = fut.result(timeout=10.0)
            plan = s.registry.peek(fp)
            strats = s.core.strategy(fp, fp, plan, 16)
        assert s.stats.n_completed >= 1
        dasp = DASPMatrix.from_csr(csr)
        ref = np.stack([dasp_spmv(dasp, X[:, j]) for j in range(16)], axis=1)
        assert np.array_equal(Y, ref)
        assert len(plan.bands()) == len(strats) == 2
        assert sum(s.stats.spmm_large_by_strategy.values()) == 2
        dispatch = s.device.launch_overhead_s
        assert s.stats.device_busy_s == lpt_makespan(
            [st.modeled_s + dispatch for st in strats], 2)

    def test_bad_block_shape_rejected(self, server, rng):
        csr = random_csr(20, 30, rng)
        fp = server.register(csr)
        from repro._util import ValidationError
        with pytest.raises(ValidationError):
            server.submit(SpMMRequest(fp, rng.uniform(-1, 1, (31, 4))))


class TestK1Regression:
    """Satellite 2: k=1 rides the SpMM path with identical events."""

    def test_spmm_events_k1_matches_spmv_events(self, rng):
        csr = random_csr(96, 300, rng)
        plan = DASPMatrix.from_csr(csr)
        ev_spmm = spmm_events(plan, "A100", 1)
        ev_spmv = DASPMethod().events(plan, "A100")
        assert ev_spmm == ev_spmv

    def test_single_request_still_correct_and_counted(self, rng):
        csr = random_csr(40, 60, rng)
        with SpMVServer(max_batch=1, flush_timeout_s=0.005) as s:
            fp = s.register(csr)
            x = rng.uniform(-1, 1, 60)
            y = s.submit(SpMVRequest(fp, x)).result(timeout=5.0)
        assert np.allclose(y, csr.matvec(x), rtol=1e-10)
        assert s.stats.n_completed == 1
        assert s.stats.batch_hist.get(1, 0) == 1
        # k=1 must never take the large-k strategies
        assert 1 <= MMA_N
