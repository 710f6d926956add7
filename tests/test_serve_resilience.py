"""Resilience tests for `SpMVServer` — deadlines, retries, breaker,
degradation, validation, and shutdown guarantees (real threads)."""

import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro._util import ReproError, ValidationError
from repro.serve import (
    BreakerConfig,
    DeadlineExceededError,
    FaultInjector,
    FaultPlan,
    FaultRule,
    PlanTooLargeError,
    RetryPolicy,
    ServerClosedError,
    SpMVRequest,
    SpMVServer,
)
from repro.resilience import NO_RETRY, OPEN
from tests.conftest import random_csr


def make_server(**kw):
    kw.setdefault("max_batch", 4)
    kw.setdefault("flush_timeout_s", 0.005)
    kw.setdefault("workers", 2)
    return SpMVServer(**kw)


def injector(*rules, seed=0):
    return FaultInjector(FaultPlan(list(rules), seed=seed))


class TestDeadlines:
    def test_expired_request_fails_fast(self, rng):
        csr = random_csr(30, 40, rng)
        with make_server() as s:
            fp = s.register(csr)
            fut = s.submit(SpMVRequest(fp, rng.uniform(-1, 1, 40), deadline_us=0.0))
            s.flush()
            with pytest.raises(DeadlineExceededError):
                fut.result(timeout=5.0)
        assert s.stats.n_deadline_exceeded == 1

    def test_default_deadline_applies(self, rng):
        csr = random_csr(30, 40, rng)
        with make_server(default_deadline_s=0.0) as s:
            fp = s.register(csr)
            fut = s.submit(SpMVRequest(fp, rng.uniform(-1, 1, 40)))
            s.flush()
            with pytest.raises(DeadlineExceededError):
                fut.result(timeout=5.0)

    def test_generous_deadline_still_serves(self, rng):
        csr = random_csr(30, 40, rng)
        with make_server() as s:
            fp = s.register(csr)
            x = rng.uniform(-1, 1, 40)
            fut = s.submit(SpMVRequest(fp, x, deadline_us=30.0 * 1e6))
            s.flush()
            assert np.allclose(fut.result(timeout=5.0), csr.matvec(x),
                               rtol=1e-10)
        assert s.stats.n_deadline_exceeded == 0


class TestRetries:
    def test_transient_fault_retried_to_success(self, rng):
        csr = random_csr(30, 40, rng)
        inj = injector(FaultRule(kind="kernel_error", max_count=1))
        retry = RetryPolicy(max_retries=2, base_delay_s=1e-4, jitter=0.0)
        with make_server(fault_injector=inj, retry=retry) as s:
            fp = s.register(csr)
            x = rng.uniform(-1, 1, 40)
            fut = s.submit(SpMVRequest(fp, x))
            s.flush()
            y = fut.result(timeout=5.0)
        assert np.allclose(y, csr.matvec(x), rtol=1e-10)
        assert s.stats.retries >= 1
        assert s.stats.degraded_requests == 0  # retry sufficed

    def test_persistent_fault_degrades_to_fallback(self, rng):
        csr = random_csr(30, 40, rng)
        inj = injector(FaultRule(kind="kernel_error"))  # rate=1, forever
        retry = RetryPolicy(max_retries=1, base_delay_s=1e-4, jitter=0.0)
        with make_server(fault_injector=inj, retry=retry) as s:
            fp = s.register(csr)
            x = rng.uniform(-1, 1, 40)
            fut = s.submit(SpMVRequest(fp, x))
            s.flush()
            y = fut.result(timeout=5.0)
        assert np.allclose(y, csr.matvec(x), rtol=1e-10)  # fallback correct
        assert s.stats.degraded_requests >= 1
        assert s.stats.fallback_ratio > 0.0

    def test_injector_installed_after_construction_counts_faults(self, rng):
        """An injector swapped in through ``server.fault_injector`` is
        bound to the server's stats like a constructor argument."""
        csr = random_csr(30, 40, rng)
        retry = RetryPolicy(max_retries=1, base_delay_s=1e-4, jitter=0.0)
        with make_server(retry=retry) as s:
            fp = s.register(csr)
            s.fault_injector = injector(FaultRule(kind="kernel_error",
                                                  max_count=1))
            fut = s.submit(SpMVRequest(fp, rng.uniform(-1, 1, 40)))
            s.flush()
            fut.result(timeout=5.0)
        assert s.stats.retries == 1
        assert s.stats.faults_injected == 1

    def test_fallback_disabled_fails_the_future(self, rng):
        csr = random_csr(30, 40, rng)
        inj = injector(FaultRule(kind="kernel_error"))
        with make_server(fault_injector=inj, retry=NO_RETRY,
                         fallback=False) as s:
            fp = s.register(csr)
            fut = s.submit(SpMVRequest(fp, rng.uniform(-1, 1, 40)))
            s.flush()
            with pytest.raises(ReproError):
                fut.result(timeout=5.0)
        assert s.stats.n_failed == 1


class TestDegradation:
    def test_preprocess_fault_falls_back(self, rng):
        csr = random_csr(30, 40, rng)
        inj = injector(FaultRule(kind="preprocess_error"))
        with make_server(fault_injector=inj) as s:
            fp = s.register(csr)
            x = rng.uniform(-1, 1, 40)
            fut = s.submit(SpMVRequest(fp, x))
            s.flush()
            y = fut.result(timeout=5.0)
        assert np.allclose(y, csr.matvec(x), rtol=1e-10)
        assert s.stats.degraded_requests >= 1

    def test_nan_output_detected_and_degraded(self, rng):
        csr = random_csr(30, 40, rng)
        inj = injector(FaultRule(kind="kernel_nan"))
        with make_server(fault_injector=inj, retry=NO_RETRY) as s:
            fp = s.register(csr)
            x = rng.uniform(-1, 1, 40)
            fut = s.submit(SpMVRequest(fp, x))
            s.flush()
            y = fut.result(timeout=5.0)
        assert np.isfinite(y).all()
        assert np.allclose(y, csr.matvec(x), rtol=1e-10)
        assert s.stats.degraded_requests >= 1

    def test_plan_over_budget_served_from_fallback(self, rng):
        csr = random_csr(60, 80, rng)
        with make_server(cache_budget_bytes=1) as s:
            fp = s.register(csr)
            x = rng.uniform(-1, 1, 80)
            fut = s.submit(SpMVRequest(fp, x))
            s.flush()
            y = fut.result(timeout=5.0)
        assert np.allclose(y, csr.matvec(x), rtol=1e-10)
        assert s.stats.degraded_requests >= 1
        assert len(s.registry) == 0

    def test_breaker_opens_and_quarantines(self, rng):
        csr = random_csr(30, 40, rng)
        inj = injector(FaultRule(kind="kernel_error"))
        cfg = BreakerConfig(failure_threshold=2, recovery_s=60.0)
        with make_server(fault_injector=inj, retry=NO_RETRY,
                         breaker=cfg) as s:
            fp = s.register(csr)
            for _ in range(4):
                fut = s.submit(SpMVRequest(fp, rng.uniform(-1, 1, 40)))
                s.flush()
                fut.result(timeout=5.0)  # degraded, still answered
        assert s.stats.breaker_state.get(fp) == OPEN
        assert s.stats.breaker_transitions >= 1
        assert s.stats.degraded_requests == 4

    def test_degraded_batches_issue_no_mma_flops(self, rng):
        csr = random_csr(30, 40, rng)
        inj = injector(FaultRule(kind="kernel_error"))
        with make_server(fault_injector=inj, retry=NO_RETRY) as s:
            fp = s.register(csr)
            fut = s.submit(SpMVRequest(fp, rng.uniform(-1, 1, 40)))
            s.flush()
            fut.result(timeout=5.0)
        assert s.stats.issued_mma_flops == 0.0


class TestSubmitValidation:
    def test_unknown_fingerprint_raises_on_caller(self, rng):
        with make_server() as s:
            with pytest.raises(ReproError):
                s.submit(SpMVRequest("deadbeef", np.ones(4)))

    def test_wrong_length_x(self, rng):
        csr = random_csr(30, 40, rng)
        with make_server() as s:
            fp = s.register(csr)
            with pytest.raises(ValidationError):
                s.submit(SpMVRequest(fp, np.ones(39)))

    def test_non_finite_x(self, rng):
        csr = random_csr(30, 40, rng)
        with make_server() as s:
            fp = s.register(csr)
            x = np.ones(40)
            x[3] = np.nan
            with pytest.raises(ValidationError):
                s.submit(SpMVRequest(fp, x))
            x[3] = np.inf
            with pytest.raises(ValidationError):
                s.submit(SpMVRequest(fp, x))


class TestShutdown:
    def test_submit_after_close_raises(self, rng):
        csr = random_csr(30, 40, rng)
        s = make_server()
        fp = s.register(csr)
        s.close()
        with pytest.raises(ServerClosedError):
            s.submit(SpMVRequest(fp, np.ones(40)))
        with pytest.raises(ServerClosedError):
            s.register(csr)

    def test_abort_resolves_parked_futures(self, rng):
        csr = random_csr(30, 40, rng)
        s = make_server(flush_timeout_s=60.0)  # nothing auto-flushes
        fp = s.register(csr)
        futs = [s.submit(SpMVRequest(fp, rng.uniform(-1, 1, 40))) for _ in range(3)]
        s.close(timeout=5.0, drain=False)
        for fut in futs:
            with pytest.raises(ServerClosedError):
                fut.result(timeout=5.0)
        assert s.stats.n_closed == 3

    def test_drain_close_serves_parked_futures(self, rng):
        csr = random_csr(30, 40, rng)
        s = make_server(flush_timeout_s=60.0)
        fp = s.register(csr)
        x = rng.uniform(-1, 1, 40)
        fut = s.submit(SpMVRequest(fp, x))
        s.close(timeout=5.0)  # drain=True flushes + executes
        assert np.allclose(fut.result(timeout=5.0), csr.matvec(x),
                           rtol=1e-10)

    def test_flusher_stops_even_with_long_timeout(self, rng):
        s = make_server(flush_timeout_s=120.0)
        flusher = s._flusher
        t0 = time.perf_counter()
        s.close(timeout=5.0)
        assert time.perf_counter() - t0 < 5.0
        flusher.join(timeout=5.0)
        assert not flusher.is_alive()

    def test_close_idempotent(self, rng):
        s = make_server()
        s.close()
        s.close()  # second close is a no-op

    def test_concurrent_register_submit_close_race(self, rng):
        """Threaded stress: every submitted future must resolve."""
        csrs = [random_csr(20, 30, rng) for _ in range(3)]
        s = make_server(flush_timeout_s=0.001, workers=3, queue_depth=256)
        fps = [s.register(c) for c in csrs]
        barrier = threading.Barrier(5)
        futures: list[Future] = []
        fut_lock = threading.Lock()
        errs: list[Exception] = []

        def submitter(seed):
            r = np.random.default_rng(seed)
            barrier.wait()
            for _ in range(40):
                i = int(r.integers(len(fps)))
                try:
                    f = s.submit(SpMVRequest(fps[i], r.uniform(-1, 1, 30)))
                except ServerClosedError:
                    return  # close won the race: acceptable
                except Exception as exc:  # noqa: BLE001
                    errs.append(exc)
                    return
                with fut_lock:
                    futures.append(f)

        def closer():
            barrier.wait()
            time.sleep(0.02)
            s.close(timeout=10.0)

        threads = [threading.Thread(target=submitter, args=(i,))
                   for i in range(4)] + [threading.Thread(target=closer)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30.0)
        s.close(timeout=10.0)
        assert not errs
        resolved = 0
        for f in futures:
            assert f.done(), "leaked future after close"
            if f.exception(timeout=0) is None:
                resolved += 1
            else:
                assert isinstance(f.exception(timeout=0), ServerClosedError)
        # served + swept must cover every submitted future
        assert resolved + s.stats.n_closed >= len(futures)
