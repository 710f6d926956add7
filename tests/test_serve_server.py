"""End-to-end tests for `SpMVServer` (real threads, futures API)."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro._util import ReproError, ValidationError
from repro.serve import QueueFullError, SpMVRequest, SpMVServer
from tests.conftest import random_csr


@pytest.fixture
def server():
    with SpMVServer(max_batch=4, flush_timeout_s=0.01, workers=2) as s:
        yield s


class TestServing:
    def test_single_request_correct(self, server, rng):
        csr = random_csr(40, 60, rng)
        fp = server.register(csr)
        x = rng.uniform(-1, 1, 60)
        fut = server.submit(SpMVRequest(fp, x))
        server.flush()
        y = fut.result(timeout=5.0)
        assert np.allclose(y, csr.matvec(x), rtol=1e-10)

    def test_full_batch_scatters_each_result(self, server, rng):
        csr = random_csr(30, 50, rng)
        fp = server.register(csr)
        xs = [rng.uniform(-1, 1, 50) for _ in range(4)]
        futs = [server.submit(SpMVRequest(fp, x)) for x in xs]  # max_batch=4 -> flush
        for x, fut in zip(xs, futs):
            assert np.allclose(fut.result(timeout=5.0), csr.matvec(x),
                               rtol=1e-10)
        assert server.stats.batch_hist.get(4, 0) >= 1

    def test_multiple_matrices_routed(self, server, rng):
        a = random_csr(20, 30, rng)
        b = random_csr(25, 30, rng)
        fa, fb = server.register(a), server.register(b)
        x = rng.uniform(-1, 1, 30)
        ya = server.submit(SpMVRequest(fa, x))
        yb = server.submit(SpMVRequest(fb, x))
        server.flush()
        assert ya.result(5.0).shape == (20,)
        assert yb.result(5.0).shape == (25,)

    def test_plan_cached_across_batches(self, server, rng):
        csr = random_csr(30, 40, rng)
        fp = server.register(csr)
        for _ in range(3):
            fut = server.submit(SpMVRequest(fp, rng.uniform(-1, 1, 40)))
            server.flush()
            fut.result(timeout=5.0)
        snap = server.registry.snapshot()
        assert snap["misses"] == 1 and snap["hits"] == 2

    def test_stats_populated_on_close(self, rng):
        csr = random_csr(30, 40, rng)
        with SpMVServer(max_batch=2, flush_timeout_s=0.005) as s:
            fp = s.register(csr)
            futs = [s.submit(SpMVRequest(fp, rng.uniform(-1, 1, 40))) for _ in range(4)]
            s.drain(timeout=5.0)
            for f in futs:
                f.result(timeout=5.0)
        assert s.stats.n_completed == 4
        assert s.stats.device_busy_s > 0
        assert s.stats.cache_misses == 1
        assert s.stats.mma_utilization > 0
        assert len(s.stats.latencies_s) == 4

    def test_timeout_flush_completes_partial(self, rng):
        csr = random_csr(20, 30, rng)
        with SpMVServer(max_batch=8, flush_timeout_s=0.01) as s:
            fp = s.register(csr)
            fut = s.submit(SpMVRequest(fp, rng.uniform(-1, 1, 30)))
            # no explicit flush: the flusher thread must pick it up
            y = fut.result(timeout=5.0)
        assert y.shape == (20,)


class TestValidation:
    def test_unknown_fingerprint(self, server, rng):
        with pytest.raises(ReproError):
            server.submit(SpMVRequest("deadbeef", rng.uniform(-1, 1, 10)))

    def test_wrong_shape(self, server, rng):
        fp = server.register(random_csr(10, 20, rng))
        with pytest.raises(ValidationError):
            server.submit(SpMVRequest(fp, rng.uniform(-1, 1, 21)))

    def test_reject_backpressure_counted(self, rng):
        csr = random_csr(15, 20, rng)
        # max_batch=1: every submit forms a batch; 1-deep queue + slow-ish
        # modeled kernels means concurrent submits can hit QueueFullError
        with SpMVServer(max_batch=1, queue_depth=1, workers=1,
                        policy="reject") as s:
            fp = s.register(csr)
            rejected = 0
            for _ in range(50):
                try:
                    s.submit(SpMVRequest(fp, rng.uniform(-1, 1, 20)))
                except QueueFullError:
                    rejected += 1
            s.drain(timeout=5.0)
        assert s.stats.n_requests == 50
        assert s.stats.n_rejected == rejected
        assert s.stats.n_completed == 50 - rejected


def _glibc() -> bool:
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (AttributeError, ValueError):
        return False


#: Page faults of ten calls that each hold three 12 MiB temporaries and
#: free them together, the shape of a kernel call, after one warm call;
#: ``{server}`` is 1 to construct a server first.
HEAP_PROBE = """
import resource
import numpy as np
from repro.serve import SpMVServer
if {server}:
    SpMVServer(workers=1).close()
def call():
    parts = [np.ones(3 << 19) for _ in range(3)]
    del parts
call()
before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
for _ in range(10):
    call()
print(resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before)
"""


@pytest.mark.skipif(not (sys.platform.startswith("linux") and _glibc()),
                    reason="glibc heap thresholds")
class TestHeapThresholds:
    @staticmethod
    def faults(server: bool) -> int:
        out = subprocess.run(
            [sys.executable, "-c", HEAP_PROBE.format(server=int(server))],
            capture_output=True, text=True, check=True)
        return int(out.stdout)

    def test_server_keeps_kernel_temporaries_resident(self):
        """Under glibc's dynamic thresholds the heap hands part of the
        freed temporaries back to the OS and every call faults it in
        again (~1000 pages a call here); once a server pinned the
        thresholds, the calls reuse the heap."""
        assert self.faults(server=False) > 1000
        assert self.faults(server=True) < 100
