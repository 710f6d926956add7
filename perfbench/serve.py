"""``serve``: the real threaded ``SpMVServer`` under a closed loop.

``workers`` = the CPUs this process may use.  One generator thread keeps
``OUTSTANDING`` requests in flight (solver clients that wait for each
reply), Zipf 1.1 over four small suite matrices, SpMV only.  Every wait
is bounded: a future still unresolved ``LOST_AFTER_S`` after it was
submitted is counted as lost and the loop goes on.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, wait

import numpy as np

from repro.core import DASPMatrix, dasp_spmv
from repro.serve import SpMVRequest, SpMVServer
from repro.serve.batcher import Batch
from repro.serve.driver import WorkloadConfig, run_workload, zipf_weights
from repro.serve.scheduler import QueueFullError

from .common import (ATOL, RTOL, SERVE_POOL, KernelProbe, Report, metric,
                     percentile_ms, pregenerated, require, rng_for,
                     suite_entries, timed_setup)
from .layers import traced_run

OUTSTANDING = 8
LOST_AFTER_S = 10.0
#: Distinct x vectors per matrix.
XS_PER_MATRIX = 4
#: A timed window completes at least this many requests, so p95 has ten beyond it.
MIN_COMPLETED = 200
#: The timed window is cut into this many stretches; after each, with no
#: request outstanding, the kernel probe pauses the loop.
CHUNKS = 4
#: Requests per op of the traced run.
TRACE_REQUESTS = 100
#: Requests of the virtual-time twin that models this traffic mix.
TWIN_REQUESTS = 2000


def workers() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class ClosedLoop:
    """The generator thread's state: references, counters, latencies."""

    def __init__(self, server, fps, csrs, seed: int) -> None:
        self.server, self.fps = server, fps
        rng = rng_for(seed, 4)
        self.xs = [[rng.uniform(-1.0, 1.0, a.shape[1])
                    for _ in range(XS_PER_MATRIX)] for a in csrs]
        plans = [DASPMatrix.from_csr(a) for a in csrs]
        self.refs = [[dasp_spmv(p, x) for x in xs]
                     for p, xs in zip(plans, self.xs)]
        for a, xs, refs in zip(csrs, self.xs, self.refs):
            for x, y in zip(xs, refs):
                require(np.allclose(a.matvec(x), y, rtol=RTOL, atol=ATOL),
                        "dasp_spmv differs from CSR matvec")
        self.weights = zipf_weights(len(fps), 1.1)
        self.rng = rng_for(seed, 5)
        self.latencies: list[float] = []
        self.completed = self.failed = self.rejected = self.lost = 0
        self.mismatched = 0

    @property
    def attempted(self) -> int:
        return (self.completed + self.failed + self.rejected + self.lost
                + self.mismatched)

    def _submit(self, pending: dict) -> bool:
        i = int(self.rng.choice(len(self.fps), p=self.weights))
        j = int(self.rng.integers(XS_PER_MATRIX))
        t0 = time.perf_counter()
        try:
            fut = self.server.submit(SpMVRequest(self.fps[i], self.xs[i][j]))
        except QueueFullError:
            self.rejected += 1
            return False
        done_at: list = []
        fut.add_done_callback(lambda f, d=done_at: d.append(time.perf_counter()))
        pending[fut] = (i, j, t0, done_at)
        return True

    def run(self, *, seconds: float = 0.0, requests: int = 0) -> float:
        """Drive until ``seconds`` passed, or until ``requests`` were
        submitted, then drain; returns the wall seconds."""
        pending: dict = {}
        start = time.perf_counter()
        submitted = 0
        while True:
            if requests:
                stop = submitted >= requests
            else:
                stop = time.perf_counter() - start >= seconds
            while not stop and len(pending) < OUTSTANDING:
                if requests and submitted >= requests:
                    break
                submitted += 1
                if not self._submit(pending):
                    break
            if not pending:
                if stop:
                    break
                time.sleep(0.001)  # only after a rejected submit
                continue
            done, _ = wait(list(pending), timeout=0.5,
                           return_when=FIRST_COMPLETED)
            for fut in done:
                i, j, t0, done_at = pending.pop(fut)
                if fut.exception() is not None:
                    self.failed += 1
                elif not np.array_equal(fut.result(), self.refs[i][j]):
                    self.mismatched += 1
                else:
                    # The future wakes ``wait`` before it runs its callbacks.
                    t_done = done_at[0] if done_at else time.perf_counter()
                    self.completed += 1
                    self.latencies.append(t_done - t0)
            now = time.perf_counter()
            for fut in [f for f, v in pending.items() if now - v[2] > LOST_AFTER_S]:
                del pending[fut]
                self.lost += 1
        return time.perf_counter() - start


def _setup(nworkers: int):
    csrs = [e.matrix() for e in suite_entries(SERVE_POOL)]
    server = SpMVServer(workers=nworkers)
    fps = [server.register(a) for a in csrs]
    warm = [server.submit(SpMVRequest(fp, np.ones(a.shape[1])))
            for fp, a in zip(fps, csrs)]
    done, _ = wait(warm, timeout=LOST_AFTER_S)
    if not (len(done) == len(warm) and all(f.exception() is None for f in done)):
        server.close(timeout=LOST_AFTER_S)
        require(False, "warm-up requests did not complete")
    return csrs, server, fps


def _close(setup) -> None:
    setup[1].close(timeout=LOST_AFTER_S)


def queue_wait_hooks(rec, waits: list) -> None:
    """Record, per request, its latency minus its batch's kernel span
    (from ``Batch.assemble_x`` to the end of ``Batch.scatter``), and tag
    the spans of that stretch with the batch's request ids."""
    starts: dict = {}
    assemble, scatter = Batch.assemble_x, Batch.scatter

    def timed_assemble(self):
        starts[id(self)] = time.perf_counter()
        rec.set_request([r.req_id for r in self.requests])
        return assemble(self)

    def timed_scatter(self, Y, completion_s):
        scatter(self, Y, completion_s)
        rec.set_request(None)
        t0 = starts.pop(id(self), None)
        if t0 is not None:
            kernel = time.perf_counter() - t0
            waits.extend(r.latency_s - kernel for r in self.requests)

    rec.patch(Batch, "assemble_x", timed_assemble)
    rec.patch(Batch, "scatter", timed_scatter)


def run(seed: int, seconds: float, trace: bool = False) -> Report:
    nworkers = workers()
    (csrs, server, fps), setup_s = timed_setup(lambda: _setup(nworkers), _close)
    rep = Report()
    try:
        loop = ClosedLoop(server, fps, csrs, seed)
        if trace:
            waits: list = []
            acc = dict.fromkeys(("batches", "completed", "hits", "misses"), 0)

            def counters():
                s = server.stats
                return dict(batches=s.n_batches, completed=s.n_completed,
                            hits=s.cache_hits, misses=s.cache_misses)

            def op(rec):
                if rec is not None:
                    queue_wait_hooks(rec, waits)
                    before = counters()
                n0 = loop.completed
                loop.run(requests=TRACE_REQUESTS)
                if rec is not None:
                    for key, value in counters().items():
                        acc[key] += value - before[key]
                return loop.completed - n0

            def extra(ops):
                looked = acc["hits"] + acc["misses"]
                return {
                    "serve.plan_cache.hit_ratio": acc["hits"] / max(looked, 1),
                    "serve.batcher.batches": acc["batches"] / ops,
                    "serve.batcher.mean_batch":
                        acc["completed"] / max(acc["batches"], 1),
                    "serve.scheduler.queue_wait_s":
                        float(np.mean(waits)) if waits else 0.0,
                    "serve.scheduler.rejected":
                        server.stats.n_rejected + loop.rejected,
                    "serve.server.lost": loop.lost,
                }
            traced_run(rep, op, extra, seconds)
            rep.attempted, rep.failed = loop.attempted, loop.attempted - loop.completed
            rep.correct = loop.mismatched == 0
            return rep

        probe = KernelProbe(csrs, rng_for(seed, 2))
        wall = 0.0
        while wall < seconds or loop.completed < MIN_COMPLETED:
            wall += loop.run(seconds=seconds / CHUNKS)
            probe.pause()
    finally:
        server.close(timeout=LOST_AFTER_S)

    twin = run_workload(WorkloadConfig(
        n_requests=TWIN_REQUESTS, seed=seed,
        entries=pregenerated(suite_entries(SERVE_POOL))))
    rep.attempted = loop.attempted
    rep.failed = loop.attempted - loop.completed
    rep.correct = loop.mismatched == 0 and probe.mismatched == 0
    lat = loop.latencies
    rep.metrics = {
        "setup_s": metric(setup_s, "s"),
        **probe.gflops(),
        "req_per_s": metric(loop.completed / wall, "req/s"),
        "p50_ms": metric(percentile_ms(lat, 50), "ms"),
        "p95_ms": metric(percentile_ms(lat, 95), "ms"),
        "modeled_rps": metric(server.stats.throughput_rps, "req/s"),
        "modeled_p99_ms": metric(percentile_ms(twin.latencies_s, 99), "ms"),
        "ok_frac": metric(loop.completed / loop.attempted, "fraction"),
    }
    rep.notes.append(
        f"{loop.completed} completed, {loop.failed} failed, {loop.rejected} "
        f"rejected, {loop.lost} lost, {loop.mismatched} mismatched; "
        f"{server.stats.n_batches} batches on {nworkers} workers")
    return rep
