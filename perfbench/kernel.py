"""``kernel``: closed-loop ``dasp_spmv`` / ``dasp_spmm`` over the 21-matrix suite.

One thread, one call outstanding.  The seed draws the vectors and one
small structural delta per suite matrix (``random_delta``, 8 entries),
so each seed runs its own instance of every matrix with the same row
profile.  Each plan is built once in set-up; then passes run
``dasp_spmv`` and ``dasp_spmm`` (k=8) on every matrix until the time
is up.  No cost model, batcher or thread runs inside the timed loop.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import DASPMatrix, apply_delta_to_csr, random_delta, spmm_events
from repro.gpu import get_device
from repro.gpu.cost_model import estimate_time

from .common import (SPMM_K, KernelProbe, Report, metric, percentile_ms,
                     rng_for, suite_entries, timed_setup)
from .layers import traced_run

#: A run makes at least this many passes (42 calls each), so p95 has
#: at least ten calls beyond it.
MIN_PASSES = 5


def _setup(seed: int):
    rng = rng_for(seed, 1)
    csrs = []
    for e in suite_entries():
        a = e.matrix()
        csrs.append(apply_delta_to_csr(a, random_delta(a, rng, structural=True)))
    return csrs, [DASPMatrix.from_csr(a) for a in csrs]


def run(seed: int, seconds: float, trace: bool = False) -> Report:
    (csrs, plans), setup_s = timed_setup(lambda: _setup(seed))
    probe = KernelProbe(csrs, rng_for(seed, 2), plans)
    rep = Report()

    if trace:
        traced_run(rep, lambda rec: probe.run_pass(rec, with_csr=True),
                   lambda ops: {}, seconds)
    else:
        t_end = time.perf_counter() + seconds
        while len(probe.t_v) < MIN_PASSES or time.perf_counter() < t_end:
            probe.run_pass()
        # Every pass repeats the same calls; each call's fastest time is the
        # one least disturbed by other load on a shared machine.
        t_v, t_m = probe.fastest_pass_seconds()
        lat = np.concatenate([np.ravel(probe.t_v), np.ravel(probe.t_m)])
        # Modeled A100 time of the same calls, from the cost model, after timing.
        dev = get_device("A100")
        modeled = [estimate_time(spmm_events(p, dev, k), dev, dtype_bits=64).total
                   for p in plans for k in (1, SPMM_K)]
        rep.metrics = {
            "setup_s": metric(setup_s, "s"),
            **probe.gflops(),
            "req_per_s": metric(2 * len(plans) / (t_v + t_m), "req/s"),
            "p50_ms": metric(percentile_ms(lat, 50), "ms"),
            "p95_ms": metric(percentile_ms(lat, 95), "ms"),
            "modeled_rps": metric(len(modeled) / sum(modeled), "req/s"),
            "modeled_p99_ms": metric(percentile_ms(modeled, 99), "ms"),
            "ok_frac": metric(1.0 - probe.mismatched / probe.calls, "fraction"),
        }
        rep.notes.append(f"{len(probe.t_v)} passes, {lat.size} calls")
    rep.attempted, rep.failed = probe.calls, probe.mismatched
    rep.correct = probe.mismatched == 0
    return rep
