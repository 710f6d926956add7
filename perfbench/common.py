"""Shared helpers: seeded inputs, timed set-up, statistics, reporting."""

from __future__ import annotations

import dataclasses
import statistics
import time
from pathlib import Path

import numpy as np

from repro.core import DASPMatrix, dasp_spmm, dasp_spmv
from repro.matrices import representative_suite

#: Scratch space inside the checkout (temporary plan stores, span dumps).
WORK_DIR = Path(__file__).resolve().parent.parent / ".perfbench_work"
#: How many times every workload repeats its set-up; ``setup_s`` is the median.
SETUP_REPS = 3
#: RHS width of the SpMM calls the kernel probes time.
SPMM_K = 8
#: Relative/absolute tolerance of a DASP result against plain CSR matvec.
RTOL, ATOL = 1e-12, 1e-12

#: The matrix pools.  ``churn`` uses the virtual-time drivers' default
#: pool (the first four suite matrices); ``serve`` uses four small
#: matrices so that the threaded server completes hundreds of requests.
#: The kernel probe of ``serve`` and ``churn`` also runs over
#: ``SERVE_POOL``: a pass takes ~0.1 s, so a pause can afford several.
CHURN_POOL = ("pwtk", "FullChip", "mip1", "mc2depi")
SERVE_POOL = ("scircuit", "mac_econ_fwd500", "rma10", "conf5_4-8x8-10")


class CheckFailed(Exception):
    """An output did not match its reference."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def rng_for(seed: int, tag: int) -> np.random.Generator:
    """Independent stream per (seed, purpose)."""
    return np.random.default_rng([int(seed), int(tag)])


def suite_entries(names=None) -> list:
    entries = representative_suite()
    if names is None:
        return entries
    by_name = {e.name: e for e in entries}
    return [by_name[n] for n in names]


def pregenerated(entries) -> list:
    """Generate each matrix now; return entries whose ``build`` hands it back.

    The drivers accept ``WorkloadConfig.entries``; passing pre-generated
    entries moves matrix generation into the benchmark's set-up.
    """
    out = []
    for e in entries:
        csr = e.matrix()
        out.append(dataclasses.replace(e, build=lambda csr=csr: csr))
    return out


def timed_setup(build, teardown=None):
    """Run ``build()`` ``SETUP_REPS`` times; return (last result, median
    seconds).  ``teardown(result)`` releases every result but the last.
    """
    times, result = [], None
    for _ in range(SETUP_REPS):
        if result is not None and teardown is not None:
            teardown(result)
        t0 = time.perf_counter()
        result = build()
        times.append(time.perf_counter() - t0)
    return result, statistics.median(times)


def median(values) -> float:
    return float(statistics.median(values))


def percentile_ms(seconds, q: float) -> float:
    return float(np.percentile(np.asarray(seconds, dtype=np.float64), q)) * 1e3


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


class KernelProbe:
    """Passes of ``dasp_spmv`` and ``dasp_spmm`` (k=8) over a matrix pool.

    Every output is checked: ``dasp_spmv`` against ``CSRMatrix.matvec``
    within FP64 tolerance, every ``dasp_spmm`` column bitwise against
    ``dasp_spmv`` of that column.  The workloads other than ``kernel``
    call :meth:`pause` between their own timed ops, so that the GFLOP/s
    they report sample the whole timed window, not one moment of it.
    """

    #: Passes per :meth:`pause`.
    PAUSE_PASSES = 4

    def __init__(self, csrs, rng, plans=None) -> None:
        self.csrs = csrs
        self.plans = plans or [DASPMatrix.from_csr(a) for a in csrs]
        self.xs = [rng.uniform(-1.0, 1.0, a.shape[1]) for a in csrs]
        self.Xs = [rng.uniform(-1.0, 1.0, (a.shape[1], SPMM_K)) for a in csrs]
        self.y_ref = [a.matvec(x) for a, x in zip(csrs, self.xs)]
        self.Y_ref = [np.stack([dasp_spmv(p, X[:, j]) for j in range(SPMM_K)],
                               axis=1) for p, X in zip(self.plans, self.Xs)]
        #: Per pass, the seconds of each matrix's spmv and spmm call.
        self.t_v: list = []
        self.t_m: list = []
        self.calls = self.mismatched = 0

    def run_pass(self, rec=None, with_csr: bool = False) -> int:
        """One call of each kind per matrix; returns the calls made.

        ``with_csr`` runs the plain CSR reference beside each call, and
        ``rec`` tags the spans of matrix ``i`` with ``i`` (traced run)."""
        t_v, t_m = [], []
        for i, p in enumerate(self.plans):
            if rec is not None:
                rec.set_request(i)
            t0 = time.perf_counter()
            y = dasp_spmv(p, self.xs[i])
            t1 = time.perf_counter()
            Y = dasp_spmm(p, self.Xs[i])
            t2 = time.perf_counter()
            if with_csr:
                self.csrs[i].matvec(self.xs[i])
            t_v.append(t1 - t0)
            t_m.append(t2 - t1)
            self.mismatched += not np.allclose(y, self.y_ref[i], rtol=RTOL,
                                               atol=ATOL)
            self.mismatched += not np.array_equal(Y, self.Y_ref[i])
        self.t_v.append(t_v)
        self.t_m.append(t_m)
        self.calls += 2 * len(self.plans)
        return 2 * len(self.plans)

    def pause(self) -> None:
        """The passes run between two timed ops of another workload."""
        for _ in range(self.PAUSE_PASSES):
            self.run_pass()

    def fastest_pass_seconds(self) -> tuple[float, float]:
        """Sum over the matrices of each one's fastest spmv and spmm call."""
        return (float(np.min(np.array(self.t_v), axis=0).sum()),
                float(np.min(np.array(self.t_m), axis=0).sum()))

    def gflops(self) -> dict:
        """GFLOP/s of the fastest call per matrix (2 flops per stored
        nonzero and RHS column).  The fastest call is the one least
        disturbed by other load on a shared machine, so it varies far
        less between runs than the median call."""
        flops = 2.0 * sum(a.nnz for a in self.csrs)
        t_v, t_m = self.fastest_pass_seconds()
        return {"spmv_gflops": metric(flops / t_v / 1e9, "GFLOP/s"),
                "spmm8_gflops": metric(flops * SPMM_K / t_m / 1e9, "GFLOP/s")}


@dataclasses.dataclass
class Report:
    """What one benchmark run prints."""

    correct: bool = True
    attempted: int = 0
    failed: int = 0
    metrics: dict = dataclasses.field(default_factory=dict)
    notes: list = dataclasses.field(default_factory=list)
    #: The traced run's span recorder, written out by ``run.py``.
    recorder: object = None
