"""Extension benchmark — DASP SpMM (multi-RHS) MMA utilization.

Not a paper figure: the paper observes that SpMV uses only the diagonal
of each MMA output (1/8 of the unit's work).  This benchmark quantifies
the natural extension: with a block of ``k`` right-hand sides the same
DASP layout feeds all eight B columns, so utilization rises ~k/8 until
``k = MMA_N`` saturates the units, while the matrix stream is shared.
A second table checks that the NumPy engine itself gets the shared
stream: wall-clock of one k=8 ``dasp_spmm`` against 8 ``dasp_spmv``
calls over the suite.
"""

import time

import numpy as np

from benchmarks.conftest import emit
from repro.bench import markdown_table
from repro.core import (DASPMatrix, dasp_spmm, dasp_spmv, mma_utilization,
                        spmm_events)
from repro.gpu import A100, estimate_time
from repro.matrices import representative_suite


def test_spmm_utilization(benchmark, suite_fp64):
    csr = suite_fp64.matrices["cant"]
    dasp = DASPMatrix.from_csr(csr)
    rows = []
    times = {}
    for k in (1, 2, 4, 8, 16):
        u = mma_utilization(dasp, k)
        t = estimate_time(spmm_events(dasp, A100, k), A100).total
        times[k] = t
        rows.append((k, f"{u:.1%}", f"{t * 1e6:.1f}",
                     f"{t / (k * times[1]):.2f}" if k > 1 else "1.00"))
    emit("spmm_utilization",
         markdown_table(("k (RHS)", "MMA utilization", "modeled us",
                         "time vs k separate SpMVs"), rows))

    # shape: utilization grows to ~full at k=8; SpMM amortizes the stream
    assert mma_utilization(dasp, 8) > 6 * mma_utilization(dasp, 1)
    assert mma_utilization(dasp, 8) > 0.75
    assert times[8] < 0.6 * 8 * times[1]
    # verify functional correctness at k=8 on the way
    X = np.random.default_rng(0).standard_normal((csr.shape[1], 8))
    Y = dasp_spmm(dasp, X)
    ref = np.stack([csr.matvec(X[:, j]) for j in range(8)], axis=1)
    assert np.allclose(Y, ref, rtol=1e-9)

    benchmark(dasp_spmm, dasp, X)


def _best_of_3(fn) -> float:
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def test_spmm_wallclock_vs_spmv():
    """One k=8 ``dasp_spmm`` call must cost well under 8 ``dasp_spmv``
    calls: it gathers each x row once per stored nonzero for all eight
    columns.  A ratio, not a time, so the gate holds on any host."""
    k = 8
    rng = np.random.default_rng(0)
    rows, totals = [], np.zeros(3)
    for entry in representative_suite():
        csr = entry.matrix()
        dasp = DASPMatrix.from_csr(csr)
        X = rng.uniform(-1, 1, (csr.shape[1], k))
        cols = [X[:, j] for j in range(k)]
        t = np.array([
            _best_of_3(lambda: dasp_spmm(dasp, X)),
            _best_of_3(lambda: [dasp_spmv(dasp, x) for x in cols]),
            _best_of_3(lambda: [csr.matvec(x) for x in cols]),
        ])
        totals += t
        rows.append((entry.name, *(f"{v * 1e3:.2f}" for v in t)))
        assert np.array_equal(dasp_spmm(dasp, X),
                              np.stack([dasp_spmv(dasp, x) for x in cols], axis=1))
    rows.append(("**total**", *(f"{v * 1e3:.2f}" for v in totals)))
    emit("spmm_wallclock",
         markdown_table(("matrix", "dasp_spmm k=8 ms", "8x dasp_spmv ms",
                         "8x csr.matvec ms"), rows)
         + f"\n\nspmm / 8-spmv = {totals[0] / totals[1]:.2f}, "
           f"spmm / 8-csr = {totals[0] / totals[2]:.2f} (best of 3 per matrix)")
    assert totals[0] <= 0.8 * totals[1]
