"""Sharding benchmark — row-sharded parallel SpMV vs the single-plan path.

Not a paper figure: quantifies `repro.shard` on the workload it exists
for — a long-row-heavy matrix served by a multi-worker server.  Row
shards execute on idle workers in parallel; the gather is pure
concatenation, so results stay byte-identical to the single-plan path
(asserted here on live traffic, not just in unit tests).

The gate: with 4 workers and ``shards="auto"``, modeled device time per
batch improves >= 2x over S = 1.  Wall-clock speedup is additionally
asserted when the host actually has >= 4 cores (CI containers often
expose 1, where thread fan-out cannot beat serial execution).
"""

import os
import time

import numpy as np

from benchmarks.conftest import emit
from repro.bench import markdown_table, record_bench
from repro.core import choose_shards
from repro.formats import CSRMatrix
from repro.serve import SpMVRequest, SpMVServer
from repro.shard import build_sharded_plan, sharded_batch_cost

WORKERS = 4
N_REQUESTS = 32
SEED = 2023


def _long_row_heavy(m=4096, n=6144, lo=280, hi=560, seed=SEED) -> CSRMatrix:
    """Every row is 'long' (> 256 nnz), the regime sharding targets."""
    rng = np.random.default_rng(seed)
    lens = rng.integers(lo, hi, m)
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(lens, out=indptr[1:])
    indices = np.concatenate(
        [np.sort(rng.choice(n, size=int(l), replace=False)) for l in lens])
    data = rng.uniform(-1.0, 1.0, indptr[-1])
    return CSRMatrix((m, n), indptr, indices, data)


def _serve(csr, xs, **kw):
    """Run every request through a 4-worker server; return (results, wall,
    modeled device seconds)."""
    with SpMVServer(max_batch=8, flush_timeout_s=0.002, workers=WORKERS,
                    **kw) as s:
        fp = s.register(csr)
        t0 = time.perf_counter()
        futs = [s.submit(SpMVRequest(fp, x)) for x in xs]
        s.flush()
        ys = [f.result(timeout=60.0) for f in futs]
        wall = time.perf_counter() - t0
    return ys, wall, s.stats.device_busy_s


def test_shard_scaling():
    csr = _long_row_heavy()
    rng = np.random.default_rng(SEED + 1)
    xs = [rng.uniform(-1, 1, csr.shape[1]) for _ in range(N_REQUESTS)]

    # --- modeled, pure cost-model view -------------------------------
    tuned = choose_shards(csr, WORKERS, k=8)
    best = int(tuned.best_value)
    modeled_speedup = tuned.times[1] / tuned.times[best]
    cost = sharded_batch_cost(build_sharded_plan(csr, max(best, 2)), "A100",
                              k=8, workers=WORKERS)

    # --- live 4-worker server, S=1 vs auto ---------------------------
    base_ys, base_wall, base_dev = _serve(csr, xs)
    shard_ys, shard_wall, shard_dev = _serve(csr, xs, shards="auto")
    device_speedup = base_dev / shard_dev
    wall_speedup = base_wall / shard_wall

    emit("shard_scaling", markdown_table(
        ("metric", "S=1", f"S={best} (auto)", "speedup"),
        [("modeled batch time (us)", f"{tuned.times[1] * 1e6:.1f}",
          f"{tuned.times[best] * 1e6:.1f}", f"{modeled_speedup:.2f}x"),
         ("server device time (ms)", f"{base_dev * 1e3:.2f}",
          f"{shard_dev * 1e3:.2f}", f"{device_speedup:.2f}x"),
         ("server wall time (ms)", f"{base_wall * 1e3:.1f}",
          f"{shard_wall * 1e3:.1f}", f"{wall_speedup:.2f}x")])
        + f"\n\nhost cores: {os.cpu_count()}; per-shard modeled times "
        f"pack to a {cost.speedup:.2f}x makespan win at S={max(best, 2)}")
    record_bench("shard", {
        "best_shards": best,
        "modeled_speedup": modeled_speedup,
        "device_speedup": device_speedup,
        "wall_s": shard_wall,
    })

    # sharding must actually be chosen in this regime
    assert best >= 2, f"autotuner kept S=1 on a long-row-heavy matrix"
    # the gate: >= 2x modeled speedup for the 4-worker server
    assert modeled_speedup >= 2.0, \
        f"modeled shard speedup {modeled_speedup:.2f}x < 2x"
    assert device_speedup >= 2.0, \
        f"served (modeled device) speedup {device_speedup:.2f}x < 2x"
    # wall-clock only means something with real cores to fan out to
    if (os.cpu_count() or 1) >= 4:
        assert wall_speedup >= 2.0, \
            f"wall speedup {wall_speedup:.2f}x < 2x on a >=4-core host"

    # byte-identical results on live traffic — the determinism guarantee
    for y0, y1 in zip(base_ys, shard_ys):
        np.testing.assert_array_equal(y1, y0)
