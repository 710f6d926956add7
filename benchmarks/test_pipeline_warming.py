"""Pipelined execution + speculative warming benchmark.

Not a paper figure: quantifies the `repro.pipeline` subsystem.  The
paper's Figure 13 economics price CSR -> DASP preprocessing at
tens-to-hundreds of SpMVs; a serving replica that pays that cost (or
even the cheaper `.daspz` load) *on the device clock* stalls every
queued request behind each first-touch matrix.  The async pipeline
moves plan acquisition onto a modeled prefetch lane — batches park
until their plan is staged while the device keeps draining warm
traffic — and the speculative warmer watches the observed popularity
skew to prebuild hot matrices before their first request.

Two identical virtual-time workloads over a 32-matrix synthetic suite
with a populated plan store:

* **off** — today's synchronous path: every first touch stalls the
  device with the modeled load/rebuild;
* **on** — ``pipeline=PipelineConfig(lanes=4)`` plus a low-threshold
  warmer: acquisition overlaps compute, cold batches park instead of
  blocking the queue.

Gate: pipeline-on cuts the modeled p99 latency of the cold-heavy phase
by >= 3x with no throughput regression, while completing identical
traffic (the same requests, batches, and kernel work — results are
bitwise-equal by construction since the per-batch kernel times and the
numerics are untouched).
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import emit
from repro.bench import markdown_table
from repro.matrices import synthetic_collection
from repro.pipeline import PipelineConfig, WarmerConfig
from repro.serve import WorkloadConfig, run_workload

N_MATRICES = 32
N_REQUESTS = 960
SEED = 3
LANES = 4
WARMER = dict(min_observed=4, max_per_tick=8)


def _cfg(store, **overrides) -> WorkloadConfig:
    base = dict(n_requests=N_REQUESTS, seed=SEED, zipf_s=0.3,
                entries=synthetic_collection(N_MATRICES, seed=5),
                store=store)
    base.update(overrides)
    return WorkloadConfig(**base)


@pytest.fixture(scope="module")
def off_vs_on(tmp_path_factory):
    store_dir = tmp_path_factory.mktemp("pipeline_store")
    run_workload(_cfg(store_dir))           # publish the 32 artifacts
    off = run_workload(_cfg(store_dir))
    on = run_workload(_cfg(store_dir, pipeline=PipelineConfig(lanes=LANES),
                           warmer=WarmerConfig(**WARMER)))
    return off, on


def test_pipeline_cold_p99_gate(off_vs_on):
    off, on = off_vs_on
    off_p = off.latency_percentiles((50, 95, 99))
    on_p = on.latency_percentiles((50, 95, 99))
    speedup = off_p[99] / on_p[99]

    emit("pipeline_warming", markdown_table(
        ("run", "p50 (us)", "p99 (us)", "goodput req/s",
         "parked", "warms"),
        [("sync (off)", f"{off_p[50] * 1e6:.1f}", f"{off_p[99] * 1e6:.1f}",
          f"{off.goodput_rps:,.0f}", "-", "-"),
         ("pipelined + warmer", f"{on_p[50] * 1e6:.1f}",
          f"{on_p[99] * 1e6:.1f}", f"{on.goodput_rps:,.0f}",
          str(on.parked_batches), str(on.warm_loads + on.warm_builds))])
        + f"\n\ncold-heavy p99 reduction: {speedup:.2f}x (target >= 3x)")

    # the tentpole gate: >= 3x modeled p99 reduction on the cold-heavy
    # workload, with no throughput regression
    assert speedup >= 3.0, f"pipeline p99 speedup {speedup:.2f}x < 3x"
    # no throughput regression (tolerate float summation-order jitter)
    assert on.goodput_rps >= off.goodput_rps * (1.0 - 1e-9)
    assert on.duration_s <= off.duration_s * (1.0 + 1e-9)


def test_pipeline_preserves_traffic_and_work(off_vs_on):
    """Pipelining moves *when* acquisition is charged, never *what*
    runs: identical requests, batches, and kernel work (the modeled
    per-batch times are memoized identically, so the scattered results
    are bitwise-equal by construction)."""
    off, on = off_vs_on
    assert on.n_completed == off.n_completed == N_REQUESTS
    assert on.n_failed == off.n_failed == 0
    assert on.n_batches == off.n_batches
    assert on.batch_hist == off.batch_hist
    assert on.device_busy_s == pytest.approx(off.device_busy_s, rel=1e-12)
    assert on.parked_batches > 0


def test_pipeline_deterministic(tmp_path_factory):
    store_dir = tmp_path_factory.mktemp("pipeline_det")
    run_workload(_cfg(store_dir))
    kw = dict(pipeline=PipelineConfig(lanes=LANES),
              warmer=WarmerConfig(**WARMER))
    a = run_workload(_cfg(store_dir, **kw))
    b = run_workload(_cfg(store_dir, **kw))
    assert a.latencies_s == b.latencies_s
    assert a.duration_s == b.duration_s


@pytest.mark.slow
@pytest.mark.parametrize("seed", [3, 11, 42])
@pytest.mark.parametrize("warmer_on", [False, True])
def test_pipeline_sweep(tmp_path_factory, seed, warmer_on):
    """Nightly-scale sweep: the p99 win holds across seeds, with and
    without the speculative warmer (the pipeline alone still parks cold
    batches off the device clock)."""
    store_dir = tmp_path_factory.mktemp(f"pipeline_sweep_{seed}_{warmer_on}")
    run_workload(_cfg(store_dir, seed=seed))
    off = run_workload(_cfg(store_dir, seed=seed))
    on = run_workload(_cfg(
        store_dir, seed=seed, pipeline=PipelineConfig(lanes=LANES),
        warmer=WarmerConfig(**WARMER) if warmer_on else False))
    speedup = (off.latency_percentiles((99,))[99]
               / on.latency_percentiles((99,))[99])
    assert speedup >= 3.0
    assert on.goodput_rps >= off.goodput_rps * (1.0 - 1e-9)
    assert on.n_completed == off.n_completed
