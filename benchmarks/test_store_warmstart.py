"""Warm-start benchmark — cold rebuild vs `.daspz` artifact loads.

Not a paper figure: quantifies the `repro.store` subsystem.  The paper's
Figure 13 economics (preprocessing costs tens-to-hundreds of SpMVs)
make plan *durability* valuable: a server that persists its plans can
restart without re-paying the CSR -> DASP conversion for any matrix it
has served before.

Two identical virtual-time workloads over a 20-matrix synthetic suite:

* **cold** — an empty store: every first-touch pays the modeled rebuild
  (and write-through publishes the artifact);
* **warm** — the same traffic restarted over the populated store with
  ``warm_start=True``: every plan is preloaded from disk before traffic
  begins.

Target: the warm run's first response is >= 3x faster than the cold
run's (the first request no longer waits on preprocessing), and the
modeled *and* wall-clock load costs undercut the rebuilds they replace.
"""

from __future__ import annotations

import statistics
import time

import pytest

from benchmarks.conftest import emit
from repro.bench import markdown_table
from repro.core import DASPMatrix
from repro.matrices import synthetic_collection
from repro.serve import WorkloadConfig, matrix_fingerprint, run_workload
from repro.store import PlanStore

N_MATRICES = 20
N_REQUESTS = 2400
SEED = 2023


def _cfg(store, **overrides) -> WorkloadConfig:
    base = dict(n_requests=N_REQUESTS, seed=SEED, zipf_s=0.7,
                entries=synthetic_collection(N_MATRICES), store=store)
    base.update(overrides)
    return WorkloadConfig(**base)


@pytest.fixture(scope="module")
def cold_then_warm(tmp_path_factory):
    store_dir = tmp_path_factory.mktemp("plan_store")
    cold = run_workload(_cfg(store_dir))
    warm = run_workload(_cfg(store_dir, warm_start=True))
    return cold, warm, store_dir


def test_warm_start_first_response(cold_then_warm):
    cold, warm, _ = cold_then_warm
    first_cold = cold.latencies_s[0]
    first_warm = warm.latencies_s[0]
    speedup = first_cold / first_warm

    emit("store_warmstart", markdown_table(
        ("run", "first response (us)", "preprocess ms", "store activity",
         "goodput req/s"),
        [("cold (rebuild)", f"{first_cold * 1e6:.1f}",
          f"{cold.preprocess_s * 1e3:.3f}",
          f"{cold.store_writes} writes", f"{cold.goodput_rps:,.0f}"),
         ("warm (.daspz load)", f"{first_warm * 1e6:.1f}",
          f"{warm.preprocess_s * 1e3:.3f}",
          f"{warm.store_loads} loads", f"{warm.goodput_rps:,.0f}")])
        + f"\n\nwarm-start first-response speedup: {speedup:.2f}x "
          f"(target >= 3x)")

    # the tentpole claim: a restart over the populated store answers
    # its first request >= 3x sooner than a cold rebuild
    assert speedup >= 3.0, f"warm-start speedup {speedup:.2f}x < 3x"
    # identical traffic; cold sheds under first-touch preprocessing
    # stalls, so warm completes at least as many requests
    assert warm.n_completed >= cold.n_completed
    assert warm.preprocess_s < cold.preprocess_s
    assert warm.goodput_rps > cold.goodput_rps


def test_warm_start_store_accounting(cold_then_warm):
    cold, warm, _ = cold_then_warm
    # cold published one artifact per matrix that saw traffic; the warm
    # preload read back exactly those artifacts and rebuilt nothing
    assert cold.store_writes > 0 and cold.store_loads == 0
    assert warm.store_loads == cold.store_writes
    assert warm.store_writes == 0 and warm.store_quarantined == 0
    # warm plan acquisition was pure loads: the modeled load total IS
    # the preprocess total, and it undercuts the rebuilds it replaced
    assert warm.store_load_modeled_s == pytest.approx(warm.preprocess_s)
    assert warm.store_load_modeled_s < cold.preprocess_s


#: Timed rounds of the wall-clock comparison; the order of the two
#: passes alternates per round and each side reports its median.
WALL_ROUNDS = 5


def test_measured_load_beats_rebuild(cold_then_warm):
    """Wall-clock validation of the tier's cost model: reading the 20
    artifacts back (mmap + CRC of every byte, plus each delta log) is
    faster than re-running the 20 CSR -> DASP conversions.

    One pass of either side takes tens of milliseconds, so a single
    timing is at the mercy of the host; the two passes run as
    ``WALL_ROUNDS`` order-alternated rounds and their medians are
    compared."""
    _, _, store_dir = cold_then_warm
    store = PlanStore(store_dir)
    entries = synthetic_collection(N_MATRICES)
    csrs = [e.matrix() for e in entries]
    fps = [matrix_fingerprint(csr) for csr in csrs]
    loaded = 0

    def rebuild() -> float:
        t0 = time.perf_counter()
        for csr in csrs:
            DASPMatrix.from_csr(csr)
        return time.perf_counter() - t0

    def load() -> float:
        nonlocal loaded
        loaded = 0
        t0 = time.perf_counter()
        for fp in fps:
            loaded += store.load(fp, gate=False) is not None
        return time.perf_counter() - t0

    rebuilds, loads = [], []
    for r in range(WALL_ROUNDS):
        if r % 2:
            loads.append(load())
            rebuilds.append(rebuild())
        else:
            rebuilds.append(rebuild())
            loads.append(load())
    rebuild_wall = statistics.median(rebuilds)
    load_wall = statistics.median(loads)

    emit("store_load_wallclock",
         f"measured over {loaded} artifacts, median of {WALL_ROUNDS} "
         f"order-alternated rounds: load {load_wall * 1e3:.1f} ms "
         f"vs rebuild {rebuild_wall * 1e3:.1f} ms "
         f"({rebuild_wall / load_wall:.2f}x)")
    assert loaded > 0
    assert load_wall < rebuild_wall


@pytest.mark.slow
def test_warm_start_large_sweep(tmp_path_factory):
    """Nightly-scale sweep: a larger pool and heavier traffic keep the
    warm-start advantage (and determinism) at collection size."""
    store_dir = tmp_path_factory.mktemp("plan_store_large")
    entries = synthetic_collection(60)
    cfg = WorkloadConfig(n_requests=6000, seed=7, zipf_s=0.6,
                         entries=entries, store=store_dir)
    cold = run_workload(cfg)
    warm = run_workload(WorkloadConfig(n_requests=6000, seed=7, zipf_s=0.6,
                                       entries=entries, store=store_dir,
                                       warm_start=True))
    assert warm.latencies_s[0] * 3 <= cold.latencies_s[0]
    assert warm.preprocess_s < cold.preprocess_s
    assert warm.store_loads == cold.store_writes
    assert warm.n_completed >= cold.n_completed
    emit("store_warmstart_large",
         f"60-matrix sweep: first response {cold.latencies_s[0] * 1e6:.1f}us "
         f"cold -> {warm.latencies_s[0] * 1e6:.1f}us warm; preprocess "
         f"{cold.preprocess_s * 1e3:.2f}ms -> {warm.preprocess_s * 1e3:.2f}ms")
