"""Delta-stream benchmark gate — patching vs rebuild-per-update.

The `repro.delta` subsystem's three headline claims, each a hard gate:

* **patch advantage** — on a mixed update:read stream with a 10%
  structural mix, modeled preprocessing time via patching is >= 3x
  lower than rebuilding the plan on every update (the counterfactual
  both numbers are accumulated for in the plan registry);
* **bounded debt** — overlay growth is self-limiting: over >= 10k
  random deltas the rebuild-debt metric never exceeds the compaction
  threshold, compactions fire, and the final patched plan still
  matches a from-scratch rebuild bitwise;
* **serving parity** — updates interleaved with reads under the
  chaos/deadline machinery lose no futures and keep the in-deadline
  rate within 5% of a static-matrix run at the same operating point.
"""

import numpy as np

from benchmarks.conftest import emit
from repro.bench import markdown_table
from repro.cluster.driver import ClusterConfig, run_cluster_workload
from repro.core import DASPMatrix, dasp_spmv
from repro.core.delta import (DEFAULT_COMPACT_THRESHOLD, apply_delta_to_csr,
                              apply_update, random_delta, rebuild_debt)
from repro.matrices import synthetic_collection
from repro.overload import HedgeConfig, OverloadConfig, RetryBudgetConfig
from repro.serve import WorkloadConfig, run_workload

SEED = 11
POOL = 3
#: The acceptance mix: 10% of arrival slots carry a delta, 10% of
#: those deltas are structural.
UPDATE_MIX = 0.10
STRUCTURAL_FRAC = 0.10


def _entries():
    return synthetic_collection(POOL, seed=5)


def test_patch_vs_rebuild_advantage():
    """Modeled preprocessing via patching >= 3x cheaper than
    rebuild-per-update at the 10% structural mix."""
    stats = run_workload(WorkloadConfig(
        entries=_entries(), n_matrices=POOL, n_requests=4000, seed=SEED,
        update_mix=UPDATE_MIX, structural_frac=STRUCTURAL_FRAC))

    patch_s = stats.delta_patch_modeled_s
    rebuild_s = stats.delta_rebuild_modeled_s
    advantage = rebuild_s / patch_s
    n_updates = stats.delta_value_updates + stats.delta_structural_updates

    emit("delta_stream", markdown_table(
        ("metric", "value"),
        [("updates (value / structural)",
          f"{stats.delta_value_updates:,} / "
          f"{stats.delta_structural_updates:,}"),
         ("compactions", f"{stats.delta_compactions:,}"),
         ("modeled patch time", f"{patch_s * 1e3:.3f} ms"),
         ("modeled rebuild-per-update", f"{rebuild_s * 1e3:.3f} ms"),
         ("patch advantage", f"{advantage:.1f}x (target >= 3x)")]))

    assert n_updates > 100  # the mix actually exercised the stream
    assert stats.delta_structural_updates > 0
    assert advantage >= 3.0, \
        f"patch advantage {advantage:.2f}x < 3x (patch {patch_s:.6f}s " \
        f"vs rebuild {rebuild_s:.6f}s)"


def test_compaction_debt_bounded():
    """No unbounded overlay growth: rebuild debt stays under the
    compaction threshold across >= 10k updates, and the survivor plan
    is still bitwise-correct."""
    csr = _entries()[0].matrix().astype(np.float64)
    plan = DASPMatrix.from_csr(csr)
    rng = np.random.default_rng(SEED)
    ref = csr
    max_debt, n_compact, n_structural = 0.0, 0, 0
    N = 10_000
    for _ in range(N):
        structural = bool(rng.random() < STRUCTURAL_FRAC)
        d = random_delta(ref, rng, structural=structural, n_entries=4)
        ref = apply_delta_to_csr(ref, d)
        plan, info = apply_update(plan, d)
        n_compact += int(info.compacted)
        n_structural += int(structural)
        debt = rebuild_debt(plan)
        max_debt = max(max_debt, debt)
        # auto-compaction keeps post-update debt at or under threshold
        assert debt <= DEFAULT_COMPACT_THRESHOLD + 1e-12

    emit("delta_debt", markdown_table(
        ("metric", "value"),
        [("updates applied", f"{N:,} ({n_structural:,} structural)"),
         ("compactions", f"{n_compact:,}"),
         ("max rebuild debt",
          f"{max_debt:.3f} (threshold {DEFAULT_COMPACT_THRESHOLD})")]))

    assert n_compact > 0          # debt actually hit the trigger
    assert 0.0 < max_debt <= DEFAULT_COMPACT_THRESHOLD + 1e-12
    # survivor of 10k patches == from-scratch rebuild, bitwise
    x = np.random.default_rng(1).standard_normal(csr.shape[1])
    fresh = DASPMatrix.from_csr(ref)
    np.testing.assert_array_equal(dasp_spmv(plan, x), dasp_spmv(fresh, x))


def test_update_stream_chaos_deadline_parity():
    """Updates under chaos + deadlines: zero lost futures, in-deadline
    rate within 5% of the static-matrix run at the same (moderate)
    operating point."""
    base = dict(n_replicas=4, n_requests=2000, entries=_entries(),
                n_matrices=POOL, seed=SEED, rate_rps=100_000,
                deadline_s=0.005, partition_replica=1,
                partition_window=(0.3, 0.6),
                overload=OverloadConfig(retry_budget=RetryBudgetConfig(),
                                        hedge=HedgeConfig()))
    static = run_cluster_workload(ClusterConfig(**base))
    updated = run_cluster_workload(ClusterConfig(
        update_mix=UPDATE_MIX, structural_frac=STRUCTURAL_FRAC, **base))

    gap = static.in_deadline_fraction - updated.in_deadline_fraction
    emit("delta_chaos_parity", markdown_table(
        ("run", "in-deadline", "lost futures", "updates"),
        [("static matrices", f"{static.in_deadline_fraction:.4f}",
          str(static.lost_requests), "0"),
         ("update stream", f"{updated.in_deadline_fraction:.4f}",
          str(updated.lost_requests), f"{updated.n_updates:,}")]))

    assert updated.n_updates > 0
    assert static.lost_requests == 0
    assert updated.lost_requests == 0
    assert abs(gap) <= 0.05, \
        f"in-deadline parity gap {gap:.4f} exceeds 5% " \
        f"(static {static.in_deadline_fraction:.4f} vs " \
        f"updates {updated.in_deadline_fraction:.4f})"
