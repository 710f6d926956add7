"""Tests for the large-k SpMM tier (`repro.core.spmm_block`)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import DASPMatrix, dasp_spmv
from repro.core.spmm import (dasp_spmm, dasp_spmm_on_plan, gather_analysis,
                             spmm_events)
from repro.core.spmm_block import (
    TILE_K_CANDIDATES,
    BlockPlan,
    SpmmStrategy,
    choose_spmm_strategy,
    dasp_spmm_large,
    reorder_from_perm,
    reorder_rows,
    spmm_block_events,
    spmm_looped_cost,
)
from repro.gpu import estimate_time
from repro.gpu.mma import MmaShape
from repro.gpu.tiles import TileStats, mma_tile_stats, tile_gather_bytes
from repro.matrices import representative_suite
from tests.conftest import ROW_PROFILES, random_csr
from tests.test_gpu_memory import messy_csrs


def column_wise_reference(plan, X):
    """The ground truth every strategy must match bitwise."""
    return np.stack([dasp_spmv(plan, X[:, j]) for j in range(X.shape[1])],
                    axis=1)


def shuffled_order(plan, rng):
    """A random (non-natural) row order: any order must be bitwise."""
    return BlockPlan(plan, reorder_from_perm(
        plan.csr, rng.permutation(plan.shape[0])))


def forced(plan, name, tile_k, k, order=None):
    """A strategy forced to *name*, whatever the tuner would pick."""
    return SpmmStrategy(name=name, k=k, tile_k=tile_k, modeled_s=1.0,
                        looped_s=1.0, overlapped_s=1.0, events=None,
                        block_plan=order if name == "reordered" else None)


class TestTiledExecution:
    """Every strategy and tile width runs one ``dasp_spmm_on_plan`` call
    (``tile_k`` only prices), bitwise the column-wise SpMV."""

    @pytest.mark.parametrize("tile_k", TILE_K_CANDIDATES)
    def test_bitwise_vs_untiled(self, rng, tile_k):
        csr = random_csr(120, 300, rng)
        plan = DASPMatrix.from_csr(csr)
        X = rng.uniform(-1, 1, (300, 96))
        ref = column_wise_reference(plan, X)
        assert np.array_equal(dasp_spmm_on_plan(plan, X), ref)
        order = shuffled_order(plan, rng)
        for name in ("looped", "tiled", "reordered"):
            Y = dasp_spmm_large(plan, X, forced(plan, name, tile_k, 96, order))
            assert np.array_equal(Y, ref), name

    def test_ragged_last_tile(self, rng):
        csr = random_csr(64, 200, rng)
        plan = DASPMatrix.from_csr(csr)
        X = rng.uniform(-1, 1, (200, 50))  # 50 = 32 + 18
        ref = column_wise_reference(plan, X)
        order = shuffled_order(plan, rng)
        for name in ("looped", "tiled", "reordered"):
            Y = dasp_spmm_large(plan, X, forced(plan, name, 32, 50, order))
            assert np.array_equal(Y, ref), name

    def test_rejects_bad_tile_k(self, rng):
        from repro._util import ValidationError

        csr = random_csr(16, 40, rng)
        plan = DASPMatrix.from_csr(csr)
        X = rng.uniform(-1, 1, (40, 16))
        with pytest.raises(ValidationError):
            spmm_block_events(plan, gather_analysis(plan, "A100"), 16,
                              tile_k=12, stats=mma_tile_stats(csr))  # not x8
        with pytest.raises(ValidationError):
            dasp_spmm_large(plan, X[:, 0], forced(plan, "tiled", 8, 1))

class TestRowReorder:
    @pytest.mark.parametrize("profile", sorted(ROW_PROFILES))
    def test_valid_permutation(self, rng, profile):
        csr = random_csr(96, 400, rng, row_len_sampler=ROW_PROFILES[profile])
        ro = reorder_rows(csr)
        m = csr.shape[0]
        assert np.array_equal(np.sort(ro.perm), np.arange(m))
        assert np.array_equal(ro.perm[ro.inv], np.arange(m))

    @pytest.mark.parametrize("profile", sorted(ROW_PROFILES))
    def test_never_worse_than_natural(self, rng, profile):
        csr = random_csr(96, 400, rng, row_len_sampler=ROW_PROFILES[profile])
        ro = reorder_rows(csr)
        assert ro.stats.padding_slots <= ro.natural_stats.padding_slots
        assert 0.0 <= ro.padding_reduction <= 1.0

    def test_reduces_padding_on_bimodal_rows(self, rng):
        """Alternating short/medium rows leave half-empty tiles in
        natural order; grouping by length packs them densely."""
        lens = lambda r, m: np.where(np.arange(m) % 2 == 0,
                                     r.integers(1, 3, m),
                                     r.integers(24, 32, m))
        csr = random_csr(256, 600, rng, row_len_sampler=lens)
        ro = reorder_rows(csr)
        assert not ro.is_identity
        assert ro.stats.padding_slots < ro.natural_stats.padding_slots
        assert ro.padding_reduction > 0.0

    def test_block_plan_output_bitwise_invariant(self, rng):
        csr = random_csr(128, 350, rng,
                         row_len_sampler=ROW_PROFILES["skewed"])
        plan = DASPMatrix.from_csr(csr)
        bp = BlockPlan(plan)
        assert not bp.reorder.is_identity
        X = rng.uniform(-1, 1, (350, 64))
        Yp = dasp_spmm_on_plan(bp.permuted(plan), X)
        assert bp.permuted(plan) is bp.permuted(plan)
        assert np.array_equal(Yp[bp.reorder.inv], dasp_spmm_on_plan(plan, X))


class TestStrategyBitwise:
    @pytest.mark.parametrize("profile", sorted(ROW_PROFILES))
    def test_all_strategies_match_columnwise_spmv(self, rng, profile):
        csr = random_csr(80, 250, rng, row_len_sampler=ROW_PROFILES[profile])
        plan = DASPMatrix.from_csr(csr)
        X = rng.uniform(-1, 1, (250, 40))
        ref = column_wise_reference(plan, X)
        tuned = choose_spmm_strategy(plan, 40)
        assert np.array_equal(dasp_spmm_large(plan, X, tuned), ref)
        # force each execution path regardless of the tuner choice
        order = shuffled_order(plan, rng)
        for k_strategy in ("looped", "tiled", "reordered"):
            strat = forced(plan, k_strategy, tuned.tile_k, 40, order)
            assert np.array_equal(dasp_spmm_large(plan, X, strat), ref), \
                k_strategy


class TestTuner:
    def test_small_k_stays_looped(self, rng):
        csr = random_csr(64, 200, rng)
        plan = DASPMatrix.from_csr(csr)
        for k in (1, 4, 8):
            strat = choose_spmm_strategy(plan, k)
            assert strat.name == "looped"
            assert strat.speedup == 1.0

    def test_large_k_beats_looped(self, rng):
        csr = random_csr(400, 900, rng,
                         row_len_sampler=ROW_PROFILES["mixed"])
        plan = DASPMatrix.from_csr(csr)
        strat = choose_spmm_strategy(plan, 128)
        assert strat.name in ("tiled", "reordered")
        assert strat.modeled_s <= strat.looped_s
        assert strat.tile_k % 8 == 0 and strat.tile_k in TILE_K_CANDIDATES

    def test_reorder_flag_disables_reordered(self, rng):
        csr = random_csr(200, 500, rng,
                         row_len_sampler=ROW_PROFILES["skewed"])
        plan = DASPMatrix.from_csr(csr)
        natural = BlockPlan(plan, reorder_from_perm(
            plan.csr, np.arange(plan.shape[0])))
        strat = choose_spmm_strategy(plan, 256, order=natural)
        assert strat.name in ("looped", "tiled")
        assert strat.block_plan is None

    def test_looped_cost_matches_event_model(self, rng):
        csr = random_csr(64, 200, rng)
        plan = DASPMatrix.from_csr(csr)
        per_batch = estimate_time(spmm_events(plan, "A100", 8), "A100",
                                  dtype_bits=64).total
        assert spmm_looped_cost(plan, "A100", 64, gather_analysis(
            plan, "A100")) == pytest.approx(8 * per_batch)


class TestBlockEvents:
    def test_serial_iters_scale_with_column_tiles(self, rng):
        csr = random_csr(100, 300, rng)
        plan = DASPMatrix.from_csr(csr)
        analysis, stats = gather_analysis(plan, "A100"), mma_tile_stats(csr)
        ev32 = spmm_block_events(plan, analysis, 128, tile_k=32, stats=stats)
        ev64 = spmm_block_events(plan, analysis, 128, tile_k=64, stats=stats)
        assert ev32.serial_iters == 2 * ev64.serial_iters

    def test_tile_stats_counters_consistent(self, rng):
        csr = random_csr(96, 280, rng)
        stats = mma_tile_stats(csr)
        assert stats.padding_slots == stats.slots - stats.nnz
        assert 0.0 <= stats.occupancy <= 1.0
        assert 0.0 < stats.union_ratio <= 1.0
        assert stats.occupancy + stats.padding_waste == pytest.approx(1.0)
        assert tile_gather_bytes(stats, 8, 64, 32) > 0


def unique_tile_stats(csr, *, mma_shape=None, perm=None):
    """Reference: each tile's column union by ``np.unique`` over
    ``tile * n + col`` keys (the hash-based count ``mma_tile_stats``
    replaced), gathering the permuted rows one slice at a time."""
    shape = mma_shape or MmaShape(8, 8, 4, np.dtype(np.float64),
                                  np.dtype(np.float64), "fp64")
    M, K = shape.m, shape.k
    m, n = csr.shape
    if perm is None:
        cols, lens = csr.indices.astype(np.int64), csr.row_lengths()
    else:
        slices = [csr.indices[csr.indptr[r]:csr.indptr[r + 1]]
                  for r in perm]
        cols = (np.concatenate(slices).astype(np.int64) if csr.nnz
                else np.zeros(0, np.int64))
        lens = [s.size for s in slices]
    tiles = np.repeat(np.arange(m, dtype=np.int64) // M, lens)
    n_tiles = -(-m // M)
    unions = np.bincount(np.unique(tiles * n + cols) // max(n, 1),
                         minlength=n_tiles)
    chunks = int((-(-unions // K)).sum())
    return TileStats(n_tiles=n_tiles, n_chunks=chunks, slots=chunks * M * K,
                     nnz=int(csr.nnz), gather_cols=int(unions.sum()))


@pytest.fixture(scope="module")
def suite():
    return [(e.name, e.matrix()) for e in representative_suite()]


class TestTileStatsReference:
    """The sort-based union count equals the ``np.unique`` reference
    exactly, as ``sector_counts`` is pinned in ``test_gpu_memory``."""

    def test_suite_matches_unique_reference(self, suite):
        for name, csr in suite:
            assert mma_tile_stats(csr) == unique_tile_stats(csr), name

    def test_suite_candidate_orders_match_reference(self, suite):
        """Every candidate order of the reorder pass, on the three
        smallest suite matrices (the reference is slow)."""
        from repro.core.spmm_block import _candidate_orders

        small = sorted((csr for _, csr in suite), key=lambda c: c.nnz)[:3]
        for csr in small:
            for name, perm in _candidate_orders(csr).items():
                assert (mma_tile_stats(csr, perm=perm)
                        == unique_tile_stats(csr, perm=perm)), name

    @given(messy_csrs(), st.sampled_from([1, 8, 16]),
           st.sampled_from([1, 4, 8]), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_any_order_and_shape_matches_reference(self, csr, M, K, rnd):
        shape = MmaShape(M, 8, K, np.dtype(np.float64),
                         np.dtype(np.float64), "test")
        perm = np.arange(csr.shape[0], dtype=np.int64)
        rnd.shuffle(perm)
        for p in (None, perm):
            assert (mma_tile_stats(csr, mma_shape=shape, perm=p)
                    == unique_tile_stats(csr, mma_shape=shape, perm=p))
