"""Tests for ``repro.shard`` — row-sharded SpMV/SpMM execution.

The headline guarantee under test: sharded execution is **bit-identical**
to the single-plan path for every shard count, because shard boundaries
never split a row and the gather is pure concatenation.
"""

import numpy as np
import pytest

from repro._util import ValidationError
from repro.core import DASPMatrix, choose_shards, dasp_spmv, dasp_spmm
from repro.gpu import A100
from repro.serve import SpMVRequest, SpMVServer, plan_nbytes
from repro.shard import (ShardedPlan, build_sharded_plan, dasp_spmm_sharded,
                         dasp_spmv_sharded, lpt_makespan, shard_candidates,
                         shard_csr, sharded_batch_cost)
from tests.conftest import ROW_PROFILES, random_csr


class TestShardCsr:
    @pytest.mark.parametrize("shards", [1, 2, 3, 5, 8])
    def test_boundaries_cover_all_rows(self, rng, shards):
        csr = random_csr(97, 50, rng)
        starts = shard_csr(csr, shards)
        assert starts[0] == 0 and starts[-1] == csr.shape[0]
        assert np.all(np.diff(starts) >= 1)  # non-empty row bands
        assert len(starts) == shards + 1

    def test_balances_nnz(self, rng):
        heavy = ROW_PROFILES["long"]
        csr = random_csr(64, 700, rng, row_len_sampler=heavy)
        starts = shard_csr(csr, 4)
        per = [csr.indptr[b] - csr.indptr[a]
               for a, b in zip(starts[:-1], starts[1:])]
        assert max(per) <= 2 * (csr.nnz / 4)  # rough balance

    def test_more_shards_than_rows_clamped(self, rng):
        csr = random_csr(3, 10, rng)
        starts = shard_csr(csr, 16)
        assert starts[-1] == 3 and len(starts) <= 4

    def test_invalid_shards_rejected(self, rng):
        with pytest.raises(ValidationError):
            shard_csr(random_csr(5, 5, rng), 0)


class TestBitDeterminism:
    @pytest.mark.parametrize("shards", [1, 2, 3, 5])
    def test_spmv_byte_identical(self, profiled_matrix, rng, shards):
        x = rng.uniform(-1, 1, profiled_matrix.shape[1])
        base = dasp_spmv(DASPMatrix.from_csr(profiled_matrix), x)
        y = dasp_spmv_sharded(profiled_matrix, x, shards=shards)
        np.testing.assert_array_equal(y, base)  # bitwise, not allclose

    @pytest.mark.parametrize("shards", [2, 4])
    def test_spmm_byte_identical(self, rng, shards):
        csr = random_csr(80, 120, rng,
                         row_len_sampler=ROW_PROFILES["mixed"])
        X = rng.uniform(-1, 1, (120, 8))
        base = dasp_spmm(DASPMatrix.from_csr(csr), X)
        Y = dasp_spmm_sharded(csr, X, shards=shards)
        np.testing.assert_array_equal(Y, base)

    def test_accepts_prebuilt_plan(self, rng):
        csr = random_csr(60, 90, rng)
        plan = build_sharded_plan(csr, 3)
        x = rng.uniform(-1, 1, 90)
        np.testing.assert_array_equal(
            dasp_spmv_sharded(plan, x),
            dasp_spmv(DASPMatrix.from_csr(csr), x))


class TestShardedPlan:
    def test_structure(self, rng):
        csr = random_csr(100, 70, rng)
        plan = build_sharded_plan(csr, 4)
        assert isinstance(plan, ShardedPlan)
        assert plan.n_shards == 4
        assert plan.shape == csr.shape
        assert plan.nnz == csr.nnz
        assert sum(s.n_rows for s in plan.shards) == 100
        assert plan_nbytes(plan) == sum(plan_nbytes(s.dasp)
                                        for s in plan.shards)

    def test_modeled_cost_monotone_in_workers(self, rng):
        csr = random_csr(128, 700, rng,
                         row_len_sampler=ROW_PROFILES["long"])
        plan = build_sharded_plan(csr, 4)
        c1 = sharded_batch_cost(plan, A100, k=8, workers=1)
        c4 = sharded_batch_cost(plan, A100, k=8, workers=4)
        assert c4.makespan < c1.makespan
        assert c1.serial == c4.serial  # workers change packing, not work

    def test_lpt_makespan(self):
        assert lpt_makespan([3.0, 3.0, 2.0, 2.0], 2) == pytest.approx(5.0)
        assert lpt_makespan([4.0], 8) == pytest.approx(4.0)
        assert lpt_makespan([], 2) == 0.0


class TestChooseShards:
    def test_returns_tune_result(self, rng):
        csr = random_csr(96, 700, rng,
                         row_len_sampler=ROW_PROFILES["long"])
        res = choose_shards(csr, 4)
        assert res.parameter == "shards"
        assert res.best_value in shard_candidates(4, csr.shape[0])
        assert res.best_value >= 1
        # modeled times cover every candidate
        assert set(res.times) == set(shard_candidates(4, csr.shape[0]))

    def test_single_worker_prefers_unsharded(self, rng):
        csr = random_csr(60, 80, rng)
        assert choose_shards(csr, 1).best_value == 1


class TestServerSharded:
    def test_server_s2_byte_equal_to_unsharded(self, rng):
        """Tier-1 smoke: a 2-shard server returns byte-identical results
        to the unsharded server for the same requests."""
        csr = random_csr(90, 130, rng,
                         row_len_sampler=ROW_PROFILES["mixed"])
        xs = [rng.uniform(-1, 1, 130) for _ in range(4)]

        def run(**kw):
            with SpMVServer(max_batch=4, flush_timeout_s=0.01,
                            workers=2, **kw) as s:
                fp = s.register(csr)
                futs = [s.submit(SpMVRequest(fp, x)) for x in xs]
                return [f.result(timeout=10.0) for f in futs]

        base = run()
        sharded = run(shards=2)
        for y0, y1 in zip(base, sharded):
            np.testing.assert_array_equal(y1, y0)

    def test_server_shards_auto_accepted(self, rng):
        csr = random_csr(40, 60, rng)
        x = rng.uniform(-1, 1, 60)
        with SpMVServer(max_batch=2, flush_timeout_s=0.01, workers=2,
                        shards="auto") as s:
            fp = s.register(csr)
            fut = s.submit(SpMVRequest(fp, x))
            s.flush()
            y = fut.result(timeout=10.0)
        assert np.allclose(y, csr.matvec(x), rtol=1e-10)

    def test_server_rejects_bad_shards(self):
        with pytest.raises((ValidationError, ValueError)):
            SpMVServer(shards=0)
        with pytest.raises((ValidationError, ValueError)):
            SpMVServer(shards="many")
