"""Tests for the DASP SpMM extension (multi-RHS products)."""

import numpy as np
import pytest

from repro._util import ValidationError
from repro.core import DASPMatrix, dasp_spmm, mma_utilization, spmm_events
from repro.gpu import A100, estimate_time
from tests.conftest import ROW_PROFILES, random_csr


def reference_spmm(csr, X):
    return np.stack([csr.matvec(X[:, j]) for j in range(X.shape[1])], axis=1)


class TestCorrectness:
    @pytest.mark.parametrize("profile", sorted(ROW_PROFILES))
    def test_matches_reference_all_profiles(self, profile, rng):
        csr = random_csr(72, 500, rng, row_len_sampler=ROW_PROFILES[profile])
        X = rng.standard_normal((500, 4))
        Y = dasp_spmm(csr, X)
        assert np.allclose(Y, reference_spmm(csr, X), rtol=1e-10), profile

    @pytest.mark.parametrize("k", [1, 2, 3, 8, 16])
    def test_various_widths(self, rng, k):
        csr = random_csr(50, 200, rng)
        X = rng.standard_normal((200, k))
        assert np.allclose(dasp_spmm(csr, X), reference_spmm(csr, X),
                           rtol=1e-10)

    def test_k1_matches_spmv(self, rng):
        from repro.core import dasp_spmv

        csr = random_csr(50, 200, rng)
        x = rng.standard_normal(200)
        Y = dasp_spmm(csr, x[:, None])
        assert np.allclose(Y[:, 0], dasp_spmv(csr, x), rtol=1e-12)

    def test_accepts_prebuilt(self, rng):
        csr = random_csr(30, 60, rng)
        dasp = DASPMatrix.from_csr(csr)
        X = rng.standard_normal((60, 3))
        assert np.allclose(dasp_spmm(dasp, X), reference_spmm(csr, X))

    def test_empty_rows_zero(self, rng):
        csr = random_csr(40, 60, rng, empty_frac=0.5)
        X = rng.standard_normal((60, 3))
        Y = dasp_spmm(csr, X)
        assert np.all(Y[csr.row_lengths() == 0] == 0)

    def test_fp16_acc_fp32(self, rng):
        csr = random_csr(40, 60, rng, dtype=np.float16)
        X = rng.uniform(-1, 1, (60, 4)).astype(np.float16)
        Y = dasp_spmm(csr, X)
        assert Y.dtype == np.float32
        ref = np.stack([csr.matvec(X[:, j], accum_dtype=np.float32)
                        for j in range(4)], axis=1)
        assert np.allclose(Y, ref, rtol=2e-3, atol=1e-3)

    def test_cast_output(self, rng):
        csr = random_csr(10, 20, rng, dtype=np.float16)
        X = np.zeros((20, 2), dtype=np.float16)
        assert dasp_spmm(csr, X, cast_output=True).dtype == np.float16

    def test_rejects_1d(self, rng):
        csr = random_csr(10, 20, rng)
        with pytest.raises(ValidationError):
            dasp_spmm(csr, np.zeros(20))

    def test_rejects_wrong_rows(self, rng):
        csr = random_csr(10, 20, rng)
        with pytest.raises(ValidationError):
            dasp_spmm(csr, np.zeros((19, 2)))


class TestPlanState:
    """SpMM derives no per-plan state, so nothing it does can enter the
    registry budget or the on-disk artifact format."""

    @pytest.mark.parametrize("k", [1, 8, 13])
    def test_spmm_leaves_plan_unchanged(self, rng, k):
        from repro.serve import plan_nbytes

        csr = random_csr(96, 700, rng, row_len_sampler=ROW_PROFILES["mixed"])
        dasp = DASPMatrix.from_csr(csr)
        keys = list(dasp.array_inventory(include_csr=True))
        attrs = set(vars(dasp))
        nbytes = (plan_nbytes(dasp), plan_nbytes(dasp, include_csr=True))
        dasp_spmm(dasp, rng.standard_normal((700, k)))
        assert list(dasp.array_inventory(include_csr=True)) == keys
        assert set(vars(dasp)) == attrs
        assert (plan_nbytes(dasp), plan_nbytes(dasp, include_csr=True)) == nbytes


class TestUtilization:
    def test_k1_near_one_eighth(self, rng):
        csr = random_csr(64, 400, rng,
                         row_len_sampler=lambda r, m: np.full(m, 64))
        dasp = DASPMatrix.from_csr(csr)
        u1 = mma_utilization(dasp, 1)
        assert 0.08 < u1 < 0.14  # 1/8 minus padding losses

    def test_k8_saturates(self, rng):
        csr = random_csr(64, 400, rng,
                         row_len_sampler=lambda r, m: np.full(m, 64))
        dasp = DASPMatrix.from_csr(csr)
        u8 = mma_utilization(dasp, 8)
        assert u8 > 0.8
        assert u8 == pytest.approx(8 * mma_utilization(dasp, 1))

    def test_k9_drops(self, rng):
        """k=9 needs a second MMA pass per block for one extra column."""
        csr = random_csr(64, 400, rng,
                         row_len_sampler=lambda r, m: np.full(m, 64))
        dasp = DASPMatrix.from_csr(csr)
        assert mma_utilization(dasp, 9) < mma_utilization(dasp, 8)


class TestEvents:
    def test_matrix_streamed_once(self, rng):
        csr = random_csr(60, 300, rng)
        dasp = DASPMatrix.from_csr(csr)
        ev1 = spmm_events(dasp, A100, 1)
        ev8 = spmm_events(dasp, A100, 8)
        assert ev8.bytes_val == ev1.bytes_val  # shared stream
        # row-major RHS block: gathers coalesce, scaling below naive 8x
        from repro.gpu import rhs_block_traffic_factor

        f = rhs_block_traffic_factor(csr, csr.data.dtype.itemsize, 8)
        assert 1.0 <= f <= 8.0
        assert ev8.bytes_x == pytest.approx(f * ev1.bytes_x)
        assert ev8.mma_count == ev1.mma_count  # k<=8 fits one pass

    def test_spmm_cheaper_than_k_spmv(self, rng):
        csr = random_csr(200, 1000, rng,
                         row_len_sampler=lambda r, m: r.integers(8, 60, m))
        dasp = DASPMatrix.from_csr(csr)
        k = 8
        t_spmm = estimate_time(spmm_events(dasp, A100, k), A100).total
        t_spmv = estimate_time(spmm_events(dasp, A100, 1), A100).total
        assert t_spmm < 0.7 * k * t_spmv

    def test_k_validation(self, rng):
        dasp = DASPMatrix.from_csr(random_csr(10, 20, rng))
        with pytest.raises(ValidationError):
            spmm_events(dasp, A100, 0)
