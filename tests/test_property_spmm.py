"""Property test: `dasp_spmm` equals column-wise `dasp_spmv` stacking.

The SpMM extension must be *exactly* a batch of SpMVs on the same plan:
for every random rectangular matrix, every batch width (including the
k = 1 column-vector edge case and widths crossing the MMA_N = 8
boundary) and every precision, ``dasp_spmm(A, X)[:, j]`` must equal
``dasp_spmv(A, X[:, j])`` bit for bit.  Row lengths are drawn so that
long rows, every short-row piecing (1&3, 2&2, len-4, singles) and
medium rows with irregular tails all appear.  Since ``dasp_spmv`` runs
the same category kernels as a one-column block, this equality holds by
construction; ``tests/test_core_kernel_oracle.py`` checks both against
an independent copy of the original 1-D arithmetic.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import DASPMatrix, dasp_spmm, dasp_spmv
from repro.formats import CSRMatrix

#: Row lengths covering every category: empty, the four short lengths,
#: medium rows with and without irregular tails, and long rows
#: (> MAX_LEN = 256).
ROW_LENS = (0, 1, 2, 3, 4, 5, 9, 17, 40, 300, 600)


@st.composite
def csr_and_block(draw, dtype):
    m = draw(st.integers(min_value=1, max_value=96))
    n = draw(st.integers(min_value=1, max_value=80)
             | st.integers(min_value=257, max_value=700))
    k = draw(st.sampled_from([1, 2, 3, 8, 13]))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    lens = np.minimum(rng.choice(ROW_LENS, m), n)
    indptr = np.concatenate([[0], np.cumsum(lens)])
    indices = np.concatenate(
        [np.sort(rng.choice(n, size=L, replace=False)) for L in lens])
    data = rng.uniform(-1, 1, indices.size).astype(dtype)
    csr = CSRMatrix((lens.size, n), indptr, indices, data)
    X = rng.uniform(-1, 1, (n, k)).astype(dtype)
    return csr, X


def _assert_stacks_spmv(csr, X):
    dasp = DASPMatrix.from_csr(csr)
    Y = dasp_spmm(dasp, X)
    cols = np.stack([dasp_spmv(dasp, X[:, j]) for j in range(X.shape[1])],
                    axis=1)
    assert Y.dtype == cols.dtype
    assert np.array_equal(Y, cols)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=csr_and_block(np.float64))
def test_spmm_stacks_spmv_fp64(data):
    _assert_stacks_spmv(*data)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=csr_and_block(np.float32))
def test_spmm_stacks_spmv_fp32(data):
    _assert_stacks_spmv(*data)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=csr_and_block(np.float16))
def test_spmm_stacks_spmv_fp16(data):
    csr, X = data
    assert dasp_spmm(csr, X).dtype == np.float32  # FP16 accumulates in FP32
    _assert_stacks_spmv(csr, X)


class TestEngineValidation:
    """`dasp_spmm` engine/shape validation parity with `dasp_spmv`."""

    def test_unknown_engine_valueerror(self, rng):
        from tests.conftest import random_csr

        csr = random_csr(10, 20, rng)
        with pytest.raises(ValueError, match="unknown engine"):
            dasp_spmm(csr, np.zeros((20, 2)), engine="cuda")

    def test_warp_engine_matches_vectorized(self, rng):
        from tests.conftest import random_csr

        csr = random_csr(24, 40, rng)
        X = rng.uniform(-1, 1, (40, 3))
        Yw = dasp_spmm(csr, X, engine="warp")
        Yv = dasp_spmm(csr, X, engine="vectorized")
        np.testing.assert_allclose(Yw, Yv, rtol=1e-12)

    def test_k1_column_vector(self, rng):
        from tests.conftest import random_csr

        csr = random_csr(12, 18, rng)
        x = rng.uniform(-1, 1, 18)
        Y = dasp_spmm(csr, x[:, None])
        assert Y.shape == (12, 1)
        np.testing.assert_allclose(Y[:, 0], dasp_spmv(csr, x), rtol=1e-12)

    def test_zero_columns_rejected(self, rng):
        from repro._util import ValidationError
        from tests.conftest import random_csr

        csr = random_csr(10, 20, rng)
        with pytest.raises(ValidationError):
            dasp_spmm(csr, np.zeros((20, 0)))

    def test_warp_engine_cast_output(self, rng):
        from tests.conftest import random_csr

        csr = random_csr(8, 16, rng, dtype=np.float16)
        X = rng.uniform(-1, 1, (16, 2)).astype(np.float16)
        Y = dasp_spmm(csr, X, engine="warp", cast_output=True)
        assert Y.dtype == np.float16
