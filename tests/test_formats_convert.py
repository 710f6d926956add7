"""Tests for the to_csr normalization funnel."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro._util import ReproError
from repro.formats import BSRMatrix, COOMatrix, to_csr
from tests.conftest import random_csr


class TestToCSR:
    def test_csr_passthrough(self, rng):
        csr = random_csr(5, 5, rng)
        assert to_csr(csr) is csr

    def test_from_coo(self, small_dense):
        coo = COOMatrix.from_dense(small_dense)
        assert np.array_equal(to_csr(coo).to_dense(), small_dense)

    def test_from_bsr(self, rng):
        csr = random_csr(12, 12, rng)
        bsr = BSRMatrix.from_csr(csr, (4, 4))
        assert np.allclose(to_csr(bsr).to_dense(), csr.to_dense())

    def test_from_dense_ndarray(self, small_dense):
        assert np.array_equal(to_csr(small_dense).to_dense(), small_dense)

    def test_from_scipy(self):
        s = sp.random(10, 10, density=0.3, random_state=0)
        assert np.allclose(to_csr(s).to_dense(), s.toarray())

    def test_rejects_unknown(self):
        with pytest.raises(ReproError):
            to_csr("not a matrix")

