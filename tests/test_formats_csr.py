"""Tests for the CSR format (the base format of the pipeline)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro._util import ValidationError
from repro.formats import CSRMatrix
from tests.conftest import random_csr


class TestConstruction:
    def test_from_dense_roundtrip(self, small_dense):
        assert np.array_equal(CSRMatrix.from_dense(small_dense).to_dense(),
                              small_dense)

    def test_from_scipy(self, rng):
        s = sp.random(30, 40, density=0.1, random_state=1, format="csr")
        ours = CSRMatrix.from_scipy(s)
        assert np.allclose(ours.to_dense(), s.toarray())

    def test_empty_factory(self):
        e = CSRMatrix.empty((5, 7), dtype=np.float16)
        assert e.nnz == 0 and e.shape == (5, 7) and e.dtype == np.float16

    def test_rejects_nonmonotone_indptr(self):
        with pytest.raises(ValidationError):
            CSRMatrix((2, 2), [0, 2, 1], [0, 1], [1.0, 2.0])

    def test_rejects_bad_indptr_start(self):
        with pytest.raises(ValidationError):
            CSRMatrix((1, 2), [1, 2], [0, 1], [1.0, 2.0])

    def test_rejects_indptr_nnz_mismatch(self):
        with pytest.raises(ValidationError):
            CSRMatrix((1, 2), [0, 3], [0, 1], [1.0, 2.0])

    def test_rejects_col_out_of_bounds(self):
        with pytest.raises(ValidationError):
            CSRMatrix((1, 2), [0, 1], [2], [1.0])

    def test_rejects_wrong_indptr_length(self):
        with pytest.raises(ValidationError):
            CSRMatrix((3, 2), [0, 1], [0], [1.0])


class TestIntrospection:
    def test_row_lengths(self):
        csr = CSRMatrix((3, 4), [0, 2, 2, 3], [0, 1, 3], [1.0, 2.0, 3.0])
        assert list(csr.row_lengths()) == [2, 0, 1]

    def test_nnz(self, profiled_matrix):
        assert profiled_matrix.nnz == profiled_matrix.data.size

    def test_nbytes_accounts_all_arrays(self):
        csr = CSRMatrix((2, 2), [0, 1, 2], [0, 1], [1.0, 2.0])
        expected = csr.indptr.nbytes + csr.indices.nbytes + csr.data.nbytes
        assert csr.nbytes == expected

    def test_sorted_indices_detection(self):
        sorted_csr = CSRMatrix((2, 4), [0, 2, 4], [0, 2, 1, 3], np.ones(4))
        unsorted = CSRMatrix((2, 4), [0, 2, 4], [2, 0, 1, 3], np.ones(4))
        assert sorted_csr.has_sorted_indices()
        assert not unsorted.has_sorted_indices()

    def test_sorted_indices_allows_row_boundary_decrease(self):
        csr = CSRMatrix((2, 4), [0, 2, 4], [2, 3, 0, 1], np.ones(4))
        assert csr.has_sorted_indices()

    def test_sort_indices(self, rng):
        csr = CSRMatrix((2, 5), [0, 3, 5], [4, 0, 2, 3, 1],
                        [1.0, 2.0, 3.0, 4.0, 5.0])
        s = csr.sort_indices()
        assert s.has_sorted_indices()
        assert np.array_equal(s.to_dense(), csr.to_dense())


class TestRowOperations:
    def test_permute_rows(self, rng):
        csr = random_csr(20, 15, rng)
        perm = rng.permutation(20)
        assert np.array_equal(csr.permute_rows(perm).to_dense(),
                              csr.to_dense()[perm])

    def test_permute_rejects_wrong_length(self, rng):
        csr = random_csr(5, 5, rng)
        with pytest.raises(ValidationError):
            csr.permute_rows(np.arange(4))

    def test_row_slice(self, rng):
        csr = random_csr(20, 15, rng)
        rows = np.array([3, 3, 7, 0])
        sliced = csr.row_slice(rows)
        assert sliced.shape == (4, 15)
        assert np.array_equal(sliced.to_dense(), csr.to_dense()[rows])


def loop_gather_index(indptr, rows, lens):
    """Reference: the per-row loop ``_gather_index`` replaced."""
    gather = np.empty(int(lens.sum()), dtype=np.int64)
    pos = 0
    for start, length in zip(indptr[rows], lens):
        gather[pos:pos + length] = np.arange(start, start + length)
        pos += length
    return gather


class TestGatherIndex:
    @pytest.mark.parametrize("empty_frac", [0.0, 0.5, 1.0])
    def test_matches_loop_reference(self, rng, empty_frac):
        from repro.formats.csr import _gather_index

        csr = random_csr(40, 30, rng, empty_frac=empty_frac)
        lens_all = csr.row_lengths()
        for rows in (rng.permutation(40), rng.integers(0, 40, 70),
                     np.flatnonzero(lens_all == 0), np.zeros(0, np.int64)):
            lens = lens_all[rows]
            got = _gather_index(csr.indptr, rows, lens)
            assert got.dtype == np.int64
            assert np.array_equal(got, loop_gather_index(csr.indptr, rows,
                                                         lens))

    def test_empty_selection_slices_to_no_rows(self, rng):
        csr = random_csr(10, 12, rng)
        sliced = csr.row_slice(np.zeros(0, np.int64))
        assert sliced.shape == (0, 12) and sliced.nnz == 0


class TestMatvec:
    def test_matches_scipy(self, profiled_matrix, rng):
        x = rng.standard_normal(profiled_matrix.shape[1])
        s = sp.csr_matrix(
            (profiled_matrix.data, profiled_matrix.indices,
             profiled_matrix.indptr), shape=profiled_matrix.shape)
        assert np.allclose(profiled_matrix.matvec(x), s @ x)

    def test_empty_rows_stay_zero(self):
        csr = CSRMatrix((3, 2), [0, 1, 1, 2], [0, 1], [2.0, 3.0])
        y = csr.matvec(np.array([1.0, 1.0]))
        assert y[1] == 0.0

    def test_all_empty(self):
        csr = CSRMatrix.empty((4, 4))
        assert np.array_equal(csr.matvec(np.ones(4)), np.zeros(4))

    def test_matmul_operator(self, rng):
        csr = random_csr(10, 10, rng)
        x = rng.standard_normal(10)
        assert np.allclose(csr @ x, csr.matvec(x))

    def test_accum_dtype_fp32(self):
        csr = CSRMatrix((1, 2), [0, 2], [0, 1], np.array([1, 1], np.float16))
        y = csr.matvec(np.ones(2, dtype=np.float16), accum_dtype=np.float32)
        assert y.dtype == np.float32

    def test_rejects_wrong_x(self, rng):
        with pytest.raises(ValidationError):
            random_csr(4, 6, rng).matvec(np.zeros(4))

    def test_trailing_empty_rows(self):
        csr = CSRMatrix((4, 2), [0, 1, 1, 1, 1], [1], [5.0])
        y = csr.matvec(np.array([0.0, 2.0]))
        assert list(y) == [10.0, 0.0, 0.0, 0.0]

    def test_astype_fp16(self, rng):
        csr = random_csr(6, 6, rng)
        assert csr.astype(np.float16).data.dtype == np.float16
