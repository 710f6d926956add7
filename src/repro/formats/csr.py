"""Compressed Sparse Row (CSR) format — the base format of the pipeline.

The paper's preprocessing converts CSR into the DASP layout, and every
baseline either consumes CSR directly or converts from it, so this class
is the hub of the package.  It deliberately mirrors the three-array layout
described in the paper (Section 2.1): ``RowPtr`` / ``ColIdx`` / ``Val``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .._util import (
    as_index_array,
    as_ptr_array,
    as_value_array,
    check,
    validate_shape,
)


@dataclass
class CSRMatrix:
    """A sparse matrix in CSR form.

    Attributes
    ----------
    shape:
        ``(rows, cols)``.
    indptr:
        ``int64`` array of length ``rows + 1``; ``indptr[i+1] - indptr[i]``
        is the number of stored entries in row ``i``.
    indices:
        ``int32`` column index of each stored entry, grouped by row.
    data:
        Value of each stored entry.
    """

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    def __post_init__(self) -> None:
        self.shape = validate_shape(self.shape)
        self.indptr = as_ptr_array(self.indptr)
        self.indices = as_index_array(self.indices)
        self.data = as_value_array(self.data)
        self.validate()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored entries."""
        return int(self.indptr[-1])

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def nbytes(self) -> int:
        """Total bytes of the three CSR arrays (device-transfer size)."""
        return self.indptr.nbytes + self.indices.nbytes + self.data.nbytes

    def row_lengths(self) -> np.ndarray:
        """Per-row stored-entry counts (the paper's ``Row_len``)."""
        return np.diff(self.indptr)

    def validate(self) -> None:
        """Internal consistency checks (monotone indptr, index bounds)."""
        m, n = self.shape
        check(self.indptr.size == m + 1, "indptr must have rows+1 entries")
        check(int(self.indptr[0]) == 0, "indptr must start at 0")
        check(bool(np.all(np.diff(self.indptr) >= 0)), "indptr must be monotone")
        check(
            int(self.indptr[-1]) == self.indices.size == self.data.size,
            "indptr[-1] must equal nnz",
        )
        if self.indices.size:
            check(int(self.indices.min()) >= 0, "negative column index")
            check(int(self.indices.max()) < n, "column index out of bounds")

    def has_sorted_indices(self) -> bool:
        """True when column indices are ascending within every row."""
        if self.nnz <= 1:
            return True
        diffs = np.diff(self.indices.astype(np.int64))
        # positions where a new row starts are allowed to decrease
        boundary = np.zeros(self.indices.size - 1, dtype=bool)
        row_starts = self.indptr[1:-1]
        valid_starts = row_starts[(row_starts > 0) & (row_starts < self.indices.size)]
        boundary[valid_starts - 1] = True
        return bool(np.all((diffs >= 0) | boundary))

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, dense) -> "CSRMatrix":
        """Build from a dense 2-D array, dropping zeros."""
        from .coo import COOMatrix

        return COOMatrix.from_dense(dense).to_csr()

    @classmethod
    def from_scipy(cls, mat) -> "CSRMatrix":
        """Build from any scipy.sparse matrix (test/interop helper)."""
        m = mat.tocsr()
        return cls(m.shape, m.indptr, m.indices, m.data)

    @classmethod
    def empty(cls, shape, dtype=np.float64) -> "CSRMatrix":
        """An all-zero matrix of the given shape."""
        m, _ = validate_shape(shape)
        return cls(
            shape,
            np.zeros(m + 1, dtype=np.int64),
            np.zeros(0, dtype=np.int32),
            np.zeros(0, dtype=dtype),
        )

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def sort_indices(self) -> "CSRMatrix":
        """Return a copy with ascending column indices in every row."""
        if self.has_sorted_indices():
            return CSRMatrix(self.shape, self.indptr, self.indices, self.data)
        rows = np.repeat(
            np.arange(self.shape[0], dtype=np.int64), self.row_lengths()
        )
        order = np.lexsort((self.indices, rows))
        return CSRMatrix(self.shape, self.indptr, self.indices[order], self.data[order])

    def astype(self, dtype) -> "CSRMatrix":
        """Return a copy with values cast to *dtype*."""
        return CSRMatrix(self.shape, self.indptr, self.indices, self.data.astype(dtype))

    def permute_rows(self, perm: np.ndarray) -> "CSRMatrix":
        """Return the matrix with rows reordered so row ``i`` of the result
        is row ``perm[i]`` of the original."""
        perm = np.asarray(perm, dtype=np.int64)
        check(perm.size == self.shape[0], "permutation has wrong length")
        lens = self.row_lengths()[perm]
        new_ptr = np.zeros(self.shape[0] + 1, dtype=np.int64)
        np.cumsum(lens, out=new_ptr[1:])
        gather = _gather_index(self.indptr, perm, lens)
        return CSRMatrix(self.shape, new_ptr, self.indices[gather], self.data[gather])

    def row_slice(self, rows: np.ndarray) -> "CSRMatrix":
        """Extract the submatrix formed by the given rows (keeps width)."""
        rows = np.asarray(rows, dtype=np.int64)
        lens = self.row_lengths()[rows]
        new_ptr = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(lens, out=new_ptr[1:])
        gather = _gather_index(self.indptr, rows, lens)
        return CSRMatrix(
            (rows.size, self.shape[1]),
            new_ptr,
            self.indices[gather],
            self.data[gather],
        )

    # ------------------------------------------------------------------
    # Conversion / computation
    # ------------------------------------------------------------------
    def transpose(self) -> "CSRMatrix":
        """Return ``A^T`` as CSR (one column-major re-sort)."""
        m, n = self.shape
        rows = np.repeat(np.arange(m, dtype=np.int64), self.row_lengths())
        order = np.lexsort((rows, self.indices))
        counts = (np.bincount(self.indices, minlength=n) if self.nnz
                  else np.zeros(n, dtype=np.int64))
        new_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=new_ptr[1:])
        return CSRMatrix((n, m), new_ptr, rows[order], self.data[order])

    def to_coo(self):
        """Convert to :class:`repro.formats.coo.COOMatrix`."""
        from .coo import COOMatrix

        rows = np.repeat(np.arange(self.shape[0], dtype=np.int64), self.row_lengths())
        return COOMatrix(self.shape, rows, self.indices, self.data)

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense 2-D array."""
        out = np.zeros(self.shape, dtype=self.data.dtype)
        rows = np.repeat(np.arange(self.shape[0], dtype=np.int64), self.row_lengths())
        out[rows, self.indices] = self.data
        return out

    def matvec(self, x: np.ndarray, *, accum_dtype=None) -> np.ndarray:
        """Reference ``y = A @ x`` using row-segment reduction.

        ``accum_dtype`` selects the accumulator precision (used by the
        FP16 path which accumulates in FP32 like tensor cores do).
        """
        x = np.asarray(x)
        check(x.shape == (self.shape[1],), "x has wrong length")
        if accum_dtype is None:
            accum_dtype = np.result_type(self.data, x, np.float32)
        products = self.data.astype(accum_dtype) * x[self.indices].astype(accum_dtype)
        y = np.add.reduceat(
            np.concatenate([products, np.zeros(1, dtype=accum_dtype)]),
            np.minimum(self.indptr[:-1], products.size),
        )
        y[self.row_lengths() == 0] = 0
        return y.astype(accum_dtype)

    def __matmul__(self, x):
        return self.matvec(x)


def _gather_index(indptr: np.ndarray, rows: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Flat indices into data/indices arrays for the given rows, in order.

    Entry ``j`` of output row ``r`` sits at ``out_start[r] + j`` and
    comes from ``indptr[rows[r]] + j``, so one ``repeat`` of the per-row
    shift plus an ``arange`` gives every index without a row loop.
    """
    lens = np.asarray(lens, dtype=np.int64)
    out_start = np.zeros(lens.size, dtype=np.int64)
    np.cumsum(lens[:-1], out=out_start[1:])
    shift = np.asarray(indptr, dtype=np.int64)[rows] - out_start
    return np.arange(int(lens.sum()), dtype=np.int64) + np.repeat(shift, lens)
