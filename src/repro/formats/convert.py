"""The ``to_csr`` normalization funnel."""

from __future__ import annotations

import numpy as np

from .._util import ReproError
from .bsr import BSRMatrix
from .coo import COOMatrix
from .csr import CSRMatrix


def to_csr(matrix) -> CSRMatrix:
    """Normalize any supported matrix representation to CSR.

    Accepts :class:`CSRMatrix`, :class:`COOMatrix`, :class:`BSRMatrix`,
    dense ndarrays, and scipy.sparse matrices.
    """
    if isinstance(matrix, CSRMatrix):
        return matrix
    if isinstance(matrix, (COOMatrix, BSRMatrix)):
        return matrix.to_csr()
    if isinstance(matrix, np.ndarray):
        return CSRMatrix.from_dense(matrix)
    # Duck-typed scipy.sparse support without importing scipy here.
    if hasattr(matrix, "tocsr"):
        return CSRMatrix.from_scipy(matrix)
    raise ReproError(f"cannot convert {type(matrix).__name__} to CSR")
