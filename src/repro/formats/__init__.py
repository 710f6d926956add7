"""Sparse matrix format substrate: COO, CSR, BSR + MatrixMarket I/O.

CSR (:class:`CSRMatrix`) is the base format the paper's pipeline starts
from; COO and BSR convert to and from it, and :func:`to_csr` normalizes
any accepted input (including dense ndarrays and scipy.sparse) to it.
"""

from .bsr import BSRMatrix
from .convert import to_csr
from .coo import COOMatrix
from .csr import CSRMatrix
from .mmio import MatrixMarketError, read_matrix_market, write_matrix_market

__all__ = [
    "BSRMatrix",
    "COOMatrix",
    "CSRMatrix",
    "MatrixMarketError",
    "read_matrix_market",
    "to_csr",
    "write_matrix_market",
]
