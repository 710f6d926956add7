"""MatrixMarket coordinate-format I/O.

The paper's artifact downloads ``.mtx`` files from the SuiteSparse Matrix
Collection; our synthetic collection can be persisted/loaded in the same
format so downstream users can drop in real SuiteSparse files where they
have them.  Supports ``real`` / ``integer`` / ``pattern`` fields and
``general`` / ``symmetric`` / ``skew-symmetric`` symmetries.
"""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np

from .._util import ReproError, check
from .coo import COOMatrix


class MatrixMarketError(ReproError):
    """Malformed MatrixMarket content."""


_SUPPORTED_FIELDS = {"real", "integer", "pattern"}
_SUPPORTED_SYMMETRIES = {"general", "symmetric", "skew-symmetric"}


def read_matrix_market(source) -> COOMatrix:
    """Parse a MatrixMarket coordinate file into a :class:`COOMatrix`.

    ``source`` may be a path, a string of file content, or a file-like
    object.  Symmetric storage is expanded to general storage (diagonal
    entries are not duplicated).
    """
    text = _read_text(source)
    lines = iter(text.splitlines())
    header = next(lines, "")
    parts = header.strip().split()
    if len(parts) != 5 or parts[0] != "%%MatrixMarket":
        raise MatrixMarketError(f"bad header line: {header!r}")
    _, obj, fmt, field, symmetry = (p.lower() for p in parts)
    if obj != "matrix" or fmt != "coordinate":
        raise MatrixMarketError("only 'matrix coordinate' files are supported")
    if field not in _SUPPORTED_FIELDS:
        raise MatrixMarketError(f"unsupported field {field!r}")
    if symmetry not in _SUPPORTED_SYMMETRIES:
        raise MatrixMarketError(f"unsupported symmetry {symmetry!r}")

    # Skip comments, read the size line.
    size_line = None
    for line in lines:
        stripped = line.strip()
        if not stripped or stripped.startswith("%"):
            continue
        size_line = stripped
        break
    if size_line is None:
        raise MatrixMarketError("missing size line")
    dims = size_line.split()
    if len(dims) != 3:
        raise MatrixMarketError(f"bad size line: {size_line!r}")
    m, n, nnz = (_count(d, size_line) for d in dims)

    rows = np.empty(nnz, dtype=np.int64)
    cols = np.empty(nnz, dtype=np.int64)
    vals = np.ones(nnz, dtype=np.float64)
    count = 0
    for line in lines:
        stripped = line.strip()
        if not stripped or stripped.startswith("%"):
            continue
        if count >= nnz:
            raise MatrixMarketError("more entries than declared")
        toks = stripped.split()
        if len(toks) < (2 if field == "pattern" else 3):
            raise MatrixMarketError(f"bad entry line: {stripped!r}")
        rows[count] = _index(toks[0], stripped)
        cols[count] = _index(toks[1], stripped)
        if field != "pattern":
            try:
                vals[count] = float(toks[2])
            except ValueError:
                raise MatrixMarketError(
                    f"bad entry line: {stripped!r}") from None
        count += 1
    if count != nnz:
        raise MatrixMarketError(f"declared {nnz} entries, found {count}")

    if symmetry in ("symmetric", "skew-symmetric"):
        off_diag = rows != cols
        sign = -1.0 if symmetry == "skew-symmetric" else 1.0
        mirror_rows = cols[off_diag]
        mirror_cols = rows[off_diag]
        mirror_vals = sign * vals[off_diag]
        rows = np.concatenate([rows, mirror_rows])
        cols = np.concatenate([cols, mirror_cols])
        vals = np.concatenate([vals, mirror_vals])
    return COOMatrix((m, n), rows, cols, vals)


def _count(token: str, line: str) -> int:
    """A non-negative integer field of the size line."""
    try:
        value = int(token)
    except ValueError:
        raise MatrixMarketError(f"bad size line: {line!r}") from None
    if value < 0:
        raise MatrixMarketError(f"negative size field in size line: {line!r}")
    return value


def _index(token: str, line: str) -> int:
    """A 1-based row/column index of an entry line, returned 0-based."""
    try:
        value = int(token)
    except ValueError:
        raise MatrixMarketError(f"bad entry line: {line!r}") from None
    if value < 1:
        raise MatrixMarketError(
            f"index {value} in entry line {line!r}: indices are 1-based")
    return value - 1


def write_matrix_market(matrix, target, *, comment: str | None = None) -> None:
    """Write a COO/CSR matrix as a general real coordinate ``.mtx`` file."""
    coo = matrix if isinstance(matrix, COOMatrix) else matrix.to_coo()
    buf = io.StringIO()
    buf.write("%%MatrixMarket matrix coordinate real general\n")
    if comment:
        for line in comment.splitlines():
            buf.write(f"%{line}\n")
    m, n = coo.shape
    buf.write(f"{m} {n} {coo.nnz}\n")
    for r, c, v in zip(coo.row, coo.col, coo.val):
        buf.write(f"{int(r) + 1} {int(c) + 1} {float(v):.17g}\n")
    content = buf.getvalue()
    if hasattr(target, "write"):
        target.write(content)
    else:
        Path(target).write_text(content)


def _read_text(source) -> str:
    if hasattr(source, "read"):
        return source.read()
    source = str(source)
    if "\n" in source or source.lstrip().startswith("%%MatrixMarket"):
        return source
    path = Path(source)
    check(path.exists(), f"no such MatrixMarket file: {source}")
    return path.read_text()
