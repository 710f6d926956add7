"""Persistence for matrices and collections (compressed ``.npz``).

MatrixMarket text files are interoperable but slow for large synthetic
collections; this module round-trips CSR matrices (and whole named
collections) through NumPy's compressed container so benchmark runs can
reuse generated datasets.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .._util import ReproError, check
from ..formats import CSRMatrix

#: Format marker written into every file for forward compatibility.
_FORMAT_VERSION = 1


def save_csr(path, csr: CSRMatrix, *, name: str = "") -> Path:
    """Write one CSR matrix to a compressed ``.npz`` file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        path,
        version=np.int64(_FORMAT_VERSION),
        name=np.str_(name),
        shape=np.asarray(csr.shape, dtype=np.int64),
        indptr=csr.indptr,
        indices=csr.indices,
        data=csr.data,
    )
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_csr(path) -> CSRMatrix:
    """Load a CSR matrix written by :func:`save_csr`."""
    with np.load(Path(path), allow_pickle=False) as f:
        check(int(f["version"]) == _FORMAT_VERSION,
              f"unsupported matrix file version {int(f['version'])}")
        shape = tuple(int(v) for v in f["shape"])
        return CSRMatrix(shape, f["indptr"], f["indices"], f["data"])


def load(spec) -> CSRMatrix:
    """Resolve a matrix *spec* into a :class:`CSRMatrix`.

    Accepts, in order of routing:

    * a ``.mtx`` path — parsed as MatrixMarket text
      (:func:`repro.formats.read_matrix_market`);
    * an ``.npz`` path — NumPy-compressed, written by :func:`save_csr`;
    * any other *existing* path — rejected with :class:`ReproError`
      (unsupported extension);
    * otherwise — a named matrix from the representative/highlight
      suite (:func:`repro.matrices.suite_by_name`).

    This is the one public loader every tool should use.
    """
    path = Path(str(spec))
    if path.suffix == ".mtx":
        from ..formats import read_matrix_market

        return read_matrix_market(str(path)).to_csr()
    if path.suffix == ".npz":
        return load_csr(path)
    if path.exists():
        raise ReproError(
            f"cannot load {str(spec)!r}: unsupported extension "
            f"{path.suffix!r} (use .mtx or .npz)")
    from .suite import suite_by_name

    return suite_by_name(str(spec)).matrix()


def save_collection(directory, named_matrices) -> Path:
    """Persist ``{name: CSRMatrix}`` (or an iterable of pairs) into a
    directory of ``.npz`` files plus an ``index.txt`` manifest."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    items = dict(named_matrices)
    manifest = []
    for name, csr in items.items():
        check("/" not in name and name.strip() == name,
              f"bad matrix name {name!r}")
        save_csr(directory / f"{name}.npz", csr, name=name)
        manifest.append(name)
    (directory / "index.txt").write_text("\n".join(manifest) + "\n")
    return directory


def load_collection(directory) -> dict[str, CSRMatrix]:
    """Load a collection written by :func:`save_collection`."""
    directory = Path(directory)
    index = directory / "index.txt"
    if not index.exists():
        raise ReproError(f"no collection manifest at {index}")
    out = {}
    for name in index.read_text().split():
        out[name] = load_csr(directory / f"{name}.npz")
    return out
