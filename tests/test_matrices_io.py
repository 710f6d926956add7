"""Tests for matrix .npz persistence."""

import numpy as np
import pytest

from repro._util import ReproError, ValidationError
from repro.matrices import load_collection, load_csr, save_collection, save_csr
from tests.conftest import random_csr


class TestSingleMatrix:
    def test_roundtrip(self, tmp_path, rng):
        csr = random_csr(40, 50, rng)
        save_csr(tmp_path / "m.npz", csr)
        back = load_csr(tmp_path / "m.npz")
        assert back.shape == csr.shape
        assert np.array_equal(back.indptr, csr.indptr)
        assert np.array_equal(back.indices, csr.indices)
        assert np.array_equal(back.data, csr.data)

    def test_fp16_dtype_preserved(self, tmp_path, rng):
        csr = random_csr(10, 10, rng, dtype=np.float16)
        save_csr(tmp_path / "h.npz", csr)
        assert load_csr(tmp_path / "h.npz").data.dtype == np.float16

    def test_empty_matrix(self, tmp_path):
        from repro.formats import CSRMatrix

        save_csr(tmp_path / "e.npz", CSRMatrix.empty((7, 3)))
        back = load_csr(tmp_path / "e.npz")
        assert back.shape == (7, 3) and back.nnz == 0

    def test_creates_parent_dirs(self, tmp_path, rng):
        path = tmp_path / "deep" / "dir" / "m.npz"
        save_csr(path, random_csr(5, 5, rng))
        assert load_csr(path).shape == (5, 5)

    def test_version_check(self, tmp_path, rng):
        csr = random_csr(5, 5, rng)
        np.savez_compressed(tmp_path / "bad.npz", version=np.int64(99),
                            name="x", shape=np.asarray(csr.shape),
                            indptr=csr.indptr, indices=csr.indices,
                            data=csr.data)
        with pytest.raises(ValidationError, match="version"):
            load_csr(tmp_path / "bad.npz")


class TestCollection:
    def test_roundtrip(self, tmp_path, rng):
        matrices = {f"m{i}": random_csr(10 + i, 12, rng) for i in range(4)}
        save_collection(tmp_path / "col", matrices)
        back = load_collection(tmp_path / "col")
        assert set(back) == set(matrices)
        for name in matrices:
            assert np.array_equal(back[name].to_dense(),
                                  matrices[name].to_dense())

    def test_manifest_written(self, tmp_path, rng):
        save_collection(tmp_path / "col", {"a": random_csr(4, 4, rng)})
        assert (tmp_path / "col" / "index.txt").read_text().strip() == "a"

    def test_missing_manifest(self, tmp_path):
        with pytest.raises(ReproError, match="manifest"):
            load_collection(tmp_path)

    def test_bad_name_rejected(self, tmp_path, rng):
        with pytest.raises(ValidationError):
            save_collection(tmp_path / "col", {"a/b": random_csr(4, 4, rng)})

    def test_accepts_pairs(self, tmp_path, rng):
        save_collection(tmp_path / "col", [("x", random_csr(4, 4, rng))])
        assert "x" in load_collection(tmp_path / "col")


class TestLoad:
    """repro.matrices.load — the one public matrix-loading entry point."""

    def test_named_suite_entry(self):
        from repro.matrices import load, suite_by_name

        csr = load("scircuit")
        ref = suite_by_name("scircuit").matrix()
        assert csr.shape == ref.shape and csr.nnz == ref.nnz

    def test_npz_path(self, tmp_path, rng):
        from repro.matrices import load

        csr = random_csr(12, 9, rng)
        save_csr(tmp_path / "m.npz", csr)
        back = load(tmp_path / "m.npz")
        assert np.array_equal(back.to_dense(), csr.to_dense())

    def test_mtx_path(self, tmp_path, rng):
        from repro.formats import write_matrix_market
        from repro.matrices import load

        csr = random_csr(10, 10, rng)
        write_matrix_market(csr, tmp_path / "m.mtx")
        back = load(tmp_path / "m.mtx")
        assert np.allclose(back.to_dense(), csr.to_dense())

    def test_unsupported_extension(self, tmp_path):
        from repro.matrices import load

        path = tmp_path / "m.bin"
        path.write_bytes(b"\x00")
        with pytest.raises(ReproError, match="unsupported extension"):
            load(path)

    def test_unknown_name_raises(self):
        from repro.matrices import load

        with pytest.raises(KeyError, match="no-such-matrix"):
            load("no-such-matrix")
