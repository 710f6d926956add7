"""Additional property-based tests: SpMM, merge partition, CSR5
structure and solver behaviour under generated inputs."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.baselines import build_csr5, build_lsrb, merge_path_partition
from repro.core import dasp_spmm
from tests.test_property_hypothesis import sparse_matrices

SETTINGS = dict(max_examples=20, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@given(sparse_matrices(max_rows=30, max_cols=120),
       st.integers(1, 9), st.integers(0, 2**31 - 1))
@settings(**SETTINGS)
def test_spmm_matches_columnwise_spmv(csr, k, seed):
    X = np.random.default_rng(seed).standard_normal((csr.shape[1], k))
    Y = dasp_spmm(csr, X)
    ref = np.stack([csr.matvec(X[:, j]) for j in range(k)], axis=1)
    assert np.allclose(Y, ref, rtol=1e-9, atol=1e-11)


@given(sparse_matrices(max_rows=40, max_cols=60), st.integers(1, 50))
@settings(**SETTINGS)
def test_merge_partition_invariants(csr, parts):
    rs, ns = merge_path_partition(csr.indptr, csr.nnz, parts)
    assert rs.size == ns.size == parts + 1
    assert rs[0] == 0 and ns[0] == 0
    assert rs[-1] == csr.shape[0] and ns[-1] == csr.nnz
    assert np.all(np.diff(rs) >= 0) and np.all(np.diff(ns) >= 0)
    items = np.diff(rs) + np.diff(ns)
    if csr.shape[0] + csr.nnz >= parts:
        assert items.max() - items.min() <= 2


@given(sparse_matrices(max_rows=40, max_cols=60))
@settings(**SETTINGS)
def test_csr5_tile_storage_conserves_payload(csr):
    plan = build_csr5(csr)
    recovered = (plan.tile_val.reshape(plan.ntiles, plan.sigma, plan.omega)
                 .transpose(0, 2, 1).reshape(-1))[:csr.nnz] if plan.ntiles \
        else plan.tile_val[:0]
    assert np.array_equal(recovered, csr.data)
    # flags mark exactly the nonempty rows
    assert int(plan.bit_flag.sum()) == int(
        np.count_nonzero(csr.row_lengths() > 0))


@given(sparse_matrices(max_rows=40, max_cols=60), st.integers(4, 128))
@settings(**SETTINGS)
def test_lsrb_segments_cover_all_nonzeros(csr, segment):
    plan = build_lsrb(csr, segment=segment)
    if csr.nnz:
        assert plan.nsegments == -(-csr.nnz // segment)
        assert plan.seg_first_row[0] >= 0
    else:
        assert plan.nsegments == 0


@given(sparse_matrices(max_rows=20, max_cols=40))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_exact_spmv_close_to_float64(csr):
    from repro.analysis import exact_spmv

    x = np.linspace(-1, 1, csr.shape[1])
    assert np.allclose(exact_spmv(csr, x), csr.matvec(x),
                       rtol=1e-10, atol=1e-12)
