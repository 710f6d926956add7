"""Property-based tests (hypothesis) on the core data structures.

Invariants under test:

* DASP SpMV == reference CSR SpMV for arbitrary sparsity structures;
* lane-accurate and vectorized engines agree;
* every format conversion round-trips;
* classification partitions rows exactly;
* packing conserves every nonzero exactly once.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import DASPMatrix, classify_rows, dasp_spmv
from repro.formats import BSRMatrix, COOMatrix, CSRMatrix
from repro.gpu.mma import FP64_M8N8K4
from repro.baselines import paper_methods

SETTINGS = dict(max_examples=25, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@st.composite
def sparse_matrices(draw, max_rows=40, max_cols=600, max_row_len=None):
    """Strategy producing CSR matrices with arbitrary row-length mixes,
    including empty rows, length-1..4 rows, medium and long rows."""
    m = draw(st.integers(0, max_rows))
    n = draw(st.integers(1, max_cols))
    cap = n if max_row_len is None else min(n, max_row_len)
    lens = draw(st.lists(st.integers(0, cap), min_size=m, max_size=m))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    rows, cols, vals = [], [], []
    for i, l in enumerate(lens):
        if l:
            c = rng.choice(n, size=l, replace=False)
            rows.extend([i] * l)
            cols.extend(c.tolist())
            vals.extend(rng.uniform(-1, 1, l).tolist())
    return COOMatrix((m, n), np.array(rows, dtype=np.int64),
                     np.array(cols, dtype=np.int64),
                     np.array(vals)).to_csr(sum_duplicates=False)


@given(sparse_matrices(), st.integers(0, 2**31 - 1))
@settings(**SETTINGS)
def test_dasp_matches_reference(csr, xseed):
    x = np.random.default_rng(xseed).standard_normal(csr.shape[1])
    assert np.allclose(dasp_spmv(csr, x), csr.matvec(x), rtol=1e-10, atol=1e-12)


@given(sparse_matrices(max_rows=24, max_cols=400), st.integers(0, 2**31 - 1))
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_warp_engine_matches_vectorized(csr, xseed):
    x = np.random.default_rng(xseed).standard_normal(csr.shape[1])
    dasp = DASPMatrix.from_csr(csr)
    assert np.allclose(dasp_spmv(dasp, x, engine="warp"),
                       dasp_spmv(dasp, x), rtol=1e-12, atol=1e-13)


@given(sparse_matrices())
@settings(**SETTINGS)
def test_classification_partitions_rows(csr):
    cls = classify_rows(csr)
    all_rows = np.concatenate(
        [cls.long, cls.medium, cls.empty] + [cls.short[k] for k in (1, 2, 3, 4)])
    assert np.array_equal(np.sort(all_rows), np.arange(csr.shape[0]))


@given(sparse_matrices())
@settings(**SETTINGS)
def test_dasp_conserves_nonzeros(csr):
    """Sum of all stored values equals sum of the original values — every
    nonzero is packed exactly once and padding contributes zero."""
    dasp = DASPMatrix.from_csr(csr)
    stored = (dasp.long_plan.val.sum() + dasp.medium_plan.reg_val.sum()
              + dasp.medium_plan.irreg_val.sum()
              + dasp.short_plan.val13.sum() + dasp.short_plan.val22.sum()
              + dasp.short_plan.val4.sum() + dasp.short_plan.val1.sum())
    assert np.isclose(stored, csr.data.sum(), rtol=1e-9, atol=1e-9)


@given(sparse_matrices())
@settings(**SETTINGS)
def test_coo_csr_roundtrip(csr):
    assert np.array_equal(csr.to_coo().to_csr(sum_duplicates=False).to_dense(),
                          csr.to_dense())


@given(sparse_matrices(max_rows=24, max_cols=64),
       st.sampled_from([(2, 2), (4, 4), (8, 8), (3, 5)]))
@settings(**SETTINGS)
def test_bsr_roundtrip(csr, blocksize):
    bsr = BSRMatrix.from_csr(csr, blocksize)
    assert np.allclose(bsr.to_csr().to_dense(), csr.to_dense())
    assert bsr.fill_ratio(csr.nnz) >= 1.0 or csr.nnz == 0


@given(sparse_matrices(max_rows=20, max_cols=200), st.integers(0, 2**31 - 1))
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_all_methods_agree(csr, xseed):
    """Every paper method computes the same y on arbitrary structures."""
    x = np.random.default_rng(xseed).standard_normal(csr.shape[1])
    ref = csr.matvec(x)
    for method in paper_methods():
        y = method.run(method.prepare(csr), x)
        assert np.allclose(y, ref, rtol=1e-9, atol=1e-11), method.name


@given(sparse_matrices(max_rows=40, max_cols=300))
@settings(**SETTINGS)
def test_padding_ratio_at_least_one(csr):
    dasp = DASPMatrix.from_csr(csr)
    assert dasp.padding_ratio >= 1.0
    assert dasp.nnz == csr.nnz


@given(st.lists(st.integers(0, 400), min_size=0, max_size=60))
@settings(**SETTINGS)
def test_medium_regular_prefix_invariant(lengths):
    """In every row-block, the regular chunk count K_b satisfies the
    threshold rule: chunk K_b-1 qualifies, chunk K_b does not."""
    from repro.core.medium_rows import build_medium_rows

    lengths = [l for l in lengths if 4 < l <= 256]
    rng = np.random.default_rng(0)
    m = len(lengths)
    rows, cols, vals = [], [], []
    n = 500
    for i, l in enumerate(lengths):
        c = rng.choice(n, size=l, replace=False)
        rows += [i] * l
        cols += c.tolist()
        vals += [1.0] * l
    csr = COOMatrix((m, n), np.array(rows, np.int64), np.array(cols, np.int64),
                    np.array(vals)).to_csr(sum_duplicates=False)
    cls = classify_rows(csr)
    plan = build_medium_rows(csr, cls.medium, FP64_M8N8K4)
    lens_sorted = csr.row_lengths()[plan.row_idx]
    nb = plan.n_rowblocks
    K_b = np.diff(plan.rowblock_ptr) // 32
    L = np.zeros((nb, 8), dtype=np.int64)
    if m:
        L.reshape(-1)[:m] = lens_sorted
    for b in range(nb):
        k = int(K_b[b])
        occ = lambda kk: np.clip(L[b] - 4 * kk, 0, 4).sum()
        if k > 0:
            assert occ(k - 1) > 24
        assert occ(k) <= 24
