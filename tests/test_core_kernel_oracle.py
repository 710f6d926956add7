"""Pinned numerics of the vectorized DASP kernels, from outside the kernels.

Column ``j`` of ``dasp_spmm`` is ``dasp_spmv`` by construction (SpMV is
the ``c = 1`` column of the same category kernels), so a test that
compares the two checks the code against itself.  Two guards do not:

* an *oracle*: a test-local copy of the original 1-D kernel arithmetic
  (per-block ``MmaUnit.block_row_dots``, ``np.add.at`` row-block sums,
  zeroed-x passes for pieced short rows), checked byte for byte —
  signed zeros included — against ``dasp_spmv`` and every column of
  ``dasp_spmm`` in FP64, FP32 and FP16 over every row-length profile;
* output *digests*: sha256 of ``dasp_spmv`` and ``dasp_spmm``
  (k = 1, 8, 13) on small suite matrices that together hold long,
  medium (with irregular tails) and every kind of short row, recorded
  from the 1-D kernels.

The third test ties the kernels' MMA issue counts to the event model.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (DASPMatrix, DASPMethod, apply_update, dasp_spmm,
                        dasp_spmv, random_delta, run_long_rows,
                        run_medium_rows, run_short_rows)
from repro.core._pack import exclusive_cumsum
from repro.core.long_rows import BLOCKS_PER_GROUP
from repro.gpu import A100
from repro.gpu.mma import MmaUnit
from repro.matrices.suite import suite_by_name
from tests.conftest import ROW_PROFILES, random_csr

# ----------------------------------------------------------------------
# The oracle: the 1-D kernels' arithmetic, one x vector at a time
# ----------------------------------------------------------------------


def _oracle_long(plan, x, unit):
    s = unit.shape
    if plan.n_rows == 0:
        return np.zeros(0, dtype=s.acc_dtype)
    a_blocks = plan.val.reshape(-1, s.m, s.k)
    x_blocks = x[plan.cid.astype(np.int64)].reshape(-1, s.m, s.k)
    diag = unit.block_row_dots(a_blocks, x_blocks)
    per_group = diag.reshape(-1, BLOCKS_PER_GROUP * s.m).sum(
        axis=1, dtype=s.acc_dtype)
    if per_group.size == 0:
        return np.zeros(plan.n_rows, dtype=s.acc_dtype)
    starts = np.minimum(plan.group_ptr[:-1], per_group.size - 1)
    y = np.add.reduceat(per_group, starts).astype(s.acc_dtype, copy=False)
    y[np.diff(plan.group_ptr) == 0] = 0
    return y


def _cast(v, s):
    return v.astype(s.in_dtype, copy=False).astype(s.acc_dtype)


def _oracle_medium(plan, x, unit):
    s = unit.shape
    M, K = s.m, s.k
    acc = np.zeros((plan.n_rowblocks, M), dtype=s.acc_dtype)
    if plan.reg_nnz:
        diag = unit.block_row_dots(
            plan.reg_val.reshape(-1, M, K),
            x[plan.reg_cid.astype(np.int64)].reshape(-1, M, K))
        owner = np.repeat(np.arange(plan.n_rowblocks),
                          np.diff(plan.rowblock_ptr) // (M * K))
        np.add.at(acc, owner, diag)
    res = acc.reshape(-1)[:plan.n_rows].copy()
    if plan.irreg_nnz:
        prod = _cast(plan.irreg_val, s) * _cast(
            x[plan.irreg_cid.astype(np.int64)], s)
        tails = np.diff(plan.irreg_ptr)
        nchunks = -(-tails // K)
        chunk_ptr = exclusive_cumsum(nchunks)
        owner = np.repeat(np.arange(plan.n_rows), tails)
        slot = np.arange(prod.size) - plan.irreg_ptr[owner]
        padded = np.zeros((int(chunk_ptr[-1]), K), dtype=s.acc_dtype)
        padded[chunk_ptr[owner] + slot // K, slot % K] = prod
        np.add.at(res, np.repeat(np.arange(plan.n_rows), nchunks),
                  padded.sum(axis=1, dtype=s.acc_dtype))
    return res


def _masked_pass(unit, val, cid, x, cols):
    s = unit.shape
    a_blocks = val.reshape(-1, s.m, s.k)
    xg = np.zeros_like(a_blocks, dtype=x.dtype)
    xg[:, :, cols] = x[cid.astype(np.int64)].reshape(-1, s.m, s.k)[:, :, cols]
    return unit.block_row_dots(a_blocks, xg).reshape(-1)


def _oracle_short(plan, x, unit):
    s = unit.shape
    rows, vals = [], []
    for val, cid, first, second, split in (
            (plan.val13, plan.cid13, plan.rows13_one, plan.rows13_three, 1),
            (plan.val22, plan.cid22, plan.rows22_a, plan.rows22_b, 2)):
        if first.size:
            n = first.size
            rows += [first, second]
            vals += [_masked_pass(unit, val, cid, x, slice(0, split))[:n],
                     _masked_pass(unit, val, cid, x, slice(split, 4))[:n]]
    if plan.rows4.size:
        rows.append(plan.rows4)
        vals.append(_masked_pass(unit, plan.val4, plan.cid4, x,
                                 slice(0, 4))[:plan.rows4.size])
    if plan.rows1.size:
        rows.append(plan.rows1)
        vals.append(_cast(plan.val1, s) * _cast(x[plan.cid1.astype(np.int64)], s))
    if not rows:
        return np.zeros(0, np.int64), np.zeros(0, dtype=s.acc_dtype)
    return np.concatenate(rows), np.concatenate(vals)


def oracle_spmv(dasp, x):
    """``dasp_spmv(dasp, x)`` as the original 1-D kernels computed it."""
    x = np.asarray(x)
    unit = MmaUnit(dasp.mma_shape)
    y = np.zeros(dasp.shape[0], dtype=dasp.mma_shape.acc_dtype)
    lp, mp, sp = dasp.long_plan, dasp.medium_plan, dasp.short_plan
    if lp.n_rows:
        y[lp.row_idx] = _oracle_long(lp, x, unit)
    if mp.n_rows:
        y[mp.row_idx] = _oracle_medium(mp, x, unit)
    if sp.n_rows:
        rows, vals = _oracle_short(sp, x, unit)
        y[rows] = vals
    ov = dasp.delta.overlay if dasp.delta is not None else None
    if ov is not None:
        if ov.empty_rows.size:
            y[ov.empty_rows] = 0
        if ov.mini is not None:
            y[ov.rows] = oracle_spmv(ov.mini, x)
    return y


def assert_same_bytes(got, want):
    """Equal dtype, shape and bytes — unlike ``array_equal``, this tells
    ``-0.0`` from ``+0.0``."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == \
        np.ascontiguousarray(want).tobytes()


@st.composite
def profiled_case(draw, dtype):
    profile = draw(st.sampled_from(sorted(ROW_PROFILES)))
    m = draw(st.integers(min_value=1, max_value=90))
    n = draw(st.integers(min_value=1, max_value=60)
             | st.integers(min_value=257, max_value=700))
    k = draw(st.sampled_from([1, 2, 8, 13]))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    rng = np.random.default_rng(seed)
    csr = random_csr(m, n, rng, row_len_sampler=ROW_PROFILES[profile],
                     dtype=dtype)
    X = rng.uniform(-1, 1, (n, k))
    # Signed zeros: +0.0 and -0.0 entries of x, and whole rows of
    # -0.0 products in some cases.
    X[rng.random((n, k)) < draw(st.sampled_from([0.0, 0.2, 0.9]))] = 0.0
    X[rng.random((n, k)) < 0.5] *= -1
    return csr, X.astype(dtype)


def _check_against_oracle(csr, X):
    dasp = DASPMatrix.from_csr(csr)
    Y = dasp_spmm(dasp, X)
    for j in range(X.shape[1]):
        want = oracle_spmv(dasp, X[:, j])
        assert_same_bytes(dasp_spmv(dasp, X[:, j]), want)
        assert_same_bytes(Y[:, j], want)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=profiled_case(np.float64))
def test_kernels_match_oracle_fp64(data):
    _check_against_oracle(*data)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=profiled_case(np.float32))
def test_kernels_match_oracle_fp32(data):
    _check_against_oracle(*data)


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=profiled_case(np.float16))
def test_kernels_match_oracle_fp16(data):
    _check_against_oracle(*data)


def test_patched_plan_matches_oracle(rng):
    """The delta overlay's rows run the same kernels as the base plan."""
    csr = random_csr(80, 400, rng, row_len_sampler=ROW_PROFILES["mixed"])
    plan = DASPMatrix.from_csr(csr)
    for _ in range(4):
        plan, _ = apply_update(plan, random_delta(plan.csr, rng,
                                                  structural=True,
                                                  n_entries=24),
                               auto_compact=False)
    assert plan.delta is not None and plan.delta.overlay is not None
    X = rng.uniform(-1, 1, (400, 3))
    X[::7] = -0.0
    Y = dasp_spmm(plan, X)
    for j in range(3):
        want = oracle_spmv(plan, X[:, j])
        assert_same_bytes(dasp_spmv(plan, X[:, j]), want)
        assert_same_bytes(Y[:, j], want)


# ----------------------------------------------------------------------
# Digests recorded from the 1-D kernels
# ----------------------------------------------------------------------

#: scircuit: 2 long rows, medium rows with tails, and every short piecing
#: (1&3, 2&2, len-4, singles); rma10: medium rows only; mip1: 60 long
#: rows beside medium ones.  ``(matrix, dtype) -> {op: sha256 prefix}``.
DIGESTS = {
    ("scircuit", "float64"): {
        "spmv": "af8431cbcb111886",
        "spmm1": "af8431cbcb111886",
        "spmm8": "2557fede86c2e0e1",
        "spmm13": "029f5a3b46c38b36",
    },
    ("scircuit", "float32"): {
        "spmv": "138c2d1592cf9548",
        "spmm1": "138c2d1592cf9548",
        "spmm8": "3b31aa9520a0196d",
        "spmm13": "f5690355de87c341",
    },
    ("scircuit", "float16"): {
        "spmv": "396bead5d69ee52f",
        "spmm1": "396bead5d69ee52f",
        "spmm8": "111680cb56aaa77c",
        "spmm13": "64537a71c1dcf359",
    },
    ("rma10", "float64"): {
        "spmv": "c2ae4aa49a528ec5",
        "spmm1": "c2ae4aa49a528ec5",
        "spmm8": "2f201c7d30babd02",
        "spmm13": "ec01adf0d15fa878",
    },
    ("mip1", "float64"): {
        "spmv": "5f96c674bcbae457",
        "spmm1": "5f96c674bcbae457",
        "spmm8": "39a6910bd7e127df",
        "spmm13": "1f7bdefef13979ec",
    },
}


def _digest(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()[:16]


def output_digests(name, dtype):
    csr = suite_by_name(name).matrix()
    csr = type(csr)(csr.shape, csr.indptr, csr.indices,
                    csr.data.astype(dtype))
    dasp = DASPMatrix.from_csr(csr)
    X = np.random.default_rng(2026).standard_normal(
        (csr.shape[1], 13)).astype(dtype)
    out = {"spmv": _digest(dasp_spmv(dasp, X[:, 0]))}
    for k in (1, 8, 13):
        out[f"spmm{k}"] = _digest(dasp_spmm(dasp, X[:, :k]))
    return out


@pytest.mark.parametrize("name,dtype", sorted(DIGESTS))
def test_output_digests(name, dtype):
    assert output_digests(name, dtype) == DIGESTS[name, dtype]


# ----------------------------------------------------------------------
# MMA issue counts == the event model's mma_count
# ----------------------------------------------------------------------


@pytest.mark.parametrize("profile", sorted(ROW_PROFILES))
def test_issue_count_matches_events(profile, rng):
    csr = random_csr(200, 700, rng, row_len_sampler=ROW_PROFILES[profile])
    dasp = DASPMatrix.from_csr(csr)
    x = rng.uniform(-1, 1, 700)
    unit = MmaUnit(dasp.mma_shape)
    run_long_rows(dasp.long_plan, x, unit=unit)
    run_medium_rows(dasp.medium_plan, x, unit=unit)
    run_short_rows(dasp.short_plan, x, unit=unit)
    assert unit.issue_count == DASPMethod().events(dasp, A100).mma_count
