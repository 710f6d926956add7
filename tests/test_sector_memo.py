"""The x-gather sector counts a plan memoizes (``DASPMatrix.sectors``).

A band's counts are a property of its structure: a value patch's clone
shares them, a compaction keeps them, and a structural patch derives
them from the touched rows (:meth:`repro.gpu.memory.SectorMemo.derive`).
After any chain of deltas, every band's memoized counts must equal a
cold :func:`~repro.gpu.memory.sector_counts` of its CSR, and every price
read off them must equal the price of a never-counted copy field for
field.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (DASPMatrix, DeltaError, StructuralUpdate, ValueUpdate,
                        apply_update, clone_for_patch, consolidate_plan)
from repro.core.spmm import gather_analysis, spmm_events
from repro.formats import CSRMatrix
from repro.gpu import A100, sector_counts
from repro.gpu import memory as gpu_memory
from repro.gpu.memory import SectorMemo
from repro.shard import build_sharded_plan
from tests.conftest import random_csr


def _csr(draw) -> CSRMatrix:
    """A small CSR with empty rows, some rows' columns in descending
    order (the sort fallback of ``sector_counts``) and columns that only
    one entry references."""
    m = draw(st.integers(4, 40))
    n = draw(st.integers(1, 90))
    rows = []
    for _ in range(m):
        cols = sorted(draw(st.sets(st.integers(0, n - 1), max_size=12)))
        if len(cols) > 1 and draw(st.booleans()):
            cols = cols[::-1]
        rows.append(cols)
    indptr = np.cumsum([0] + [len(r) for r in rows])
    indices = np.array([c for r in rows for c in r], dtype=np.int64)
    vals = np.linspace(0.5, 1.5, indices.size) if indices.size else np.zeros(0)
    return CSRMatrix((m, n), indptr, indices, vals)


def _entries(csr, row):
    lo, hi = csr.indptr[row], csr.indptr[row + 1]
    return np.asarray(csr.indices[lo:hi], dtype=np.int64)


def _delta(draw, csr):
    """One value or structural delta against *csr*, or ``"compact"``."""
    m, n = csr.shape
    kind = draw(st.sampled_from(["value", "empty_row", "structural",
                                 "compact"]))
    nonempty = [r for r in range(m) if csr.indptr[r + 1] > csr.indptr[r]]
    if kind == "compact":
        return kind
    if kind == "value" and nonempty:
        r = draw(st.sampled_from(nonempty))
        cols = _entries(csr, r)
        return ValueUpdate(rows=np.full(cols.size, r), cols=cols,
                           vals=np.full(cols.size, 2.0))
    if kind == "empty_row" and nonempty:
        # delete a whole row: its sectors may lose their last reference
        r = draw(st.sampled_from(nonempty))
        cols = _entries(csr, r)
        return StructuralUpdate(delete_rows=np.full(cols.size, r),
                                delete_cols=cols)
    ins = draw(st.lists(st.tuples(st.integers(0, m - 1),
                                  st.integers(0, n - 1)), max_size=6))
    empty = [r for r in range(m) if r not in nonempty]
    if empty:       # an insert into an empty row
        ins.append((draw(st.sampled_from(empty)), draw(st.integers(0, n - 1))))
    dels = []
    if nonempty:
        r = draw(st.sampled_from(nonempty))
        dels = [(r, c) for c in _entries(csr, r)[:draw(st.integers(1, 3))]]
    return StructuralUpdate(
        insert_rows=np.array([r for r, _ in ins], dtype=np.int64),
        insert_cols=np.array([c for _, c in ins], dtype=np.int64),
        insert_vals=np.full(len(ins), 3.0),
        delete_rows=np.array([r for r, _ in dels], dtype=np.int64),
        delete_cols=np.array([c for _, c in dels], dtype=np.int64))


def _assert_cold(plan):
    """Each band's memo equals a cold count, and every price read off
    it equals the price of a copy that never counted."""
    for _, _, d in plan.bands():
        vb = d.dtype.itemsize
        assert d.sectors.counts(d.csr, vb) == sector_counts(d.csr, vb)
        cold = replace(d, sectors=SectorMemo())
        assert gather_analysis(d, A100) == gather_analysis(cold, A100)
        for k in (1, 3, 8):
            assert spmm_events(d, A100, k) == spmm_events(cold, A100, k)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), shards=st.sampled_from([0, 2, 3]))
def test_memo_equals_cold_counts_along_any_delta_chain(data, shards):
    csr = _csr(data.draw)
    plan = (build_sharded_plan(csr, shards) if shards
            else DASPMatrix.from_csr(csr))
    if data.draw(st.booleans()):
        _assert_cold(plan)
    for _ in range(data.draw(st.integers(1, 6))):
        d = _delta(data.draw, plan.csr)
        if d == "compact":
            plan = consolidate_plan(plan)
        else:
            work = clone_for_patch(plan) if isinstance(d, ValueUpdate) else plan
            try:
                plan, _ = apply_update(
                    work, d, compact_threshold=data.draw(
                        st.sampled_from([0.0, 0.25, 10.0])))
            except DeltaError:
                # a lookup bisects sorted rows; a descending row can hide
                # an entry from it — the delta is refused, nothing moves
                continue
        # price some versions only: a structural delta derives a counted
        # input's memo, and an uncounted input's output counts cold
        if data.draw(st.booleans()):
            _assert_cold(plan)
    _assert_cold(plan)


class TestSharing:
    @pytest.fixture
    def plan(self, rng):
        return DASPMatrix.from_csr(random_csr(60, 80, rng))

    def test_value_clone_and_compaction_share_the_memo(self, plan):
        gather_analysis(plan, A100)
        assert clone_for_patch(plan).sectors is plan.sectors
        patched, _ = apply_update(plan, INSERT)
        assert patched.sectors is not plan.sectors
        assert consolidate_plan(patched).sectors is patched.sectors

    def test_structural_patch_of_an_uncounted_plan_counts_lazily(
            self, plan, monkeypatch):
        patched, _ = apply_update(plan, INSERT)
        calls = []
        real = gpu_memory.sector_counts
        monkeypatch.setattr(gpu_memory, "sector_counts",
                            lambda *a: calls.append(a) or real(*a))
        for k in (1, 8):
            spmm_events(patched, A100, k)
        assert len(calls) == 1
        _assert_cold(patched)


#: One insert into row 0.
INSERT = StructuralUpdate(insert_rows=[0], insert_cols=[1], insert_vals=[1.0])
