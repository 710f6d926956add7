"""repro.core.delta — patches cost their delta, never a re-pack.

Two test-local oracles pin the O(delta) patch paths to the O(nnz) ones
they replace:

* ``oracle_value_scatter`` re-runs the three packers over the plan's
  structure with ``data = arange(1, nnz + 1)`` and inverts the fake
  slabs into a nonzero → (slab, offset) map; :class:`RowSlots` must
  locate every nonzero at the same slot from the layout arrays alone.
* ``oracle_splice`` applies a structural delta by merging the CSR's
  row-major keys with the inserts and argsorting; the splice of
  :func:`apply_structural_to_csr` must give the same bytes.
"""

import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    DASPMatrix,
    DeltaError,
    StructuralUpdate,
    ValueUpdate,
    apply_structural_to_csr,
    apply_structural_update,
    apply_update,
    dasp_spmm_on_plan,
    dasp_spmv,
)
from repro.core.delta import RowSlots, _dedupe_last
from repro.core.long_rows import build_long_rows
from repro.core.medium_rows import build_medium_rows
from repro.core.short_rows import build_short_rows
from repro.formats import CSRMatrix
from repro.gpu.mma import FP16_M16N8K8
from repro.shard import build_sharded_plan

from .conftest import ROW_PROFILES, random_csr


# ----------------------------------------------------------------------
# Oracles: the re-packing paths the patches no longer take
# ----------------------------------------------------------------------
def oracle_value_scatter(plan, base_csr):
    """``(slab_of, pos_of)`` per nonzero of *base_csr*, by re-packing a
    float64 position matrix with *plan*'s classification and shape."""
    nnz = int(base_csr.indptr[-1])
    fake = CSRMatrix(base_csr.shape, base_csr.indptr, base_csr.indices,
                     np.arange(1, nnz + 1, dtype=np.float64))
    cls, shape = plan.classification, plan.mma_shape
    fakes = DASPMatrix(
        shape=base_csr.shape, dtype=np.dtype(np.float64), csr=fake,
        mma_shape=shape, max_len=plan.max_len, threshold=plan.threshold,
        classification=cls,
        long_plan=build_long_rows(fake, cls.long, shape),
        medium_plan=build_medium_rows(fake, cls.medium, shape,
                                      threshold=plan.threshold),
        short_plan=build_short_rows(fake, cls.short, shape),
    )
    slab_of = np.full(nnz, -1, dtype=np.int64)
    pos_of = np.zeros(nnz, dtype=np.int64)
    for sid, (_, arr) in enumerate(fakes.value_slabs()):
        flat = arr.reshape(-1)
        filled = np.flatnonzero(flat)
        src = flat[filled].astype(np.int64) - 1
        slab_of[src] = sid
        pos_of[src] = filled
    assert np.all(slab_of >= 0)
    return slab_of, pos_of


def csr_keys(csr):
    rows = np.repeat(np.arange(csr.shape[0], dtype=np.int64),
                     csr.row_lengths())
    return rows * np.int64(csr.shape[1]) + csr.indices.astype(np.int64)


def oracle_splice(csr, delta):
    """Merge the surviving keys with the new ones and argsort them."""
    m, n = csr.shape
    keys = csr_keys(csr)
    data = csr.data.copy()
    keep = np.ones(keys.size, dtype=bool)
    if delta.delete_rows.size:
        dk = np.unique(delta.delete_rows * np.int64(n) + delta.delete_cols)
        pos = np.searchsorted(keys, dk)
        if np.any(pos >= keys.size) or np.any(
                keys[np.minimum(pos, keys.size - 1)] != dk):
            raise DeltaError("delete: entry not present in sparsity pattern")
        keep[pos] = False
    ins_k = delta.insert_rows * np.int64(n) + delta.insert_cols
    sel = _dedupe_last(ins_k)
    ins_k = ins_k[sel]
    ins_v = np.asarray(delta.insert_vals)[sel].astype(data.dtype)
    if keys.size:
        pos = np.searchsorted(keys, ins_k)
        safe = np.minimum(pos, keys.size - 1)
        exists = (pos < keys.size) & (keys[safe] == ins_k) & keep[safe]
        data[safe[exists]] = ins_v[exists]
    else:
        exists = np.zeros(ins_k.size, dtype=bool)
    merged_k = np.concatenate([keys[keep], ins_k[~exists]])
    merged_v = np.concatenate([data[keep], ins_v[~exists]])
    order = np.argsort(merged_k, kind="stable")
    merged_k, merged_v = merged_k[order], merged_v[order]
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(merged_k // n, minlength=m), out=indptr[1:])
    return CSRMatrix((m, n), indptr,
                     (merged_k % np.int64(n)).astype(np.int32), merged_v)


def assert_locator_matches(plan, base_csr, rows=None):
    """RowSlots puts every nonzero of *rows* (default: all) where the
    re-packed position matrix does."""
    slab_of, pos_of = oracle_value_scatter(plan, base_csr)
    m = base_csr.shape[0]
    row_of = np.repeat(np.arange(m, dtype=np.int64), base_csr.row_lengths())
    j = np.arange(row_of.size, dtype=np.int64) - base_csr.indptr[row_of]
    pick = (np.ones(row_of.size, dtype=bool) if rows is None
            else np.isin(row_of, rows))
    if not pick.any():
        return
    sid, off = RowSlots.of(plan).locate(plan, row_of[pick], j[pick])
    np.testing.assert_array_equal(sid, slab_of[pick])
    np.testing.assert_array_equal(off, pos_of[pick])


# ----------------------------------------------------------------------
# Slot locator vs the position matrix
# ----------------------------------------------------------------------
class TestRowSlotsOracle:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.float16])
    @pytest.mark.parametrize("profile", sorted(ROW_PROFILES))
    def test_every_nonzero_every_profile(self, profile, dtype, rng):
        csr = random_csr(96, 700, rng, row_len_sampler=ROW_PROFILES[profile],
                         dtype=dtype)
        assert_locator_matches(DASPMatrix.from_csr(csr), csr)

    @pytest.mark.parametrize("profile", ["mixed", "medium", "short"])
    def test_wide_mma_shape(self, profile, rng):
        """m16n8k8: medium row-blocks of 16 rows, 8-slot short rows."""
        csr = random_csr(96, 700, rng, row_len_sampler=ROW_PROFILES[profile],
                         dtype=np.float16)
        assert_locator_matches(
            DASPMatrix.from_csr(csr, mma_shape=FP16_M16N8K8), csr)

    def test_each_band_of_a_sharded_plan(self, rng):
        csr = random_csr(160, 700, rng, row_len_sampler=ROW_PROFILES["mixed"])
        plan = build_sharded_plan(csr, 4)
        assert len(plan.bands()) == 4
        for _, _, band in plan.bands():
            assert_locator_matches(band, band.csr)

    def test_clean_rows_after_structural_patches(self, rng):
        csr = random_csr(96, 700, rng, row_len_sampler=ROW_PROFILES["mixed"])
        plan = DASPMatrix.from_csr(csr)
        for _ in range(3):
            plan, _ = apply_structural_update(
                plan, random_structural(plan.csr, rng), auto_compact=False)
        state = plan.delta
        assert state.base_csr is csr and state.dirty.size
        clean = np.setdiff1d(np.arange(csr.shape[0]), state.dirty)
        assert_locator_matches(plan, state.base_csr, rows=clean)


def random_structural(csr, rng, n=6):
    nnz = int(csr.indptr[-1])
    e = rng.choice(nnz, size=min(n, nnz), replace=False)
    drows = np.searchsorted(csr.indptr, e, side="right") - 1
    return StructuralUpdate(
        insert_rows=rng.integers(0, csr.shape[0], n),
        insert_cols=rng.integers(0, csr.shape[1], n),
        insert_vals=rng.uniform(0.5, 1.0, n),
        delete_rows=drows, delete_cols=csr.indices[e])


# ----------------------------------------------------------------------
# Splice vs the argsort merge
# ----------------------------------------------------------------------
def assert_same_csr(got, want):
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name
    assert got.indptr.dtype == np.int64 and got.indices.dtype == np.int32


def splice_both(csr, delta):
    try:
        want = oracle_splice(csr, delta)
    except DeltaError:
        with pytest.raises(DeltaError):
            apply_structural_to_csr(csr, delta)
        return None
    got, touched = apply_structural_to_csr(csr, delta)
    assert_same_csr(got, want)
    np.testing.assert_array_equal(touched, delta.touched_rows())
    return got


def small_csr(dtype=np.float64):
    """4 x 6: row 0 has 2 entries, row 1 is empty, row 2 has 3, row 3 has 1."""
    dense = np.zeros((4, 6))
    dense[0, [1, 4]] = [1.0, 2.0]
    dense[2, [0, 2, 5]] = [3.0, 4.0, 5.0]
    dense[3, 3] = 6.0
    rows, cols = np.nonzero(dense)
    indptr = np.zeros(5, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=4), out=indptr[1:])
    return CSRMatrix((4, 6), indptr, cols, dense[rows, cols].astype(dtype))


def sdelta(ins=(), dels=()):
    ins = list(ins)
    return StructuralUpdate(
        insert_rows=[r for r, _, _ in ins], insert_cols=[c for _, c, _ in ins],
        insert_vals=np.array([v for _, _, v in ins], dtype=np.float64),
        delete_rows=[r for r, _ in dels], delete_cols=[c for _, c in dels])


class TestSpliceOracle:
    @pytest.mark.parametrize("delta", [
        sdelta(ins=[(2, 2, 9.0)]),                  # upsert
        sdelta(ins=[(0, 4, 7.0)], dels=[(0, 4)]),   # delete + re-insert
        sdelta(ins=[(2, 1, 1.5), (2, 1, -2.5)]),    # duplicates: last wins
        sdelta(ins=[(2, 5, 1.5), (2, 5, 8.0)]),     # duplicate upserts
        sdelta(dels=[(2, 0), (2, 2), (2, 5)]),      # empty a row
        sdelta(dels=[(3, 3), (3, 3)]),              # duplicate delete
        sdelta(ins=[(1, 5, 1.0), (1, 0, 2.0)]),     # into an empty row
        sdelta(ins=[(0, 0, 1.0), (0, 5, 2.0)]),     # row 0, both ends
        sdelta(ins=[(3, 0, 1.0), (3, 5, 2.0)]),     # last row
        sdelta(ins=[(1, 2, 1.0)], dels=[(0, 1), (3, 3)]),# shift across rows
        sdelta(dels=[(0, 1), (0, 4), (2, 0), (2, 2), (2, 5), (3, 3)]),
    ])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.float16])
    def test_cases(self, delta, dtype):
        assert splice_both(small_csr(dtype), delta) is not None

    @pytest.mark.parametrize("delta", [
        sdelta(dels=[(1, 0)]),                      # empty row
        sdelta(dels=[(0, 2)]),                      # between entries
        sdelta(ins=[(0, 2, 1.0)], dels=[(0, 2)]),   # re-insert of absent
        sdelta(dels=[(3, 3), (3, 4)]),
    ])
    def test_delete_of_absent_entry_raises(self, delta):
        with pytest.raises(DeltaError):
            apply_structural_to_csr(small_csr(), delta)

    def test_empty_matrix(self):
        csr = CSRMatrix((3, 4), np.zeros(4, dtype=np.int64),
                        np.zeros(0, dtype=np.int32), np.zeros(0))
        got = splice_both(csr, sdelta(ins=[(2, 3, 1.0), (0, 0, 2.0)]))
        assert got.nnz == 2

    def test_result_does_not_alias_input_values(self):
        """Value patches write ``csr.data`` in place, so a spliced CSR
        must never share it with the version it came from."""
        csr = small_csr()
        got, _ = apply_structural_to_csr(csr, sdelta(ins=[(2, 2, 9.0)]))
        assert not np.shares_memory(got.data, csr.data)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_random_deltas(self, data):
        m = data.draw(st.integers(1, 6))
        n = data.draw(st.integers(1, 7))
        dtype = data.draw(st.sampled_from([np.float64, np.float32,
                                           np.float16]))
        mask = np.array(data.draw(st.lists(st.booleans(), min_size=m * n,
                                           max_size=m * n))).reshape(m, n)
        rows, cols = np.nonzero(mask)
        indptr = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=m), out=indptr[1:])
        vals = np.arange(1, rows.size + 1, dtype=np.float64)
        csr = CSRMatrix((m, n), indptr, cols, vals.astype(dtype))
        coord = st.tuples(st.integers(0, m - 1), st.integers(0, n - 1))
        existing = list(zip(rows.tolist(), cols.tolist()))
        # deletes mostly hit entries; a stray one must raise on both paths
        dels = data.draw(st.lists(
            st.sampled_from(existing) if existing and data.draw(st.booleans())
            else coord, max_size=5))
        ins = data.draw(st.lists(
            st.tuples(st.integers(0, m - 1), st.integers(0, n - 1),
                      st.floats(-4, 4).filter(lambda v: v != 0)),
            max_size=6))
        # re-insert some deleted coordinates in the same delta
        ins += [(r, c, 0.5) for r, c in dels[:data.draw(st.integers(0, 2))]]
        splice_both(csr, sdelta(ins=ins, dels=dels))


# ----------------------------------------------------------------------
# A value patch never re-packs
# ----------------------------------------------------------------------
def forbid_repacking(monkeypatch):
    """Make every packer raise, wherever the package imported it."""
    def repack(*_a, **_k):
        raise AssertionError("a value patch re-ran a packer")

    names = ("build_long_rows", "build_medium_rows", "build_short_rows")
    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("repro"):
            for name in names:
                if hasattr(mod, name):
                    monkeypatch.setattr(mod, name, repack)


def value_delta(csr, rng, rows, n=12):
    """Revalue ``n`` existing entries of *rows*."""
    lens = csr.row_lengths()
    e = np.concatenate([np.arange(csr.indptr[r], csr.indptr[r + 1])
                        for r in rows if lens[r]])
    e = rng.choice(e, size=min(n, e.size), replace=False)
    r = np.searchsorted(csr.indptr, e, side="right") - 1
    return ValueUpdate(rows=r, cols=csr.indices[e],
                       vals=rng.uniform(-2.0, 2.0, e.size))


class TestPatchNeverRepacks:
    def test_value_patches_locate_slots_from_the_layout(self, rng,
                                                        monkeypatch):
        csr = random_csr(120, 700, rng, row_len_sampler=ROW_PROFILES["mixed"])
        every = np.arange(csr.shape[0])
        fresh = DASPMatrix.from_csr(csr)
        patched, _ = apply_structural_update(
            DASPMatrix.from_csr(csr), random_structural(csr, rng),
            auto_compact=False)
        clean = np.setdiff1d(every, patched.delta.dirty)
        sharded = build_sharded_plan(csr, 4)
        cases = [(fresh, value_delta(csr, rng, every)),
                 (patched, value_delta(patched.csr, rng, clean)),
                 (sharded, value_delta(csr, rng, every))]

        forbid_repacking(monkeypatch)
        updated = [apply_update(plan, d)[0] for plan, d in cases]
        monkeypatch.undo()

        x = rng.standard_normal(csr.shape[1])
        X = np.stack([x, 1 - x], axis=1)
        for plan in updated:
            ref = DASPMatrix.from_csr(plan.csr)
            y = np.concatenate([dasp_spmv(d, x) for _, _, d in plan.bands()])
            Y = np.concatenate([dasp_spmm_on_plan(d, X)
                                for _, _, d in plan.bands()])
            assert y.tobytes() == dasp_spmv(ref, x).tobytes()
            assert Y.tobytes() == dasp_spmm_on_plan(ref, X).tobytes()
        # a clean plan's slabs are a fresh build's, byte for byte
        ref = DASPMatrix.from_csr(updated[0].csr)
        for (name, a), (_, b) in zip(updated[0].value_slabs(),
                                     ref.value_slabs()):
            assert a.tobytes() == b.tobytes(), name

