"""repro.core.delta — incremental plan maintenance for evolving sparsity.

The contract under test is *bitwise* equivalence: after any stream of
value and structural deltas, SpMV/SpMM on the patched plan must equal —
bit for bit, not approximately — the same kernels on a plan rebuilt
from scratch from the updated CSR.  That holds because a row's kernel
result is independent of which other rows it is packed with, so the
patch overlay's mini-plan reproduces exactly the arithmetic a full
rebuild would run for the dirty rows.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    DEFAULT_MAX_LEN,
    DASPMatrix,
    DeltaError,
    StructuralUpdate,
    ValueUpdate,
    apply_structural_to_csr,
    apply_structural_update,
    apply_update,
    apply_value_update,
    clone_for_patch,
    compact_plan,
    consolidate_plan,
    dasp_spmm_on_plan,
    dasp_spmv,
    delta_from_arrays,
    delta_to_arrays,
    random_delta,
    rebuild_debt,
    rebuild_events,
)
from repro.core.delta import has_overlay
from repro.formats import COOMatrix, CSRMatrix
from repro.shard import build_sharded_plan

from .conftest import ROW_PROFILES, random_csr


# ----------------------------------------------------------------------
# Reference evolution: mirror the CSR through a dense array.  Values
# are always drawn away from zero, so dense round-trips preserve the
# pattern exactly and CSR reconstruction is canonical (sorted indices).
# ----------------------------------------------------------------------
def to_dense(csr) -> np.ndarray:
    d = np.zeros(csr.shape, dtype=csr.data.dtype)
    for i in range(csr.shape[0]):
        sl = slice(csr.indptr[i], csr.indptr[i + 1])
        d[i, csr.indices[sl]] = csr.data[sl]
    return d


def from_dense(dense) -> CSRMatrix:
    rows, cols = np.nonzero(dense)
    return COOMatrix(dense.shape, rows.astype(np.int64),
                     cols.astype(np.int64),
                     dense[rows, cols]).to_csr(sum_duplicates=False)


def apply_to_dense(dense, delta) -> None:
    if isinstance(delta, ValueUpdate):
        for r, c, v in zip(delta.rows, delta.cols, delta.vals):
            dense[r, c] = v
    else:
        for r, c in zip(delta.delete_rows, delta.delete_cols):
            dense[r, c] = 0.0
        for r, c, v in zip(delta.insert_rows, delta.insert_cols,
                           delta.insert_vals):
            dense[r, c] = v


def assert_matches_rebuild(plan, csr, x, *, what=""):
    """Patched plan ≡ fresh build of the reference CSR, bit for bit."""
    fresh = DASPMatrix.from_csr(csr)
    assert np.array_equal(dasp_spmv(plan, x), dasp_spmv(fresh, x)), \
        f"spmv patched != rebuild {what}"
    X = np.stack([x, 2 * x, x - 1], axis=1)
    assert np.array_equal(dasp_spmm_on_plan_any(plan, X),
                          dasp_spmm_on_plan(fresh, X)), \
        f"spmm patched != rebuild {what}"


def dasp_spmm_on_plan_any(plan, X):
    return np.concatenate([dasp_spmm_on_plan(d, X)
                           for _, _, d in plan.bands()], axis=0)


def sharded_spmv(plan, x):
    return np.concatenate([dasp_spmv(d, x) for _, _, d in plan.bands()])


@pytest.fixture
def matrix(rng):
    return random_csr(80, 400, rng, row_len_sampler=ROW_PROFILES["mixed"])


# ----------------------------------------------------------------------
# Typed delta API
# ----------------------------------------------------------------------
class TestDeltaTypes:
    def test_value_update_coerces_and_counts(self):
        d = ValueUpdate(rows=[1, 2, 1], cols=[0, 3, 5], vals=[1.0, 2.0, 3.0])
        assert d.rows.dtype == np.int64 and d.n_entries == 3
        assert d.touched_rows().tolist() == [1, 2]

    def test_mismatched_triples_rejected(self):
        from repro._util import ValidationError

        with pytest.raises(ValidationError):
            ValueUpdate(rows=[1], cols=[2, 3], vals=[1.0])
        with pytest.raises(ValidationError):
            StructuralUpdate(insert_rows=[1], insert_cols=[2],
                             insert_vals=[1.0, 2.0])

    def test_roundtrip_arrays(self, matrix, rng):
        for structural in (False, True):
            d = random_delta(matrix, rng, structural=structural, n_entries=7)
            d2 = delta_from_arrays(delta_to_arrays(d))
            assert type(d2) is type(d)
            assert np.array_equal(d2.touched_rows(), d.touched_rows())

    def test_value_update_unknown_position_raises(self, matrix):
        # column n-1 of an empty row cannot hold an entry
        lens = matrix.row_lengths()
        empty = int(np.flatnonzero(lens == 0)[0])
        plan = DASPMatrix.from_csr(matrix)
        with pytest.raises(DeltaError):
            apply_value_update(plan, ValueUpdate(
                rows=[empty], cols=[matrix.shape[1] - 1], vals=[1.0]))

    def test_delete_unknown_position_raises(self, matrix):
        lens = matrix.row_lengths()
        empty = int(np.flatnonzero(lens == 0)[0])
        with pytest.raises(DeltaError):
            apply_structural_to_csr(matrix, StructuralUpdate(
                delete_rows=[empty], delete_cols=[0]))


# ----------------------------------------------------------------------
# Value updates — in-place slab patching
# ----------------------------------------------------------------------
class TestValueUpdates:
    @pytest.mark.parametrize("profile", ["short", "medium", "long", "mixed",
                                         "empty_heavy"])
    def test_patched_equals_rebuild(self, profile, rng):
        csr = random_csr(64, 400, rng, row_len_sampler=ROW_PROFILES[profile])
        if csr.nnz == 0:
            pytest.skip("profile drew an all-empty matrix")
        dense = to_dense(csr)
        plan = DASPMatrix.from_csr(csr)
        x = rng.standard_normal(csr.shape[1])
        for _ in range(4):
            d = random_delta(csr, rng, n_entries=9)
            apply_value_update(plan, d)
            apply_to_dense(dense, d)
            csr = from_dense(dense)
            assert_matches_rebuild(plan, csr, x, what=f"(profile={profile})")

    def test_duplicate_entries_last_wins(self, matrix, rng):
        plan = DASPMatrix.from_csr(matrix)
        r, c = int(matrix.indices[0] * 0), int(matrix.indices[0])
        # entry (0-th stored nonzero): row of index 0
        row = int(np.searchsorted(matrix.indptr, 1, side="left")) - 1
        row = max(row, 0)
        d = ValueUpdate(rows=[row, row], cols=[c, c], vals=[5.0, -7.0])
        apply_value_update(plan, d)
        y = dasp_spmv(plan, np.eye(matrix.shape[1])[c])
        assert y[row] == np.float64(-7.0)

    def test_empty_delta_is_noop(self, matrix):
        plan = DASPMatrix.from_csr(matrix)
        info = apply_value_update(plan, ValueUpdate(
            rows=np.zeros(0, np.int64), cols=np.zeros(0, np.int64),
            vals=np.zeros(0)))
        assert info.touched_rows == 0 and info.nnz_touched == 0

    def test_clone_isolates_drained_version(self, matrix, rng):
        plan = DASPMatrix.from_csr(matrix)
        x = rng.standard_normal(matrix.shape[1])
        y_before = dasp_spmv(plan, x)
        work = clone_for_patch(plan)
        apply_value_update(work, random_delta(matrix, rng, n_entries=20))
        assert np.array_equal(dasp_spmv(plan, x), y_before), \
            "patching a clone mutated the original plan"
        assert not np.array_equal(dasp_spmv(work, x), y_before)

    def test_clone_copies_only_the_slabs_its_delta_writes(self, matrix):
        """A value patch on the clone leaves the pre-update version's
        slabs and ``csr.data`` byte-identical (a read drains against
        v-1), copies ``csr.data`` and the slabs it writes, shares the
        rest, and equals a fresh build of the updated CSR."""
        plan = DASPMatrix.from_csr(matrix)
        before = {n: a.copy() for n, a in plan.value_slabs()}
        data = plan.csr.data.copy()
        # every entry of one long row: only the long slab is written
        r = int(plan.long_plan.row_idx[0])
        lo, hi = matrix.indptr[r], matrix.indptr[r + 1]
        d = ValueUpdate(rows=np.full(hi - lo, r), cols=matrix.indices[lo:hi],
                        vals=np.linspace(2.0, 3.0, hi - lo))
        work = clone_for_patch(plan)
        assert work.csr.data is not plan.csr.data
        apply_value_update(work, d)
        for (name, a), (_, b) in zip(plan.value_slabs(), work.value_slabs()):
            assert a.tobytes() == before[name].tobytes(), name
            assert (a is b) == (name != "long.val"), name
        assert plan.csr.data.tobytes() == data.tobytes()
        dense = to_dense(matrix)
        apply_to_dense(dense, d)
        x = np.linspace(-1.0, 1.0, matrix.shape[1])
        assert_matches_rebuild(work, from_dense(dense), x)
        # a second patch of the clone writes its own copy in place
        long_val = work.long_plan.val
        apply_value_update(work, d)
        assert work.long_plan.val is long_val

    def test_patch_cheaper_than_rebuild(self, matrix, rng):
        from repro.gpu.cost_model import estimate_preprocess_time

        plan = DASPMatrix.from_csr(matrix)
        info = apply_value_update(plan, random_delta(matrix, rng, n_entries=8))
        patch_s = info.seconds("A100")
        rebuild_s = estimate_preprocess_time(rebuild_events(plan), "A100")
        assert patch_s < rebuild_s / 3


# ----------------------------------------------------------------------
# Structural updates — overlay reclassification
# ----------------------------------------------------------------------
class TestStructuralUpdates:
    def test_insert_delete_equals_rebuild(self, matrix, rng):
        dense = to_dense(matrix)
        plan = DASPMatrix.from_csr(matrix)
        x = rng.standard_normal(matrix.shape[1])
        csr = matrix
        for i in range(5):
            d = random_delta(csr, rng, structural=True, n_entries=8)
            plan, info = apply_structural_update(plan, d, auto_compact=False)
            apply_to_dense(dense, d)
            csr = from_dense(dense)
            assert info.kind == "structural"
            assert_matches_rebuild(plan, csr, x, what=f"(step {i})")

    def test_row_emptied_and_refilled(self, rng):
        # one row with a single entry: delete empties it, insert refills
        csr = random_csr(8, 32, rng,
                         row_len_sampler=lambda r, m: np.full(m, 1))
        dense = to_dense(csr)
        plan = DASPMatrix.from_csr(csr)
        x = rng.standard_normal(32)
        row = 3
        col = int(csr.indices[csr.indptr[row]])
        d = StructuralUpdate(delete_rows=[row], delete_cols=[col])
        plan, _ = apply_structural_update(plan, d, auto_compact=False)
        apply_to_dense(dense, d)
        assert dasp_spmv(plan, x)[row] == 0.0
        assert_matches_rebuild(plan, from_dense(dense), x, what="(emptied)")
        d = StructuralUpdate(insert_rows=[row, row], insert_cols=[5, 9],
                             insert_vals=[2.5, -1.5])
        plan, _ = apply_structural_update(plan, d, auto_compact=False)
        apply_to_dense(dense, d)
        assert_matches_rebuild(plan, from_dense(dense), x, what="(refilled)")

    def test_category_migrations_counted(self, rng):
        # row 0: exactly SHORT_LEN entries -> +1 insert crosses into medium;
        # row 1: max_len entries -> +1 insert crosses into long.
        n = 600
        lens = np.zeros(16, dtype=np.int64)
        lens[0], lens[1] = 4, DEFAULT_MAX_LEN
        csr = random_csr(16, n, rng, row_len_sampler=lambda r, m: lens)
        plan = DASPMatrix.from_csr(csr)
        x = rng.standard_normal(n)
        dense = to_dense(csr)
        free0 = int(np.setdiff1d(np.arange(n), csr.indices[
            csr.indptr[0]:csr.indptr[1]])[0])
        free1 = int(np.setdiff1d(np.arange(n), csr.indices[
            csr.indptr[1]:csr.indptr[2]])[0])
        d = StructuralUpdate(insert_rows=[0, 1], insert_cols=[free0, free1],
                             insert_vals=[1.25, -2.5])
        plan, info = apply_structural_update(plan, d, auto_compact=False)
        assert info.migrations == 2
        apply_to_dense(dense, d)
        assert_matches_rebuild(plan, from_dense(dense), x, what="(migration)")

    def test_upsert_existing_position(self, matrix, rng):
        dense = to_dense(matrix)
        plan = DASPMatrix.from_csr(matrix)
        x = rng.standard_normal(matrix.shape[1])
        row = int(np.flatnonzero(matrix.row_lengths() > 0)[0])
        col = int(matrix.indices[matrix.indptr[row]])
        d = StructuralUpdate(insert_rows=[row], insert_cols=[col],
                             insert_vals=[9.75])
        plan, _ = apply_structural_update(plan, d, auto_compact=False)
        apply_to_dense(dense, d)
        csr = from_dense(dense)
        assert csr.nnz == matrix.nnz  # upsert did not grow the pattern
        assert_matches_rebuild(plan, csr, x, what="(upsert)")

    def test_value_update_after_structural(self, matrix, rng):
        """Value patches keep working on a plan carrying an overlay —
        clean rows patch slabs, dirty rows rebuild their mini."""
        dense = to_dense(matrix)
        plan = DASPMatrix.from_csr(matrix)
        x = rng.standard_normal(matrix.shape[1])
        csr = matrix
        d = random_delta(csr, rng, structural=True, n_entries=10)
        plan, _ = apply_structural_update(plan, d, auto_compact=False)
        apply_to_dense(dense, d)
        csr = from_dense(dense)
        for _ in range(3):
            d = random_delta(csr, rng, n_entries=12)
            apply_value_update(plan, d)
            apply_to_dense(dense, d)
            csr = from_dense(dense)
            assert_matches_rebuild(plan, csr, x, what="(value-on-overlay)")


# ----------------------------------------------------------------------
# Rebuild debt and compaction
# ----------------------------------------------------------------------
class TestCompaction:
    def test_debt_grows_then_compaction_resets(self, matrix, rng):
        plan = DASPMatrix.from_csr(matrix)
        assert rebuild_debt(plan) == 0.0
        csr = matrix
        debts = []
        for _ in range(6):
            d = random_delta(csr, rng, structural=True, n_entries=10)
            plan, _ = apply_structural_update(plan, d, auto_compact=False)
            csr = plan.csr
            debts.append(rebuild_debt(plan))
        assert debts[-1] > 0.0
        assert debts == sorted(debts) or max(debts) > 0  # non-trivial debt
        fresh, info = compact_plan(plan)
        assert info.kind == "compaction" and info.compacted
        assert rebuild_debt(fresh) == 0.0 and not has_overlay(fresh)
        x = rng.standard_normal(matrix.shape[1])
        assert np.array_equal(dasp_spmv(fresh, x), dasp_spmv(plan, x))

    def test_auto_compact_bounds_debt(self, matrix, rng):
        threshold = 0.10
        plan = DASPMatrix.from_csr(matrix)
        csr = matrix
        compactions = 0
        for _ in range(25):
            d = random_delta(csr, rng, structural=True, n_entries=12)
            plan, info = apply_update(plan, d, compact_threshold=threshold)
            csr = plan.csr
            compactions += bool(info.compacted)
            assert rebuild_debt(plan) <= threshold or info.compacted
        assert compactions >= 1, "auto-compaction never triggered"
        # debt after every step stays bounded by the trigger + one delta
        assert rebuild_debt(plan) <= threshold + 0.1

    def test_consolidate_noop_without_overlay(self, matrix):
        plan = DASPMatrix.from_csr(matrix)
        assert consolidate_plan(plan) is plan

    def test_consolidate_clears_overlay_same_bits(self, matrix, rng):
        plan = DASPMatrix.from_csr(matrix)
        d = random_delta(matrix, rng, structural=True, n_entries=10)
        plan, _ = apply_structural_update(plan, d, auto_compact=False)
        assert has_overlay(plan)
        x = rng.standard_normal(matrix.shape[1])
        flat = consolidate_plan(plan)
        assert not has_overlay(flat)
        assert np.array_equal(dasp_spmv(flat, x), dasp_spmv(plan, x))


# ----------------------------------------------------------------------
# Sharded plans — per-band patching
# ----------------------------------------------------------------------
class TestShardedDelta:
    def test_mixed_stream_equals_rebuild(self, rng):
        csr = random_csr(120, 500, rng,
                         row_len_sampler=ROW_PROFILES["skewed"])
        dense = to_dense(csr)
        plan = build_sharded_plan(csr, 3)
        x = rng.standard_normal(500)
        for i in range(8):
            structural = i % 2 == 1
            d = random_delta(csr, rng, structural=structural, n_entries=10)
            plan, info = apply_update(plan, d, auto_compact=False)
            apply_to_dense(dense, d)
            csr = from_dense(dense)
            ref = build_sharded_plan(csr, 3)
            assert np.array_equal(sharded_spmv(plan, x),
                                  sharded_spmv(ref, x)), f"sharded step {i}"
        # the top-level CSR stays in sync for fingerprints/fallback
        assert np.array_equal(plan.csr.data,
                              from_dense(dense).data)

    def test_per_band_compaction(self, rng):
        csr = random_csr(90, 300, rng)
        plan = build_sharded_plan(csr, 3)
        # hammer only the first band's rows
        band_rows = np.arange(plan.row_starts[0], plan.row_starts[1])
        for _ in range(20):
            sub = csr.row_slice(band_rows)
            d0 = random_delta(sub, rng, structural=True, n_entries=8)
            d = StructuralUpdate(
                insert_rows=d0.insert_rows + plan.row_starts[0],
                insert_cols=d0.insert_cols, insert_vals=d0.insert_vals,
                delete_rows=d0.delete_rows + plan.row_starts[0],
                delete_cols=d0.delete_cols)
            plan, info = apply_update(plan, d, compact_threshold=0.15)
            csr = plan.csr
        assert rebuild_debt(plan) <= 0.3
        # untouched bands never compacted: their plans carry no overlay
        assert not has_overlay(plan.shards[2].dasp)


# ----------------------------------------------------------------------
# PatchInfo golden — one seeded stream, plain and 4-band
# ----------------------------------------------------------------------
# (kind, touched_rows, nnz_touched, migrations, compacted, device_bytes,
#  host_bytes, sort_keys, kernel_launches, allocations) per delta
_PLAIN_INFOS = [
    ("value", 8, 8, 0, False, 0.0, 256.0, 0.0, 0, 0),
    ("structural", 8, 8, 0, False, 0.0, 5036.0, 6.0, 0, 4),
    ("structural", 8, 8, 0, False, 0.0, 9556.0, 14.0, 0, 4),
    ("value", 8, 8, 0, False, 0.0, 256.0, 0.0, 0, 0),
    ("structural", 8, 8, 1, False, 0.0, 13520.0, 21.0, 0, 4),
    ("structural", 8, 8, 0, False, 0.0, 17860.0, 28.0, 0, 4),
    ("value", 8, 8, 0, False, 0.0, 17796.0, 28.0, 0, 4),
    ("structural", 8, 8, 0, False, 0.0, 20912.0, 35.0, 0, 4),
    ("structural", 8, 8, 0, False, 0.0, 25344.0, 42.0, 0, 4),
    ("value", 8, 8, 0, False, 0.0, 25280.0, 42.0, 0, 4),
    ("structural", 8, 8, 0, True, 0.0, 139456.0, 254.0, 0, 8),
    ("structural", 8, 8, 0, False, 0.0, 4688.0, 7.0, 0, 4),
]
_SHARDED_INFOS = [
    ("value", 8, 8, 0, False, 0.0, 256.0, 0.0, 0, 0),
    ("structural", 8, 8, 0, False, 0.0, 5836.0, 6.0, 0, 12),
    ("structural", 8, 8, 0, False, 0.0, 10372.0, 14.0, 0, 16),
    ("value", 8, 8, 0, False, 0.0, 256.0, 0.0, 0, 0),
    ("structural", 8, 8, 1, False, 0.0, 14576.0, 21.0, 0, 16),
    ("structural", 8, 8, 0, False, 0.0, 17884.0, 28.0, 0, 16),
    ("value", 8, 8, 0, False, 0.0, 6440.0, 12.0, 0, 4),
    ("structural", 8, 8, 0, False, 0.0, 18176.0, 30.0, 0, 12),
    ("structural", 8, 8, 0, True, 0.0, 54876.0, 95.0, 0, 20),
    ("value", 8, 8, 0, False, 0.0, 9876.0, 14.0, 0, 8),
    ("structural", 8, 8, 0, True, 0.0, 51256.0, 89.0, 0, 20),
    ("structural", 8, 8, 0, False, 0.0, 16808.0, 24.0, 0, 16),
]


class TestPatchInfoGolden:
    """Every field of every ``PatchInfo`` of a seeded 12-delta stream
    (value, structural — some hitting dirty rows — and compactions),
    pinned on a plain plan and on a 4-band sharded plan."""

    @staticmethod
    def _run(shards):
        rng = np.random.default_rng(2026)
        csr = random_csr(256, 400, rng, row_len_sampler=ROW_PROFILES["uniform"])
        plan = (build_sharded_plan(csr, shards) if shards
                else DASPMatrix.from_csr(csr))
        got = []
        for i in range(12):
            d = random_delta(plan.csr, rng, structural=i % 3 != 0,
                             n_entries=8)
            work = clone_for_patch(plan) if isinstance(d, ValueUpdate) else plan
            plan, info = apply_update(work, d)
            e = info.events
            got.append((info.kind, info.touched_rows, info.nnz_touched,
                        info.migrations, info.compacted, e.device_bytes,
                        e.host_bytes, e.sort_keys, e.kernel_launches,
                        e.allocations))
        return plan, got

    def test_plain(self):
        assert self._run(0)[1] == _PLAIN_INFOS

    def test_four_bands(self):
        sharded, got = self._run(4)
        assert got == _SHARDED_INFOS
        plain, _ = self._run(0)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(sharded.csr, name),
                                  getattr(plain.csr, name)), name


# ----------------------------------------------------------------------
# Property test: random delta streams, patched ≡ rebuild at every step
# ----------------------------------------------------------------------
@st.composite
def delta_streams(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    steps = draw(st.lists(st.sampled_from(["value", "structural", "empty"]),
                          min_size=1, max_size=6))
    return seed, steps


@given(delta_streams())
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_property_delta_stream_bitwise(stream):
    seed, steps = stream
    rng = np.random.default_rng(seed)
    csr = random_csr(40, 320, rng, row_len_sampler=ROW_PROFILES["mixed"])
    if csr.nnz == 0:
        return
    dense = to_dense(csr)
    plan = DASPMatrix.from_csr(csr)
    x = rng.standard_normal(320)
    for step in steps:
        if step == "empty":
            d = ValueUpdate(rows=np.zeros(0, np.int64),
                            cols=np.zeros(0, np.int64), vals=np.zeros(0))
        else:
            d = random_delta(csr, rng, structural=step == "structural",
                             n_entries=int(rng.integers(1, 14)))
        plan, _ = apply_update(plan, d, auto_compact=bool(rng.integers(2)))
        apply_to_dense(dense, d)
        csr = from_dense(dense)
        fresh = DASPMatrix.from_csr(csr)
        assert np.array_equal(dasp_spmv(plan, x), dasp_spmv(fresh, x))
