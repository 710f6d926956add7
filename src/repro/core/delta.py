"""repro.delta — incremental plan maintenance for evolving sparsity.

Every layer built so far assumed an immutable matrix: one fingerprint,
one DASP plan, forever.  This module makes plans *mutable* without
giving up the bitwise contract:

``ValueUpdate``
    Same sparsity pattern, new values.  :func:`apply_value_update`
    patches the packed payload slabs (long ``val``, medium
    ``reg_val``/``irreg_val``, the four short slabs) **in place** — no
    reclassification, no repacking — and the patched plan is
    bitwise-identical to a fresh ``dasp_preprocess`` of the updated
    CSR.  The slab slot of a nonzero is located from the layout arrays
    the plan already holds (:class:`RowSlots`: each packed row starts at
    a known slot of one slab; only a medium row's regular part needs a
    formula), so a patch costs its delta plus one O(m) row table per
    plan lineage, never a re-pack.

``StructuralUpdate``
    Insert/delete entries as COO triples.  :func:`apply_structural_update`
    splices the CSR and reclassifies **only touched rows**: untouched
    rows keep their packed slots (the base slabs are left alone — the
    per-row floating-point association of the category kernels makes
    their results independent of co-packed rows, the same invariance
    ``repro.shard`` relies on for arbitrary band splits), while dirty
    rows are staged into a patchable *overlay* — a mini DASP plan over
    just those rows whose results overwrite the stale base values at
    execution time (see the hooks in ``spmv.dasp_spmv`` /
    ``spmm.dasp_spmm_on_plan``).

``rebuild_debt``
    The overlay grows with every structural patch; once its stored
    elements exceed ``compact_threshold`` × the base plan's, the cost
    model says patching has gotten slower than rebuilding and
    :func:`apply_update` compacts — a full ``from_csr`` rebuild of the
    band over threshold.

A plan is its row bands (``plan.bands()``): a plain plan is one band,
a :class:`~repro.shard.plan.ShardedPlan` one per shard.
:func:`apply_update`, :func:`clone_for_patch`, :func:`consolidate_plan`,
:func:`rebuild_debt` and :func:`rebuild_events` take either kind and run
one loop over its bands, never asking which kind it is; the band-level
:func:`apply_value_update`, :func:`apply_structural_update` and
:func:`compact_plan` take one :class:`DASPMatrix`.

All patch paths report modeled work as :class:`~repro.gpu.events.
PreprocessEvents`, so patch-vs-rebuild time flows through the same
``estimate_preprocess_time`` cost model the serving layer charges.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .._util import check
from ..gpu.events import PreprocessEvents
from .classify import categorize_lengths
from .format import DASPMatrix

__all__ = [
    "DEFAULT_COMPACT_THRESHOLD",
    "DeltaError",
    "DeltaOverlay",
    "DeltaState",
    "PatchInfo",
    "StructuralUpdate",
    "ValueUpdate",
    "apply_overlay_spmm",
    "apply_structural_to_csr",
    "apply_structural_update",
    "apply_update",
    "apply_value_update",
    "clone_for_patch",
    "compact_plan",
    "consolidate_plan",
    "delta_from_arrays",
    "delta_to_arrays",
    "random_delta",
    "rebuild_debt",
    "rebuild_events",
]

#: Compact when the overlay holds more than this fraction of the base
#: plan's stored elements: past that point every SpMV pays >25% extra
#: kernel work re-computing dirty rows, and the accumulated mini-plan
#: rebuild cost of the *next* patch rivals a from-scratch build.
DEFAULT_COMPACT_THRESHOLD = 0.25


class DeltaError(ValueError):
    """A delta referenced an entry that does not exist (value update or
    delete of an absent position), or was otherwise malformed."""


# ----------------------------------------------------------------------
# Typed delta API
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ValueUpdate:
    """New values for entries that already exist in the pattern.

    Duplicate ``(row, col)`` triples are allowed; the last one wins.
    """

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rows", np.asarray(self.rows, dtype=np.int64))
        object.__setattr__(self, "cols", np.asarray(self.cols, dtype=np.int64))
        object.__setattr__(self, "vals", np.asarray(self.vals))
        check(self.rows.shape == self.cols.shape == self.vals.shape,
              "ValueUpdate triples must be parallel 1-D arrays")

    @property
    def n_entries(self) -> int:
        return int(self.rows.size)

    def touched_rows(self) -> np.ndarray:
        return np.unique(self.rows)


@dataclass(frozen=True)
class StructuralUpdate:
    """Insert/delete entries as COO triples.

    Deletes are applied first, then inserts — so delete+insert of the
    same position is a re-insert.  An insert at an existing position is
    an upsert (the entry keeps its slot, the value changes).  Deltas
    never change the matrix *shape*.
    """

    insert_rows: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    insert_cols: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    insert_vals: np.ndarray = field(default_factory=lambda: np.zeros(0, np.float64))
    delete_rows: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    delete_cols: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))

    def __post_init__(self):
        for name in ("insert_rows", "insert_cols", "delete_rows", "delete_cols"):
            object.__setattr__(self, name, np.asarray(getattr(self, name),
                                                      dtype=np.int64))
        object.__setattr__(self, "insert_vals", np.asarray(self.insert_vals))
        check(self.insert_rows.shape == self.insert_cols.shape
              == self.insert_vals.shape,
              "insert triples must be parallel 1-D arrays")
        check(self.delete_rows.shape == self.delete_cols.shape,
              "delete pairs must be parallel 1-D arrays")

    @property
    def n_entries(self) -> int:
        return int(self.insert_rows.size + self.delete_rows.size)

    def touched_rows(self) -> np.ndarray:
        return np.unique(np.concatenate([self.insert_rows, self.delete_rows]))


# ----------------------------------------------------------------------
# Patch bookkeeping
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PatchInfo:
    """What one patch did, plus its modeled cost (for the obs layer and
    the patch-vs-rebuild benchmark gate)."""

    kind: str                      # "value" | "structural" | "compaction"
    touched_rows: int
    nnz_touched: int
    migrations: int                # touched rows whose category changed
    compacted: bool
    events: PreprocessEvents

    def seconds(self, device) -> float:
        from ..gpu.cost_model import estimate_preprocess_time

        return estimate_preprocess_time(self.events, device)


def _sum_events(*evs: PreprocessEvents) -> PreprocessEvents:
    return PreprocessEvents(
        device_bytes=sum(e.device_bytes for e in evs),
        host_bytes=sum(e.host_bytes for e in evs),
        sort_keys=sum(e.sort_keys for e in evs),
        kernel_launches=sum(e.kernel_launches for e in evs),
        allocations=sum(e.allocations for e in evs),
    )


def rebuild_events(plan) -> PreprocessEvents:
    """Modeled cost of a from-scratch rebuild of *plan* (the baseline
    the ≥3× patch-advantage gate compares against)."""
    from .preprocess import dasp_preprocess_events

    return _sum_events(*[dasp_preprocess_events(d)
                         for _, _, d in plan.bands()])


# ----------------------------------------------------------------------
# Value slots — located from the plan's own layout arrays
# ----------------------------------------------------------------------
#: Slab ids, in :meth:`DASPMatrix.value_slabs` order.
_LONG, _REG, _IRREG, _S13, _S22, _S4, _S1 = range(7)
_ALL_SLABS = frozenset(range(7))


@dataclass(frozen=True)
class RowSlots:
    """Row → slab table over a plan's packed layout.

    Nonzero ``j`` of row ``i`` lives at flat offset ``start[i] + j`` of
    slab ``slab[i]`` (an index into :meth:`DASPMatrix.value_slabs`;
    -1 for rows the plan does not pack), except for medium rows: their
    ``start`` is the packed row index and :meth:`locate` derives the
    regular or irregular slot from the row-block.  O(m) to build from
    the category plans' row arrays and pointers; nothing is re-packed.
    """

    slab: np.ndarray               # int8 (m,)
    start: np.ndarray              # int64 (m,)

    @classmethod
    def of(cls, plan: DASPMatrix) -> "RowSlots":
        m, K = plan.shape[0], plan.mma_shape.k
        slab = np.full(m, -1, dtype=np.int8)
        start = np.zeros(m, dtype=np.int64)
        lp, mp, sp = plan.long_plan, plan.medium_plan, plan.short_plan

        def packed(rows, first=0, stride=K):
            """Row ``i`` of *rows* starts at ``first + stride * i``."""
            return first + stride * np.arange(rows.size, dtype=np.int64)

        for rows, sid, starts in (
                (lp.row_idx, _LONG, lp.group_ptr[:-1] * lp.group_elems),
                (mp.row_idx, _REG, packed(mp.row_idx, stride=1)),
                (sp.rows13_one, _S13, packed(sp.rows13_one)),
                (sp.rows13_three, _S13, packed(sp.rows13_three, 1)),
                (sp.rows22_a, _S22, packed(sp.rows22_a)),
                (sp.rows22_b, _S22, packed(sp.rows22_b, 2)),
                (sp.rows4, _S4, packed(sp.rows4)),
                (sp.rows1, _S1, packed(sp.rows1, stride=1))):
            slab[rows] = sid
            start[rows] = starts
        return cls(slab=slab, start=start)

    def locate(self, plan: DASPMatrix, rows: np.ndarray, j: np.ndarray):
        """``(slab id, flat offset)`` of nonzero ``j[e]`` of row
        ``rows[e]`` (``j`` counts within the row, as packed)."""
        sid = self.slab[rows].astype(np.int64)
        check(bool(np.all(sid >= 0)), "row is not packed in the plan")
        start = self.start[rows]
        off = start + j
        med = sid == _REG
        if med.any():
            mp, M, K = plan.medium_plan, plan.mma_shape.m, plan.mma_shape.k
            p, jm = start[med], j[med]
            b = p // M
            ptr = mp.rowblock_ptr
            reg_cols = (ptr[b + 1] - ptr[b]) // M      # K_b * K
            reg = jm < reg_cols
            off[med] = np.where(reg, ptr[b] + jm // K * (M * K) + p % M * K
                                + jm % K, mp.irreg_ptr[p] + jm - reg_cols)
            sid[med] = np.where(reg, _REG, _IRREG)
        return sid, off


def _flat(arr: np.ndarray) -> np.ndarray:
    check(arr.flags["C_CONTIGUOUS"], "slab must be C-contiguous")
    return arr.reshape(-1)


def _search_rows(csr, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """CSR position of the first entry of row ``rows[e]`` whose column is
    ``>= cols[e]``: ``searchsorted`` within each row's sorted column
    indices, bisected for all entries at once — O(delta · log row)."""
    lo, hi, idx = csr.indptr[rows], csr.indptr[rows + 1], csr.indices
    live = lo < hi
    while live.any():
        mid = (lo + hi) >> 1
        below = live & (idx[np.where(live, mid, 0)] < cols)
        lo = np.where(below, mid + 1, lo)
        hi = np.where(live & ~below, mid, hi)
        live = lo < hi
    return lo


def _found(csr, rows: np.ndarray, cols: np.ndarray, pos: np.ndarray):
    """Which ``pos`` (from :func:`_search_rows`) hold ``(rows, cols)``."""
    hit = pos < csr.indptr[rows + 1]
    hit[hit] = csr.indices[pos[hit]] == cols[hit]
    return hit


def _lookup(csr, rows: np.ndarray, cols: np.ndarray, what: str) -> np.ndarray:
    """CSR positions of existing entries ``(rows, cols)``."""
    pos = _search_rows(csr, rows, cols)
    if not _found(csr, rows, cols, pos).all():
        raise DeltaError(f"{what}: entry not present in sparsity pattern")
    return pos


# ----------------------------------------------------------------------
# Delta state attached to a plan
# ----------------------------------------------------------------------
@dataclass
class DeltaOverlay:
    """Mini DASP plan over the dirty rows; its results overwrite the
    base plan's stale values at execution time."""

    rows: np.ndarray               # dirty rows with >= 1 nonzero, ascending
    empty_rows: np.ndarray         # dirty rows that are now empty
    mini: DASPMatrix


@dataclass
class DeltaState:
    """Mutable patch bookkeeping attached to ``DASPMatrix.delta``.

    ``base_csr`` is the structure the slabs were packed from (identical
    to ``plan.csr`` until the first structural patch, then frozen until
    compaction); ``dirty`` rows have stale slab slots and are served
    from ``overlay`` instead.  ``shared`` holds the ids of the value
    slabs another version also reads: a value patch copies such a slab
    before its first write to it.
    """

    base_csr: object
    dirty: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    overlay: DeltaOverlay | None = None
    patches: int = 0
    _slots: RowSlots | None = None
    shared: set = field(default_factory=set)

    def slots(self, plan) -> RowSlots:
        """The row table of *plan*'s slabs, built on first use and shared
        by every version until compaction re-packs them."""
        if self._slots is None:
            self._slots = RowSlots.of(plan)
        return self._slots


def ensure_state(plan: DASPMatrix) -> DeltaState:
    if plan.delta is None:
        plan.delta = DeltaState(base_csr=plan.csr)
    return plan.delta


def clone_for_patch(plan):
    """Shallow-copy *plan* so in-place value patches cannot corrupt the
    original: each band's ``csr.data`` is copied, and its value slabs
    are shared until a value patch first writes one (``DeltaState.
    shared``), so a patch copies only the slabs its delta touches.
    Structure arrays, the row-slot table and the sector counts are
    shared.  The registry uses this so in-flight requests drain against
    the pre-update version."""
    return plan._with_bands([_clone_band(d) for _, _, d in plan.bands()])


def _clone_band(plan: DASPMatrix) -> DASPMatrix:
    from ..formats.csr import CSRMatrix

    csr = CSRMatrix(plan.csr.shape, plan.csr.indptr, plan.csr.indices,
                    plan.csr.data.copy())
    st = plan.delta
    new_st = DeltaState(base_csr=csr) if st is None else replace(st)
    new_st.shared = set(_ALL_SLABS)
    return replace(plan, csr=csr, delta=new_st)


def _own_slab(plan: DASPMatrix, state: DeltaState, slabs: list,
              s: int) -> np.ndarray:
    """Value slab *s* of *plan* (``slabs`` is its
    :meth:`~DASPMatrix.value_slabs`), copied into *plan* first when
    another version shares it."""
    name, arr = slabs[s]
    if s in state.shared:
        category, attr = name.split(".")
        arr = arr.copy()
        owner = category + "_plan"
        setattr(plan, owner, replace(getattr(plan, owner), **{attr: arr}))
        state.shared.discard(s)
    return arr


# ----------------------------------------------------------------------
# Value updates — in-place slab patch
# ----------------------------------------------------------------------
def _dedupe_last(k: np.ndarray) -> np.ndarray:
    """Indices selecting the *last* occurrence of each key, key-sorted."""
    order = np.argsort(k, kind="stable")
    ks = k[order]
    last = np.ones(ks.size, dtype=bool)
    if ks.size > 1:
        last[:-1] = ks[:-1] != ks[1:]
    return order[last]


def apply_value_update(plan: DASPMatrix, delta: ValueUpdate) -> PatchInfo:
    """Patch new values into *plan* in place; bitwise-identical to a
    fresh build of the updated CSR.

    The canonical value of an entry is ``csr.data``'s — the new values
    are cast to the matrix dtype once and the *cast* result is written
    to both ``csr.data`` and the slab slot, exactly what a fresh
    ``from_csr`` would store.
    """
    if delta.n_entries == 0:
        return PatchInfo("value", 0, 0, 0, False, PreprocessEvents())
    m, n = plan.shape
    check(bool(np.all((delta.rows >= 0) & (delta.rows < m))), "row out of range")
    check(bool(np.all((delta.cols >= 0) & (delta.cols < n))), "col out of range")
    state = ensure_state(plan)
    sel = _dedupe_last(delta.rows * np.int64(n) + delta.cols)
    rows, vals = delta.rows[sel], delta.vals[sel]

    pos_cur = _lookup(plan.csr, rows, delta.cols[sel], "value update")
    plan.csr.data[pos_cur] = np.asarray(vals).astype(plan.csr.data.dtype)
    cast = plan.csr.data[pos_cur]

    if state.dirty.size:
        j = np.searchsorted(state.dirty, rows)
        j = np.minimum(j, state.dirty.size - 1)
        is_dirty = state.dirty[j] == rows
    else:
        is_dirty = np.zeros(rows.size, dtype=bool)

    clean = ~is_dirty
    if clean.any():
        # Clean rows hold the entries the slabs were packed from, so an
        # entry's index within its current row is its packed index.
        r = rows[clean]
        sid, off = state.slots(plan).locate(
            plan, r, pos_cur[clean] - plan.csr.indptr[r])
        cv = cast[clean]
        slabs = plan.value_slabs()
        for s in np.unique(sid).tolist():
            msk = sid == s
            _flat(_own_slab(plan, state, slabs, s))[off[msk]] = cv[msk]
    if is_dirty.any() and state.overlay is not None:
        # Dirty rows are served from the overlay, which holds value
        # copies — rebuild it from the (already patched) current CSR.
        state.overlay = _build_overlay(plan, state.dirty)

    vb = plan.csr.data.dtype.itemsize
    ev = PreprocessEvents(host_bytes=float(rows.size) * (2 * vb + 16))
    if is_dirty.any() and state.overlay is not None:
        from .preprocess import dasp_preprocess_events

        ev = _sum_events(ev, dasp_preprocess_events(state.overlay.mini))
    state.patches += 1
    return PatchInfo("value", int(np.unique(rows).size), int(rows.size),
                     0, False, ev)


# ----------------------------------------------------------------------
# Structural updates — CSR splice + dirty-row overlay
# ----------------------------------------------------------------------
def apply_structural_to_csr(csr, delta: StructuralUpdate):
    """Apply *delta* to a CSR matrix; returns ``(new_csr, touched_rows)``.

    Pure array splice: one copy of the kept runs of ``indices`` and
    ``data`` plus O(m + delta · log row) index work — the result keeps
    sorted, duplicate-free column indices.  Raises :class:`DeltaError`
    on a delete of an absent entry or an out-of-range coordinate.
    """
    from ..formats.csr import CSRMatrix

    m, n = csr.shape
    for r, c in ((delta.insert_rows, delta.insert_cols),
                 (delta.delete_rows, delta.delete_cols)):
        check(bool(np.all((r >= 0) & (r < m))), "row out of range")
        check(bool(np.all((c >= 0) & (c < n))), "col out of range")
    _, first = np.unique(delta.delete_rows * np.int64(n) + delta.delete_cols,
                         return_index=True)
    drows = delta.delete_rows[first]
    dpos = _lookup(csr, drows, delta.delete_cols[first], "delete")
    sel = _dedupe_last(delta.insert_rows * np.int64(n) + delta.insert_cols)
    irows, icols = delta.insert_rows[sel], delta.insert_cols[sel]
    ivals = np.asarray(delta.insert_vals)[sel].astype(csr.data.dtype)
    ipos = _search_rows(csr, irows, icols)
    # An insert onto an entry (an upsert, or a re-insert of a delete)
    # drops that entry and takes its place with the new value.
    old = _found(csr, irows, icols, ipos)
    drop, first = np.unique(np.concatenate([dpos, ipos[old]]),
                            return_index=True)
    drop_rows = np.concatenate([drows, irows[old]])[first]
    indptr = csr.indptr + np.cumsum(
        np.bincount(irows + 1, minlength=m + 1)
        - np.bincount(drop_rows + 1, minlength=m + 1))
    indices = _splice(csr.indices, drop, ipos, icols)
    data = _splice(csr.data, drop, ipos, ivals)
    out = CSRMatrix((m, n), indptr, indices, data)
    return out, delta.touched_rows()


def _splice(arr: np.ndarray, drop: np.ndarray, at: np.ndarray,
            vals: np.ndarray) -> np.ndarray:
    """A new copy of *arr* without positions *drop*, with ``vals[e]``
    inserted before position ``at[e]`` (both sorted; an insert goes
    before a drop at the same position): one copy of the kept runs."""
    vals = vals.astype(arr.dtype)
    cuts = np.concatenate([at, drop])
    pieces, prev = [], 0
    for e in np.argsort(cuts, kind="stable").tolist():
        p = int(cuts[e])
        pieces.append(arr[prev:p])
        if e < at.size:
            pieces.append(vals[e:e + 1])
            prev = p
        else:
            prev = p + 1
    pieces.append(arr[prev:])
    return np.concatenate(pieces)


def _build_overlay(plan: DASPMatrix, dirty: np.ndarray) -> DeltaOverlay | None:
    if dirty.size == 0:
        return None
    lens = plan.csr.row_lengths()[dirty]
    rows = dirty[lens > 0]
    empty = dirty[lens == 0]
    mini = None
    if rows.size:
        mini = DASPMatrix.from_csr(plan.csr.row_slice(rows),
                                   max_len=plan.max_len,
                                   threshold=plan.threshold,
                                   mma_shape=plan.mma_shape)
    return DeltaOverlay(rows=rows, empty_rows=empty, mini=mini)


def _count_migrations(plan: DASPMatrix, state: DeltaState,
                      touched: np.ndarray) -> int:
    base_cat = categorize_lengths(state.base_csr.row_lengths()[touched],
                                  max_len=plan.max_len)
    new_cat = categorize_lengths(plan.csr.row_lengths()[touched],
                                 max_len=plan.max_len)
    return int(np.count_nonzero(base_cat != new_cat))


def apply_structural_update(plan: DASPMatrix, delta: StructuralUpdate, *,
                            auto_compact: bool = True,
                            compact_threshold: float = DEFAULT_COMPACT_THRESHOLD,
                            ):
    """Insert/delete entries; returns ``(new_plan, PatchInfo)``.

    The returned plan *shares* the packed slabs with the input (only the
    CSR, delta state and sector counts are new; the counts are derived
    from the input's by re-counting the touched rows, see
    :meth:`repro.gpu.memory.SectorMemo.derive`); a later value patch of
    it copies each slab before its first write.
    """
    if delta.n_entries == 0:
        return plan, PatchInfo("structural", 0, 0, 0, False,
                               PreprocessEvents())
    state = ensure_state(plan)
    new_csr, touched = apply_structural_to_csr(plan.csr, delta)
    dirty = np.union1d(state.dirty, touched)
    # the new plan reads the input's slabs: a later value patch copies
    # what it writes
    new_state = DeltaState(base_csr=state.base_csr, dirty=dirty,
                           patches=state.patches + 1,
                           _slots=state._slots, shared=set(_ALL_SLABS))
    new_plan = replace(plan, csr=new_csr, delta=new_state,
                       sectors=plan.sectors.derive(
                           plan.csr, new_csr, touched, plan.dtype.itemsize))
    new_state.overlay = _build_overlay(new_plan, dirty)

    migrations = _count_migrations(new_plan, new_state, touched)
    vb = new_csr.data.dtype.itemsize
    ev = PreprocessEvents(host_bytes=float(delta.n_entries) * (vb + 12) * 2)
    if new_state.overlay is not None and new_state.overlay.mini is not None:
        from .preprocess import dasp_preprocess_events

        ev = _sum_events(ev, dasp_preprocess_events(new_state.overlay.mini))

    compacted = False
    if auto_compact and rebuild_debt(new_plan) > compact_threshold:
        new_plan, cinfo = compact_plan(new_plan)
        ev = _sum_events(ev, cinfo.events)
        compacted = True
    return new_plan, PatchInfo("structural", int(touched.size),
                               int(delta.n_entries), migrations,
                               compacted, ev)


def rebuild_debt(plan) -> float:
    """Fraction of a band's stored elements duplicated in its overlay —
    the extra kernel work every SpMV pays for dirty rows — in the worst
    band of *plan*."""
    debt = 0.0
    for _, _, d in plan.bands():
        state = d.delta
        if state is not None and state.overlay is not None \
                and state.overlay.mini is not None:
            debt = max(debt, state.overlay.mini.stored_elements
                       / max(1, d.stored_elements))
    return debt


def compact_plan(plan: DASPMatrix):
    """Full rebuild from the current CSR; resets all delta state."""
    from .preprocess import dasp_preprocess_events

    fresh = DASPMatrix.from_csr(plan.csr, max_len=plan.max_len,
                                threshold=plan.threshold,
                                mma_shape=plan.mma_shape)
    fresh.sectors = plan.sectors        # same CSR, same sector counts
    ev = dasp_preprocess_events(fresh)
    return fresh, PatchInfo("compaction", plan.shape[0], plan.nnz,
                            0, True, ev)


def consolidate_plan(plan):
    """Return a self-contained plan safe to serialize.

    The artifact format stores only the packed slabs and the CSR — an
    overlay would be silently dropped, leaving stale slab values for
    dirty rows on reload.  Every band with an overlay is therefore
    compacted first; an overlay-free plan is returned unchanged."""
    dasps = [d for _, _, d in plan.bands()]
    if not any(map(has_overlay, dasps)):
        return plan
    return plan._with_bands([compact_plan(d)[0] if has_overlay(d) else d
                             for d in dasps])


# ----------------------------------------------------------------------
# Unified entry — one loop over the plan's bands, either delta type
# ----------------------------------------------------------------------
def apply_update(plan, delta, *, auto_compact: bool = True,
                 compact_threshold: float = DEFAULT_COMPACT_THRESHOLD):
    """Apply *delta* (value or structural) to a plain or sharded plan.

    Returns ``(new_plan, PatchInfo)``.  Each band the delta touches is
    patched with its entries, rows made band-local (value updates in
    place), and compacts on its own debt, so a hot band's churn never
    costs more than that band's rebuild.  The ``PatchInfo`` sums the
    bands'; a sharded plan's CSR is the concatenation of its bands'.
    """
    # the delta's parallel arrays, grouped behind the row array they key
    if isinstance(delta, ValueUpdate):
        kind, groups = "value", (("rows", "cols", "vals"),)
    elif isinstance(delta, StructuralUpdate):
        kind, groups = "structural", (
            ("insert_rows", "insert_cols", "insert_vals"),
            ("delete_rows", "delete_cols"))
    else:
        raise TypeError(f"unknown delta type {type(delta).__name__}")
    if delta.n_entries == 0:
        return plan, PatchInfo(kind, 0, 0, 0, False, PreprocessEvents())
    bands = plan.bands()
    starts = np.array([a for a, _, _ in bands], dtype=np.int64)
    # Out-of-range rows land in the first or last band, whose patch
    # rejects them.
    owner = [np.maximum(np.searchsorted(starts, getattr(delta, g[0]),
                                        side="right") - 1, 0)
             for g in groups]
    dasps, infos = [], []
    for i, (a, _, dasp) in enumerate(bands):
        masks = [o == i for o in owner]
        if any(m.any() for m in masks):
            fields = {}
            for (rows, *rest), m in zip(groups, masks):
                fields[rows] = getattr(delta, rows)[m] - a
                fields.update((f, getattr(delta, f)[m]) for f in rest)
            if kind == "value":
                info = apply_value_update(dasp, replace(delta, **fields))
            else:
                dasp, info = apply_structural_update(
                    dasp, replace(delta, **fields), auto_compact=auto_compact,
                    compact_threshold=compact_threshold)
            infos.append(info)
        dasps.append(dasp)
    return plan._with_bands(dasps), PatchInfo(
        kind=kind,
        touched_rows=sum(i.touched_rows for i in infos),
        nnz_touched=sum(i.nnz_touched for i in infos),
        migrations=sum(i.migrations for i in infos),
        compacted=any(i.compacted for i in infos),
        events=_sum_events(*[i.events for i in infos]),
    )


def apply_delta_to_csr(csr, delta):
    """Apply *delta* to a bare CSR matrix (no plan); returns a new CSR.

    The plan-free mirror of :func:`apply_update` — drivers running with
    the plan cache disabled evolve their reference matrix through this,
    so update streams stay meaningful on the rebuild-per-request
    baseline too.
    """
    if isinstance(delta, StructuralUpdate):
        return apply_structural_to_csr(csr, delta)[0]
    if isinstance(delta, ValueUpdate):
        if delta.n_entries == 0:
            return csr
        from ..formats.csr import CSRMatrix

        out = CSRMatrix(csr.shape, csr.indptr, csr.indices, csr.data.copy())
        sel = _dedupe_last(delta.rows * np.int64(csr.shape[1]) + delta.cols)
        pos = _lookup(out, delta.rows[sel], delta.cols[sel],
                      "value update (top-level)")
        out.data[pos] = np.asarray(delta.vals[sel]).astype(out.data.dtype)
        return out
    raise TypeError(f"unknown delta type {type(delta).__name__}")


# ----------------------------------------------------------------------
# Execution hooks — overlay application
# ----------------------------------------------------------------------
def apply_overlay_spmm(plan, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Overwrite dirty rows of *Y* with the overlay mini-plan's results
    (called by ``dasp_spmm_on_plan`` after the base kernels ran, and by
    the warp engine's ``dasp_spmv`` on one-column blocks)."""
    from .spmm import dasp_spmm_on_plan

    ov = plan.delta.overlay
    if ov.empty_rows.size:
        Y[ov.empty_rows] = 0
    if ov.mini is not None:
        Y[ov.rows] = dasp_spmm_on_plan(ov.mini, X)
    return Y


def has_overlay(plan) -> bool:
    state = getattr(plan, "delta", None)
    return state is not None and state.overlay is not None


# ----------------------------------------------------------------------
# Seeded delta generator (driver update streams, property tests)
# ----------------------------------------------------------------------
def random_delta(csr, rng: np.random.Generator, *, structural: bool = False,
                 n_entries: int = 8, insert_frac: float = 0.5,
                 scale: float = 1.0):
    """Draw a seeded delta against *csr*'s current pattern.

    Value deltas pick existing entries; structural deltas mix deletes of
    existing entries with inserts at random coordinates (an insert may
    collide with an existing entry — that is a legal upsert).  Values
    are drawn away from zero so sign-of-zero artifacts never enter the
    bitwise gates.
    """
    m, n = csr.shape
    nnz = int(csr.indptr[-1])

    def _vals(size):
        v = rng.standard_normal(size) * scale
        return np.where(v == 0.0, scale, v)

    def _existing(size):
        if nnz == 0 or size == 0:
            e = np.zeros(0, dtype=np.int64)
        else:
            e = rng.choice(nnz, size=min(size, nnz), replace=False)
        rows = np.searchsorted(csr.indptr, e, side="right").astype(np.int64) - 1
        cols = csr.indices[e].astype(np.int64)
        return rows, cols

    if not structural:
        rows, cols = _existing(n_entries)
        return ValueUpdate(rows=rows, cols=cols, vals=_vals(rows.size))

    n_ins = int(round(n_entries * insert_frac))
    n_del = max(0, n_entries - n_ins)
    drows, dcols = _existing(n_del)
    irows = rng.integers(0, m, size=n_ins).astype(np.int64)
    icols = rng.integers(0, n, size=n_ins).astype(np.int64)
    return StructuralUpdate(insert_rows=irows, insert_cols=icols,
                            insert_vals=_vals(n_ins),
                            delete_rows=drows, delete_cols=dcols)


# ----------------------------------------------------------------------
# Serialization — CRC-framed records of the plan store's delta log
# ----------------------------------------------------------------------
_KIND_VALUE, _KIND_STRUCTURAL = 0, 1


def delta_to_arrays(delta) -> dict:
    """Flatten a delta into named arrays (the store frames these as one
    record of the fingerprint's delta log, see
    :func:`repro.store.artifact.encode_delta_frame`)."""
    if isinstance(delta, ValueUpdate):
        return {"kind": np.array([_KIND_VALUE], dtype=np.int64),
                "rows": delta.rows, "cols": delta.cols, "vals": delta.vals}
    if isinstance(delta, StructuralUpdate):
        return {"kind": np.array([_KIND_STRUCTURAL], dtype=np.int64),
                "ins_rows": delta.insert_rows, "ins_cols": delta.insert_cols,
                "ins_vals": delta.insert_vals,
                "del_rows": delta.delete_rows, "del_cols": delta.delete_cols}
    raise TypeError(f"unknown delta type {type(delta).__name__}")


def delta_from_arrays(arrays: dict):
    """Inverse of :func:`delta_to_arrays`."""
    kind = int(np.asarray(arrays["kind"])[0])
    if kind == _KIND_VALUE:
        return ValueUpdate(rows=arrays["rows"], cols=arrays["cols"],
                           vals=np.asarray(arrays["vals"]))
    if kind == _KIND_STRUCTURAL:
        return StructuralUpdate(
            insert_rows=arrays["ins_rows"], insert_cols=arrays["ins_cols"],
            insert_vals=np.asarray(arrays["ins_vals"]),
            delete_rows=arrays["del_rows"], delete_cols=arrays["del_cols"])
    raise DeltaError(f"unknown delta kind {kind}")
