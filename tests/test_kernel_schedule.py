"""The kernel schedule each category plan memoizes (``<plan>.schedule``).

A schedule is everything a category kernel derives from its plan's slab
layout alone (fold orders, tail slots, output rows).  It is built on the
plan's first run and lives as long as the layout:

* a value patch shares it, also when the patch copies a slab into a new
  category plan (``dataclasses.replace`` carries the memo);
* a structural patch shares it (the category plans are kept; dirty rows
  go to the overlay mini-plan, which has its own);
* a compaction, a store load, an overlay rebuild and a permuted plan get
  a fresh, empty one.

Along any chain of those, every output must stay bitwise the independent
oracle of ``tests/test_core_kernel_oracle.py``.
"""

import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (DASPMatrix, apply_update, clone_for_patch,
                        consolidate_plan, dasp_spmm, dasp_spmv, random_delta)
from repro.core.spmm import dasp_spmm_on_plan
from repro.core.spmm_block import BlockPlan
from repro.obs import Obs
from repro.shard import build_sharded_plan
from repro.shard.execute import run_bands
from repro.store.artifact import load_artifact, save_artifact
from tests.conftest import ROW_PROFILES, random_csr
from tests.test_core_kernel_oracle import assert_same_bytes, oracle_spmv

CATEGORIES = ("long_plan", "medium_plan", "short_plan")
WIDTHS = (1, 2, 8, 13, 17)


def _memos(plan) -> list:
    """Each band's category-plan memos, band by band."""
    return [getattr(d, c).schedule for _, _, d in plan.bands()
            for c in CATEGORIES]


def _overlay_memos(plan) -> list:
    out = []
    for _, _, d in plan.bands():
        ov = d.delta.overlay if d.delta is not None else None
        if ov is not None and ov.mini is not None:
            out += _memos(ov.mini)
    return out


def _run(plan, X):
    """``Y = A @ X`` band by band (a plain plan is one band)."""
    return run_bands(plan, lambda _, d: dasp_spmm_on_plan(d, X), obs=Obs())


def _check_oracle(plan, X):
    Y = _run(plan, X)
    for j in range(X.shape[1]):
        want = np.concatenate([oracle_spmv(d, X[:, j])
                               for _, _, d in plan.bands()])
        assert_same_bytes(Y[:, j], want)


def _assert_fresh(memos, seen):
    """*memos* are new and empty: no memo of an earlier layout."""
    for memo in memos:
        assert memo.schedule is None
        assert all(memo is not old for old in seen)


def _x_block(rng, n, k):
    X = rng.uniform(-1, 1, (n, k))
    X[rng.random((n, k)) < 0.2] = 0.0
    X[rng.random((n, k)) < 0.5] *= -1          # -0.0 entries too
    return X


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data(), profile=st.sampled_from(sorted(ROW_PROFILES)),
       shards=st.sampled_from([0, 2, 3]), k=st.sampled_from(WIDTHS),
       seed=st.integers(0, 2**31 - 1))
def test_schedule_lifetime_along_a_delta_chain(data, profile, shards, k, seed):
    rng = np.random.default_rng(seed)
    m = data.draw(st.integers(8, 70))
    n = data.draw(st.integers(8, 60) | st.integers(257, 600))
    csr = random_csr(m, n, rng, row_len_sampler=ROW_PROFILES[profile])
    plan = (build_sharded_plan(csr, shards) if shards
            else DASPMatrix.from_csr(csr))
    X = _x_block(rng, n, k)
    seen = list(_memos(plan))
    _assert_fresh(seen, [])
    _check_oracle(plan, X)
    loaded = False
    with tempfile.TemporaryDirectory() as tmp:
        for step in range(data.draw(st.integers(1, 5))):
            kind = data.draw(st.sampled_from(
                ["value", "value_in_place", "structural", "compacting",
                 "compact", "load", "permuted"]))
            old_bands = [d for _, _, d in plan.bands()]
            overlays = _overlay_memos(plan)
            if kind == "load":
                path = Path(tmp) / f"p{step}.daspz"
                save_artifact(path, consolidate_plan(plan))
                plan, _ = load_artifact(path)
                loaded = True
                _assert_fresh(_memos(plan), seen)
                old_bands = []
            elif kind == "permuted":
                for d in old_bands:
                    bp = BlockPlan(d)
                    perm = bp.permuted(d)
                    if not bp.reorder.is_identity:
                        _assert_fresh(_memos(perm), seen)
                    _check_oracle(perm, X)
                    seen += _memos(perm)
            elif kind == "compact":
                plan = consolidate_plan(plan)
            else:
                structural = kind in ("structural", "compacting")
                delta = random_delta(plan.csr, rng, structural=structural,
                                     n_entries=data.draw(st.integers(1, 12)))
                # a loaded plan's slabs are read-only maps: patch a clone
                in_place = kind == "value_in_place" and not loaded
                work = plan if structural or in_place else clone_for_patch(plan)
                plan, _ = apply_update(
                    work, delta,
                    compact_threshold=0.0 if kind == "compacting" else 10.0)
            for old, (_, _, d) in zip(old_bands, plan.bands()):
                if d is not old and d.delta is None:
                    # re-packed: a compaction, forced or by its debt
                    _assert_fresh(_memos(d), seen)
                else:
                    # same layout: a value patch's clone, or copy of a
                    # slab, and a structural patch keep the memos
                    assert all(a is b for a, b in zip(_memos(d), _memos(old)))
            # an overlay this step rebuilt is a fresh mini-plan
            _assert_fresh([o for o in _overlay_memos(plan)
                           if all(o is not p for p in overlays)], seen)
            seen += _memos(plan) + _overlay_memos(plan)
            _check_oracle(plan, X)


def _schedule_arrays(schedule) -> list:
    """Every ndarray a schedule holds, in field order."""
    if isinstance(schedule, np.ndarray):
        return [schedule]
    if isinstance(schedule, tuple):
        return [a for f in schedule for a in _schedule_arrays(f)]
    return []


def test_a_fresh_plan_builds_its_schedule_once(rng):
    """However many calls, at whatever widths: one schedule per
    category plan, the same arrays by identity, never written."""
    csr = random_csr(160, 700, rng, row_len_sampler=ROW_PROFILES["mixed"])
    plan = DASPMatrix.from_csr(csr)
    assert plan.long_plan.n_rows and plan.medium_plan.irreg_nnz \
        and plan.short_plan.n_rows
    memos = _memos(plan)
    assert all(m.schedule is None for m in memos)
    X = _x_block(rng, 700, 40)
    dasp_spmv(plan, X[:, 0])
    first = [m.schedule for m in memos]
    arrays = [_schedule_arrays(s) for s in first]
    snapshot = [[a.copy() for a in arrs] for arrs in arrays]
    assert all(s is not None for s in first) and all(arrays)
    for k in (1, 2, 8, 13, 17, 40, 1):
        dasp_spmm(plan, X[:, :k])
        dasp_spmv(plan, X[:, k - 1])
        for memo, s, arrs, snap in zip(memos, first, arrays, snapshot):
            assert memo.schedule is s
            now = _schedule_arrays(memo.schedule)
            assert len(now) == len(arrs)
            assert all(a is b for a, b in zip(now, arrs))
            assert all(np.array_equal(a, b) for a, b in zip(now, snap))


def test_first_run_from_two_threads(rng):
    """Threads race a fresh plan's first run at k = 1 and k = 8, many
    times over, with a short switch interval: every result is bitwise
    the oracle and nothing raises.  Four threads, two per width, so
    there are more than cores on a 2-vCPU host."""
    csr = random_csr(120, 500, rng, row_len_sampler=ROW_PROFILES["mixed"])
    X = _x_block(rng, 500, 8)
    ref = DASPMatrix.from_csr(csr)
    want = np.stack([oracle_spmv(ref, X[:, j]) for j in range(8)], axis=1)
    widths = (1, 8, 1, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(30):
            plan = DASPMatrix.from_csr(csr)
            barrier = threading.Barrier(len(widths))
            results: list = [[] for _ in widths]
            errors: list = []

            def worker(i):
                try:
                    barrier.wait(timeout=30)
                    for _ in range(3):
                        results[i].append(dasp_spmm(plan, X[:, :widths[i]]))
                except Exception as exc:  # noqa: BLE001 — asserted below
                    errors.append(exc)

            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(len(widths))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert not errors
            for k, outs in zip(widths, results):
                assert len(outs) == 3
                for Y in outs:
                    assert_same_bytes(Y, np.ascontiguousarray(want[:, :k]))
    finally:
        sys.setswitchinterval(interval)
