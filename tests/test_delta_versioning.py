"""MatrixVersion chain: registry updates, delta persistence, rollback.

The serving-side contract for dynamic matrices:

* ``PlanRegistry.update`` advances ``fp -> fp@v{n}`` by *patching*, and
  an unversioned lookup can never again observe a pre-update plan (the
  stale-version regression test);
* in-flight requests pinned to an old version keep draining against it
  untouched;
* ``PlanStore`` appends deltas to a CRC-framed log beside the artifact,
  replays them on load (including after a process restart), folds old
  records past the retention window, rolls back by truncating the log,
  and survives torn appends and corrupt records;
* all of it is *bitwise* equivalent to rebuilding from the updated CSR
  — including sharded plans and stored/reloaded plans.
"""

import numpy as np
import pytest

from repro.core import (
    DASPMatrix,
    StructuralUpdate,
    ValueUpdate,
    apply_structural_to_csr,
    apply_update,
    clone_for_patch,
    dasp_spmv,
    random_delta,
)
from repro.serve.plan_cache import PlanRegistry, matrix_fingerprint
from repro.shard import build_sharded_plan
from repro.store import (
    DELTA_RETAIN,
    ArtifactError,
    PlanStore,
    encode_delta_frame,
    read_delta_log,
    save_artifact,
)

from .conftest import ROW_PROFILES, random_csr
from .test_delta import apply_to_dense, from_dense, to_dense


@pytest.fixture
def matrix(rng):
    return random_csr(80, 400, rng, row_len_sampler=ROW_PROFILES["mixed"])


def evolve(csr, delta):
    """Reference CSR after *delta* (canonical sorted construction)."""
    dense = to_dense(csr)
    apply_to_dense(dense, delta)
    return from_dense(dense)


class TestRegistryVersionChain:
    def test_update_advances_and_matches_rebuild(self, matrix, rng, tmp_path):
        reg = PlanRegistry(store=PlanStore(tmp_path))
        fp = matrix_fingerprint(matrix)
        reg.get(matrix, fingerprint=fp)
        x = rng.standard_normal(matrix.shape[1])
        csr = matrix
        for i in range(1, 6):
            d = random_delta(csr, rng, structural=i % 2 == 0, n_entries=9)
            v, info, plan = reg.update(fp, d)
            assert v == i == reg.version_of(fp)
            csr = evolve(csr, d)
            assert np.array_equal(dasp_spmv(plan, x),
                                  dasp_spmv(DASPMatrix.from_csr(csr), x))

    def test_stale_version_never_served(self, matrix, rng):
        """Regression: after a StructuralUpdate advances the chain, an
        unversioned (current) read must never get the pre-update plan —
        not from RAM, not via peek, not via ``in``."""
        reg = PlanRegistry()  # RAM-only: the pre-update plan stays cached
        fp = matrix_fingerprint(matrix)
        old_plan, _ = reg.get(matrix, fingerprint=fp)
        d = random_delta(matrix, rng, structural=True, n_entries=10)
        v, _, new_plan = reg.update(fp, d)
        assert v == 1
        got, source, _ = reg.get_ex(None, fingerprint=fp)
        assert got is new_plan and source == "ram"
        assert reg.peek(fp) is new_plan
        # the old version is still addressable — but only explicitly
        assert reg.peek(fp + "@v0") is old_plan
        x = rng.standard_normal(matrix.shape[1])
        csr1 = evolve(matrix, d)
        assert np.array_equal(dasp_spmv(got, x),
                              dasp_spmv(DASPMatrix.from_csr(csr1), x))

    def test_old_version_drains_unmodified(self, matrix, rng):
        reg = PlanRegistry()
        fp = matrix_fingerprint(matrix)
        old_plan, _ = reg.get(matrix, fingerprint=fp)
        x = rng.standard_normal(matrix.shape[1])
        y0 = dasp_spmv(old_plan, x)
        reg.update(fp, random_delta(matrix, rng, n_entries=25))
        drained, source, _ = reg.get_ex(None, fingerprint=fp + "@v0")
        assert source == "ram"
        assert np.array_equal(dasp_spmv(drained, x), y0), \
            "value update leaked into the drained pre-update plan"

    def test_only_previous_version_retained(self, matrix, rng):
        reg = PlanRegistry()
        fp = matrix_fingerprint(matrix)
        reg.get(matrix, fingerprint=fp)
        csr = matrix
        for _ in range(3):
            d = random_delta(csr, rng, n_entries=5)
            reg.update(fp, d)
            csr = evolve(csr, d)
        assert reg.peek(fp + "@v3") is not None
        assert reg.peek(fp + "@v2") is not None   # drain window
        assert reg.peek(fp + "@v1") is None       # retired
        assert reg.peek(fp + "@v0") is None

    def test_update_requires_plan_or_csr(self, matrix, rng):
        reg = PlanRegistry()  # nothing cached, no store
        fp = matrix_fingerprint(matrix)
        d = random_delta(matrix, rng, n_entries=3)
        with pytest.raises(KeyError):
            reg.update(fp, d)
        v, info, plan = reg.update(fp, d, csr=matrix)  # rebuild fallback
        assert v == 1 and plan is not None

    def test_counters(self, matrix, rng):
        reg = PlanRegistry()
        fp = matrix_fingerprint(matrix)
        reg.get(matrix, fingerprint=fp)
        csr = matrix
        for structural in (False, True, False):
            d = random_delta(csr, rng, structural=structural, n_entries=6)
            reg.update(fp, d)
            csr = evolve(csr, d)
        assert reg.obs.counter("delta.value_total").value == 2
        assert reg.obs.counter("delta.structural_total").value == 1
        patch = reg.obs.counter("delta.patch_modeled_seconds_total").value
        rebuild = reg.obs.counter("delta.rebuild_modeled_seconds_total").value
        assert 0 < patch < rebuild


class TestStoreDeltaPersistence:
    def test_replay_on_load_after_restart(self, matrix, rng, tmp_path):
        reg = PlanRegistry(store=PlanStore(tmp_path))
        fp = matrix_fingerprint(matrix)
        reg.get(matrix, fingerprint=fp)
        x = rng.standard_normal(matrix.shape[1])
        csr = matrix
        for i in range(4):
            d = random_delta(csr, rng, structural=i % 2 == 1, n_entries=8)
            reg.update(fp, d)
            csr = evolve(csr, d)
        # "restart": a fresh registry over the same store directory
        reg2 = PlanRegistry(store=PlanStore(tmp_path))
        plan, source, load_s = reg2.get_ex(None, fingerprint=fp,
                                           load_only=True)
        assert source == "store" and load_s > 0
        assert reg2.version_of(fp) == 4, "store version not adopted"
        assert np.array_equal(dasp_spmv(plan, x),
                              dasp_spmv(DASPMatrix.from_csr(csr), x)), \
            "replayed plan != rebuild of updated CSR"

    def test_retention_folds_old_deltas(self, matrix, rng, tmp_path):
        store = PlanStore(tmp_path)
        reg = PlanRegistry(store=store)
        fp = matrix_fingerprint(matrix)
        reg.get(matrix, fingerprint=fp)
        csr = matrix
        n_updates = DELTA_RETAIN + 4
        for _ in range(n_updates):
            d = random_delta(csr, rng, n_entries=5)
            reg.update(fp, d)
            csr = evolve(csr, d)
        base, versions = store.delta_state(fp)
        assert len(versions) == DELTA_RETAIN
        assert base == n_updates - DELTA_RETAIN
        assert store.current_version(fp) == n_updates
        assert store.snapshot()["delta_folded"] == n_updates - DELTA_RETAIN

    def test_rollback_window(self, matrix, rng, tmp_path):
        store = PlanStore(tmp_path)
        reg = PlanRegistry(store=store)
        fp = matrix_fingerprint(matrix)
        reg.get(matrix, fingerprint=fp)
        x = rng.standard_normal(matrix.shape[1])
        csr = matrix
        history = [csr]
        for i in range(5):
            d = random_delta(csr, rng, structural=i == 2, n_entries=6)
            reg.update(fp, d)
            csr = evolve(csr, d)
            history.append(csr)
        plan = reg.rollback(fp, 3)
        assert plan is not None and reg.version_of(fp) == 3
        assert np.array_equal(dasp_spmv(plan, x),
                              dasp_spmv(DASPMatrix.from_csr(history[3]), x))
        # chain continues contiguously after the rollback
        d = random_delta(history[3], rng, n_entries=4)
        v, _, plan4 = reg.update(fp, d)
        assert v == 4
        ref = DASPMatrix.from_csr(evolve(history[3], d))
        assert np.array_equal(dasp_spmv(plan4, x), dasp_spmv(ref, x))
        # outside the retained window -> refused, chain unchanged
        assert reg.rollback(fp, 99) is None
        assert reg.version_of(fp) == 4
        # the rollback truncated the log: v4 is the post-rollback delta,
        # and nothing of the rolled-back chain is left on disk
        log = store.log_path_for(fp)
        records, ends = read_delta_log(log)
        assert [v for v, _ in records] == [1, 2, 3, 4]
        assert ends[-1] == log.stat().st_size
        assert store.delta_state(fp) == (0, [1, 2, 3, 4])

    def test_seed_plan_with_overlay_consolidated(self, matrix, rng,
                                                 tmp_path):
        """A seed plan carrying an overlay must not be persisted as-is:
        the artifact keeps only slabs+CSR, so the overlay is compacted
        into them first."""
        store = PlanStore(tmp_path)
        plan = DASPMatrix.from_csr(matrix)
        d1 = random_delta(matrix, rng, structural=True, n_entries=10)
        plan, _ = apply_update(plan, d1, auto_compact=False)
        csr1 = evolve(matrix, d1)
        fp = matrix_fingerprint(matrix)
        d2 = random_delta(csr1, rng, n_entries=5)
        store.put_delta(fp, 2, d2, seed_plan=plan)
        got = store.load(fp, gate=False)
        assert got is not None
        x = rng.standard_normal(matrix.shape[1])
        ref = DASPMatrix.from_csr(evolve(csr1, d2))
        assert np.array_equal(dasp_spmv(got[0], x), dasp_spmv(ref, x))

    def test_non_contiguous_version_rejected(self, matrix, rng, tmp_path):
        from repro._util import ValidationError

        store = PlanStore(tmp_path)
        fp = matrix_fingerprint(matrix)
        plan = DASPMatrix.from_csr(matrix)
        d = random_delta(matrix, rng, n_entries=3)
        store.put_delta(fp, 1, d, seed_plan=plan)
        with pytest.raises(ValidationError):
            store.put_delta(fp, 5, random_delta(evolve(matrix, d), rng,
                                                n_entries=3))

    def test_sharded_plan_delta_roundtrip(self, rng, tmp_path):
        """Acceptance: bitwise equivalence holds for sharded plans that
        go through the store's persist/replay cycle."""
        csr = random_csr(120, 500, rng, row_len_sampler=ROW_PROFILES["skewed"])
        store = PlanStore(tmp_path)
        plan = build_sharded_plan(csr, 3)
        fp = matrix_fingerprint(csr)
        cur = csr
        for i in range(1, 4):
            d = random_delta(cur, rng, structural=i % 2 == 0, n_entries=8)
            seed = plan if i == 1 else None  # the *pre*-update plan seeds v0
            work = (clone_for_patch(plan) if isinstance(d, ValueUpdate)
                    else plan)
            plan, _ = apply_update(work, d, auto_compact=False)
            store.put_delta(fp, i, d, seed_plan=seed)
            cur = evolve(cur, d)
        # seed published at v0 then deltas replayed on load
        got = store.load(fp, gate=False)
        assert got is not None
        loaded = got[0]
        assert hasattr(loaded, "shards")
        x = rng.standard_normal(500)
        ref = build_sharded_plan(cur, 3)
        y_ref = np.concatenate([dasp_spmv(s.dasp, x) for s in ref.shards])
        y_got = np.concatenate([dasp_spmv(s.dasp, x) for s in loaded.shards])
        assert np.array_equal(y_got, y_ref)


def _stored_chain(matrix, rng, tmp_path, n=3, **kw):
    """A store holding *matrix*'s v0 artifact plus *n* logged deltas;
    returns ``(store, fp, [csr_v0 .. csr_vn], [d1 .. dn])``."""
    store = PlanStore(tmp_path, **kw)
    fp = matrix_fingerprint(matrix)
    store.put(fp, DASPMatrix.from_csr(matrix))
    csrs, deltas = [matrix], []
    for v in range(1, n + 1):
        d = random_delta(csrs[-1], rng, structural=v == 2, n_entries=6)
        assert store.put_delta(fp, v, d) is not None
        csrs.append(evolve(csrs[-1], d))
        deltas.append(d)
    return store, fp, csrs, deltas


def _assert_loads_as(store, fp, csr, rng):
    got = store.load(fp, gate=False)
    assert got is not None
    x = rng.standard_normal(csr.shape[1])
    assert np.array_equal(dasp_spmv(got[0], x),
                          dasp_spmv(DASPMatrix.from_csr(csr), x))


class TestDeltaLog:
    """The append-only delta log: an O(delta) write per version, and
    every fault leaves either a consistent version or a quarantine."""

    def test_append_leaves_artifact_untouched(self, matrix, rng, tmp_path):
        store, fp, csrs, _ = _stored_chain(matrix, rng, tmp_path, n=1)
        artifact = store.path_for(fp).read_bytes()
        d = random_delta(csrs[-1], rng, n_entries=4)
        store.put_delta(fp, 2, d)
        assert store.path_for(fp).read_bytes() == artifact
        assert [v for v, _ in read_delta_log(store.log_path_for(fp))[0]] \
            == [1, 2]
        _assert_loads_as(store, fp, evolve(csrs[-1], d), rng)

    @pytest.mark.parametrize("cut", [1, 23, 24, 40, -1])
    def test_torn_final_frame(self, matrix, rng, tmp_path, cut):
        """A crash mid-append: the torn version stays invisible, and the
        next put_delta continues from the last good record."""
        store, fp, csrs, _ = _stored_chain(matrix, rng, tmp_path)
        d4 = random_delta(csrs[-1], rng, n_entries=5)
        frame = encode_delta_frame(4, {"kind": np.array([0]),
                                       "rows": np.arange(9)})
        with open(store.log_path_for(fp), "ab") as f:
            f.write(frame[:cut])
        assert store.current_version(fp) == 3
        _assert_loads_as(store, fp, csrs[3], rng)
        assert store.put_delta(fp, 4, d4) is not None
        assert store.current_version(fp) == 4
        _assert_loads_as(store, fp, evolve(csrs[3], d4), rng)
        assert store.snapshot()["quarantined"] == 0

    @pytest.mark.parametrize("where", ["middle_body", "middle_magic",
                                       "middle_length", "middle_version"])
    def test_corrupt_middle_record_quarantines(self, matrix, rng, tmp_path,
                                               where):
        store, fp, _, _ = _stored_chain(matrix, rng, tmp_path)
        log = store.log_path_for(fp)
        _, ends = read_delta_log(log)
        blob = bytearray(log.read_bytes())
        start = ends[0]  # record v2
        at = {"middle_body": (start + ends[1]) // 2,
              "middle_magic": start,
              "middle_length": start + 6,  # would read as a torn tail
              "middle_version": start + 8}[where]
        blob[at] ^= 0x7F
        log.write_bytes(bytes(blob))
        with pytest.raises(ArtifactError):
            store.verify(fp)
        assert store.load(fp, gate=False) is None
        assert not store.path_for(fp).exists() and not log.exists()
        q = store.quarantine_dir
        assert (q / store.path_for(fp).name).exists()
        assert (q / log.name).exists()
        assert store.snapshot()["quarantined"] == 1

    @pytest.mark.parametrize("op", ["gc", "delete", "quarantine"])
    def test_removal_leaves_no_orphan_log(self, matrix, rng, tmp_path, op):
        store, fp, _, _ = _stored_chain(matrix, rng, tmp_path)
        {"gc": lambda: store.gc(capacity_bytes=0),
         "delete": lambda: store.delete(fp),
         "quarantine": lambda: store.quarantine(fp, "test")}[op]()
        assert list(store.plans_dir.iterdir()) == []
        assert store.nbytes() == 0
        assert store.current_version(fp) is None

    def test_put_drops_stale_log(self, matrix, rng, tmp_path):
        """Publishing a plan over a versioned fingerprint starts a fresh
        chain: the old log is never replayed onto the new payload."""
        store, fp, _, _ = _stored_chain(matrix, rng, tmp_path)
        store.put(fp, DASPMatrix.from_csr(matrix))
        assert not store.log_path_for(fp).exists()
        assert store.current_version(fp) == 0
        assert store.delta_state(fp) == (0, [])
        _assert_loads_as(store, fp, matrix, rng)

    def test_bytes_count_the_log(self, matrix, rng, tmp_path):
        store, fp, _, _ = _stored_chain(matrix, rng, tmp_path)
        on_disk = (store.path_for(fp).stat().st_size
                   + store.log_path_for(fp).stat().st_size)
        assert store.nbytes() == on_disk
        assert store.obs.gauge("store.bytes").value == on_disk
        assert store.snapshot()["bytes"] == on_disk

    def test_modeled_load_counts_log_bytes(self, matrix, rng, tmp_path):
        from repro.store import modeled_load_time, read_header

        store, fp, _, _ = _stored_chain(matrix, rng, tmp_path, n=1)
        header, _ = read_header(store.path_for(fp))
        log_bytes = store.log_path_for(fp).stat().st_size
        _, load_s = store.load(fp, gate=False)
        assert load_s > modeled_load_time(header, store.device,
                                          log_bytes=log_bytes)
        assert modeled_load_time(header, store.device, log_bytes=log_bytes) \
            > modeled_load_time(header, store.device)

    def test_fold_rewrites_artifact_then_log(self, matrix, rng, tmp_path):
        """A fold publishes the artifact at the new base first; a crash
        before the log rename leaves records at or below the base, which
        are skipped rather than replayed twice."""
        store, fp, csrs, _ = _stored_chain(matrix, rng, tmp_path,
                                           n=DELTA_RETAIN)
        stale_log = store.log_path_for(fp).read_bytes()
        d = random_delta(csrs[-1], rng, n_entries=5)
        store.put_delta(fp, DELTA_RETAIN + 1, d)
        assert store.delta_state(fp) == (1, list(range(2, DELTA_RETAIN + 2)))
        _assert_loads_as(store, fp, evolve(csrs[-1], d), rng)
        # simulate the crash window: new artifact, pre-fold log
        store.log_path_for(fp).write_bytes(stale_log)
        assert store.delta_state(fp) == (1, list(range(2, DELTA_RETAIN + 1)))
        _assert_loads_as(store, fp, csrs[-1], rng)

    def test_log_gap_quarantines(self, matrix, rng, tmp_path):
        store, fp, _, _ = _stored_chain(matrix, rng, tmp_path, n=1)
        with open(store.log_path_for(fp), "ab") as f:
            f.write(encode_delta_frame(5, {"kind": np.array([0])}))
        assert store.current_version(fp) is None
        assert store.snapshot()["quarantined"] == 1


def _write_parent_layout(path, plan, fp, deltas):
    """An artifact in the retired layout: the base plan plus
    ``aux.delta.base`` and ``aux.delta.{v}.*`` records.  The writer
    refuses those names, so they are written under a same-length
    placeholder prefix and renamed in place (the header is JSON and no
    CRC covers a record name)."""
    from repro.core import delta_to_arrays

    aux = {"zelta.base": np.array([0], dtype=np.int64)}
    for v, d in enumerate(deltas, start=1):
        aux.update({f"zelta.{v}.{n}": a
                    for n, a in delta_to_arrays(d).items()})
    save_artifact(path, plan, fingerprint=fp, aux=aux)
    path.write_bytes(path.read_bytes().replace(b'"aux.zelta.',
                                               b'"aux.delta.')
                     .replace(b'"zelta.', b'"delta.'))


class TestRetiredLayout:
    def test_writer_refuses_delta_aux(self, matrix, tmp_path):
        with pytest.raises(ArtifactError):
            save_artifact(tmp_path / "a.daspz", DASPMatrix.from_csr(matrix),
                          aux={"delta.base": np.array([0])})

    def test_old_layout_quarantined_then_rebuilt(self, matrix, rng,
                                                 tmp_path):
        """Regression: an artifact with ``aux.delta.*`` records must not
        be served at its base version (its deltas would be silently
        dropped): it is quarantined and the plan rebuilt."""
        store = PlanStore(tmp_path)
        fp = matrix_fingerprint(matrix)
        d = random_delta(matrix, rng, n_entries=6)
        _write_parent_layout(store.path_for(fp), DASPMatrix.from_csr(matrix),
                             fp, [d])
        header_names = store.path_for(fp).read_bytes()[:4096]
        assert b'"aux.delta.1.kind"' in header_names
        assert b'"delta.base"' in header_names
        assert store.current_version(fp) is None
        assert store.snapshot()["quarantined"] == 1
        reason = (store.quarantine_dir / f"{fp}.reason").read_text()
        assert "retired" in reason
        reg = PlanRegistry(store=store)
        plan, source, _ = reg.get_ex(matrix, fingerprint=fp)
        assert source == "built" and reg.version_of(fp) == 0
        # the rebuilt plan is re-published in the current layout
        assert store.current_version(fp) == 0
        x = rng.standard_normal(matrix.shape[1])
        assert np.array_equal(dasp_spmv(store.load(fp, gate=False)[0], x),
                              dasp_spmv(DASPMatrix.from_csr(matrix), x))

    @pytest.mark.parametrize("reader", ["load", "load_aux", "peek_header",
                                        "delta_state", "put_delta"])
    def test_every_reader_rejects_it(self, matrix, rng, tmp_path, reader):
        store = PlanStore(tmp_path)
        fp = matrix_fingerprint(matrix)
        d = random_delta(matrix, rng, n_entries=6)
        _write_parent_layout(store.path_for(fp), DASPMatrix.from_csr(matrix),
                             fp, [d])
        call = {"load": lambda: store.load(fp, gate=False),
                "load_aux": lambda: store.load_aux(fp),
                "peek_header": lambda: store.peek_header(fp),
                "delta_state": lambda: store.delta_state(fp),
                "put_delta": lambda: store.put_delta(
                    fp, 2, random_delta(evolve(matrix, d), rng,
                                        n_entries=3))}[reader]
        assert call() is None
        assert store.snapshot()["quarantined"] == 1
        assert not store.contains(fp)
