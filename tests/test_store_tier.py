"""Tests for the two-tier plan cache (RAM registry over the disk store)
and warm-start serving.

Covers the tier contract: write-through on build, spill-on-evict,
load-before-build with the cost gate, load-through for plans over the
RAM budget (no more :class:`PlanTooLargeError` when a store is
configured), quarantine-and-rebuild on corruption, and end-to-end
server/driver warm starts with bitwise-identical results.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import DASPMatrix
from repro.obs import Obs, Tracer
from repro.resilience import PlanTooLargeError
from repro.serve import (
    PlanRegistry,
    SpMVRequest,
    SpMVServer,
    WorkloadConfig,
    matrix_fingerprint,
    plan_nbytes,
    run_workload,
)
from repro.store import (
    PlanStore,
    load_beats_rebuild,
    modeled_load_time,
    modeled_rebuild_time,
    read_header,
)

from .conftest import ROW_PROFILES, random_csr


def _mk_csr(seed: int, m=64, n=400, profile="medium"):
    rng = np.random.default_rng(seed)
    return random_csr(m, n, rng, row_len_sampler=ROW_PROFILES[profile])


@pytest.fixture
def store(tmp_path):
    return PlanStore(tmp_path / "store")


def test_registry_opens_pathlike_store(tmp_path):
    reg = PlanRegistry(store=tmp_path / "store")
    assert isinstance(reg.store, PlanStore)
    assert (tmp_path / "store" / "plans").is_dir()


def test_build_writes_through(store):
    reg = PlanRegistry(store=store)
    csr = _mk_csr(0)
    fp = matrix_fingerprint(csr)
    plan, source, load_s = reg.get_ex(csr, fingerprint=fp)
    assert source == "built" and load_s == 0.0
    assert fp in store  # write-through persisted the artifact
    assert store.snapshot()["writes"] == 1


def test_miss_loads_from_store_before_building(store):
    csr = _mk_csr(1)
    fp = matrix_fingerprint(csr)
    reg1 = PlanRegistry(store=store)
    built, _, _ = reg1.get_ex(csr, fingerprint=fp)
    # a fresh registry (fresh process) sharing the store loads, not builds
    reg2 = PlanRegistry(store=store)
    plan, source, load_s = reg2.get_ex(csr, fingerprint=fp)
    assert source == "store" and load_s > 0.0
    assert np.array_equal(plan.long_plan.val, built.long_plan.val)
    snap = reg2.snapshot()
    assert snap["store_loads"] == 1 and snap["misses"] == 1
    # now cached in RAM: next lookup is a pure RAM hit
    _, source, _ = reg2.get_ex(csr, fingerprint=fp)
    assert source == "ram"


def test_spill_on_evict_and_reload(tmp_path):
    csr_a, csr_b = _mk_csr(2), _mk_csr(3)
    plan_a = DASPMatrix.from_csr(csr_a)
    budget = plan_nbytes(plan_a) + 16  # room for ~one plan
    store = PlanStore(tmp_path / "store")
    reg = PlanRegistry(budget, store=store)
    fa, fb = matrix_fingerprint(csr_a), matrix_fingerprint(csr_b)
    reg.get_ex(csr_a, fingerprint=fa)
    reg.get_ex(csr_b, fingerprint=fb)  # evicts A from RAM
    assert reg.evictions == 1
    assert fa in store and fb in store
    # A comes back from disk, not a rebuild
    _, source, load_s = reg.get_ex(csr_a, fingerprint=fa)
    assert source == "store" and load_s > 0


def test_spill_counts_only_unpersisted(tmp_path, monkeypatch):
    """Eviction of a plan the store already holds is a no-op spill."""
    store = PlanStore(tmp_path / "store")
    csr_a, csr_b = _mk_csr(4), _mk_csr(5)
    plan_a = DASPMatrix.from_csr(csr_a)
    reg = PlanRegistry(plan_nbytes(plan_a) + 16, store=store)
    reg.get_ex(csr_a, fingerprint=matrix_fingerprint(csr_a))
    reg.get_ex(csr_b, fingerprint=matrix_fingerprint(csr_b))
    # write-through already persisted both; the eviction spilled nothing
    assert reg.snapshot()["spills"] == 0


def test_oversized_plan_load_through_with_store(store):
    """With a disk tier, a plan over the whole RAM budget is persisted
    and served load-through instead of raising PlanTooLargeError."""
    reg = PlanRegistry(1, store=store)  # 1-byte budget: nothing fits
    csr = _mk_csr(6)
    fp = matrix_fingerprint(csr)
    plan, source, _ = reg.get_ex(csr, fingerprint=fp)
    assert source == "built"
    assert len(reg) == 0          # never occupies RAM budget
    assert fp in store            # but is durable
    assert reg.snapshot()["oversized"] == 1
    # subsequent lookups serve it from disk every time
    plan2, source, load_s = reg.get_ex(csr, fingerprint=fp)
    assert source == "store" and len(reg) == 0
    assert np.array_equal(plan2.csr.data, plan.csr.data)


def test_oversized_plan_still_raises_without_store():
    """Regression: the hard error is unchanged when no store is given."""
    reg = PlanRegistry(1)
    with pytest.raises(PlanTooLargeError):
        reg.get(_mk_csr(7))
    assert len(reg) == 0


def test_corrupt_artifact_falls_back_to_build(store):
    csr = _mk_csr(8)
    fp = matrix_fingerprint(csr)
    PlanRegistry(store=store).get_ex(csr, fingerprint=fp)
    # corrupt the published artifact in place
    path = store.path_for(fp)
    header, payload_start = read_header(path)
    rec = next(r for r in header["arrays"] if r["nbytes"])
    blob = bytearray(path.read_bytes())
    blob[payload_start + int(rec["offset"])] ^= 0xFF
    path.write_bytes(bytes(blob))

    reg = PlanRegistry(store=store)
    plan, source, _ = reg.get_ex(csr, fingerprint=fp)
    assert source == "built"  # quarantined, then rebuilt — never crashed
    assert np.array_equal(plan.csr.data, csr.data)
    snap = store.snapshot()
    assert snap["load_failures"] == 1 and snap["quarantined"] == 1
    # the rebuild re-published a good artifact over the quarantined one
    assert fp in store
    store.verify(fp)


def test_warm_bypasses_gate_and_misses_nothing(store, monkeypatch):
    csr = _mk_csr(9)
    fp = matrix_fingerprint(csr)
    assert PlanRegistry(store=store).warm(fp) is None  # nothing stored yet
    PlanRegistry(store=store).get_ex(csr, fingerprint=fp)

    # make the gate reject every load: warm() must load anyway
    import repro.store.store as store_mod

    monkeypatch.setattr(store_mod, "load_beats_rebuild",
                        lambda header, device: False)
    reg = PlanRegistry(store=store)
    load_s = reg.warm(fp)
    assert load_s is not None and load_s > 0
    assert reg.misses == 0  # preloads never count as cache misses
    _, source, _ = reg.get_ex(csr, fingerprint=fp)
    assert source == "ram"
    # but an in-band miss respects the gate and rebuilds
    reg2 = PlanRegistry(store=store)
    _, source, _ = reg2.get_ex(csr, fingerprint=fp)
    assert source == "built"
    assert reg2.store.snapshot()["load_skipped"] == 1


def test_modeled_load_beats_rebuild_on_suite(store):
    """The economics the tier is built on: for most representative
    matrices the modeled load is cheaper than the modeled rebuild (a
    marginal loser here and there is fine — that is what the gate is
    for — but if loads mostly lose, warm starts are pointless)."""
    from repro.matrices import synthetic_collection

    wins = 0
    entries = synthetic_collection(10)
    for e in entries:
        csr = e.matrix()
        fp = matrix_fingerprint(csr)
        store.put(fp, DASPMatrix.from_csr(csr))
        header, _ = read_header(store.path_for(fp))
        load = modeled_load_time(header)
        rebuild = modeled_rebuild_time(header)
        # the gate is exactly the comparison, never out of sync with it
        assert load_beats_rebuild(header) == (load < rebuild)
        wins += load < rebuild
    assert wins >= 0.8 * len(entries), \
        f"loads won only {wins}/{len(entries)}"


# ----------------------------------------------------------------------
# SpMVServer warm start
# ----------------------------------------------------------------------
def _serve_one(server, csr, x):
    fp = server.register(csr)
    y = server.submit(SpMVRequest(fp, x)).result(timeout=10)
    return fp, y


def test_server_warm_start_roundtrip(tmp_path):
    csrs = [_mk_csr(20 + i, profile=p)
            for i, p in enumerate(("short", "medium", "mixed"))]
    xs = [np.random.default_rng(40 + i).uniform(-1, 1, c.shape[1])
          for i, c in enumerate(csrs)]
    store_dir = tmp_path / "store"

    with SpMVServer(workers=1, store=store_dir) as s1:
        cold = [_serve_one(s1, c, x)[1] for c, x in zip(csrs, xs)]
        assert s1.stats.store_writes == len(csrs)
        assert s1.stats.preprocess_s > 0

    with SpMVServer(workers=1, store=store_dir, warm_start=True) as s2:
        warm = [_serve_one(s2, c, x)[1] for c, x in zip(csrs, xs)]
        # every plan came off disk at register() time: no build ran,
        # and serving saw pure RAM hits
        assert s2.stats.store_loads == len(csrs)
        assert s2.registry.misses == 0
        assert s2.stats.store_load_modeled_s > 0
    for y_cold, y_warm in zip(cold, warm):
        assert np.array_equal(y_cold, y_warm)  # bitwise, not just close


def test_server_survives_corrupt_artifact(tmp_path):
    csr = _mk_csr(30)
    x = np.random.default_rng(0).uniform(-1, 1, csr.shape[1])
    store_dir = tmp_path / "store"
    with SpMVServer(workers=1, store=store_dir) as s1:
        fp, y_ref = _serve_one(s1, csr, x)
    # corrupt the artifact between runs
    store = PlanStore(store_dir)
    path = store.path_for(fp)
    header, payload_start = read_header(path)
    rec = next(r for r in header["arrays"] if r["nbytes"])
    blob = bytearray(path.read_bytes())
    blob[payload_start + int(rec["offset"])] ^= 0xFF
    path.write_bytes(bytes(blob))

    with SpMVServer(workers=1, store=store_dir, warm_start=True) as s2:
        fp2, y = _serve_one(s2, csr, x)
        assert fp2 == fp
        assert s2.stats.store_quarantined == 1
        assert s2.stats.n_failed == 0 and s2.stats.degraded_requests == 0
    assert np.array_equal(y, y_ref)  # rebuilt plan, identical numbers
    # quarantine holds the bad file + reason; plans/ was re-published
    assert (store_dir / "quarantine" / f"{fp}.daspz").exists()


def test_server_sharded_warm_start(tmp_path):
    csr = _mk_csr(31, m=128, profile="mixed")
    x = np.random.default_rng(1).uniform(-1, 1, csr.shape[1])
    store_dir = tmp_path / "store"
    with SpMVServer(workers=2, shards=2, store=store_dir) as s1:
        _, y_ref = _serve_one(s1, csr, x)
    with SpMVServer(workers=2, shards=2, store=store_dir,
                    warm_start=True) as s2:
        _, y = _serve_one(s2, csr, x)
        assert s2.stats.store_loads == 1
        plan = s2.registry.peek(matrix_fingerprint(csr))
        assert plan is not None and plan.n_shards == 2
    assert np.array_equal(y, y_ref)


# ----------------------------------------------------------------------
# virtual-time driver
# ----------------------------------------------------------------------
def test_driver_warm_start_same_numbers_less_preprocess(tmp_path):
    cfg = WorkloadConfig(n_requests=300, n_matrices=3, seed=11,
                        store=tmp_path / "store")
    cold = run_workload(cfg)
    assert cold.store_writes == 3 and cold.store_loads == 0
    warm = run_workload(WorkloadConfig(n_requests=300, n_matrices=3, seed=11,
                                       store=tmp_path / "store",
                                       warm_start=True))
    assert warm.store_loads == 3 and warm.store_writes == 0
    # identical traffic, identical modeled kernel time...
    assert warm.n_completed == cold.n_completed
    assert warm.device_busy_s == pytest.approx(cold.device_busy_s)
    # ...but the warm run replaced every rebuild with a cheaper load
    assert warm.preprocess_s < cold.preprocess_s
    assert warm.store_load_modeled_s == pytest.approx(warm.preprocess_s)


def test_driver_store_attribution_coverage(tmp_path):
    obs = Obs(tracer=Tracer(clock=lambda: 0.0))
    cfg = WorkloadConfig(n_requests=300, n_matrices=3, seed=11,
                         store=tmp_path / "store")
    run_workload(cfg)  # populate the store
    stats = run_workload(
        WorkloadConfig(n_requests=300, n_matrices=3, seed=11,
                       store=tmp_path / "store", warm_start=True), obs=obs)
    total = stats.device_busy_s + stats.preprocess_s
    att = obs.tracer.attribution(total)
    assert att["coverage"] >= 0.95
    assert att["phases"]["plan.load"] == pytest.approx(
        stats.store_load_modeled_s)


def test_stats_summary_mentions_store(tmp_path):
    cfg = WorkloadConfig(n_requests=200, n_matrices=2, seed=3,
                         store=tmp_path / "store")
    table = run_workload(cfg).summary_table()
    assert "store load / write / spill" in table
    # store-less runs keep the old table shape byte-for-byte
    assert "store" not in run_workload(
        WorkloadConfig(n_requests=200, n_matrices=2, seed=3)).summary_table()
