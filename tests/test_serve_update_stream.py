"""Update-stream serving: mixed delta:read traffic through the drivers.

The dynamic-matrix serving contract, end to end:

* the batcher's **version fence** — a batch is homogeneous in matrix
  version, so requests admitted before an update never share an SpMM
  with requests admitted after it;
* ``update_mix`` traffic is bit-deterministic (dedicated ``seed + 17``
  stream) and ``update_mix=0`` leaves every pre-delta counter at zero;
* the cluster broadcasts each delta to every replica (version chains in
  lockstep, the home replica persisting to the shared store) and keeps
  N=1 exact parity with the single-replica driver;
* updates interleaved with chaos windows and deadlines lose no futures.
"""

import numpy as np
import pytest

from repro.cluster.driver import ClusterConfig, run_cluster_workload
from repro.matrices import synthetic_collection
from repro.serve.batcher import RequestBatcher
from repro.serve.driver import WorkloadConfig, run_workload
from repro.serve.request import SpMVRequest
from repro.store import PlanStore


def _entries(n=3, seed=5):
    return synthetic_collection(n, seed=seed)


def _cfg(**kw):
    kw.setdefault("entries", _entries())
    kw.setdefault("n_matrices", 3)
    kw.setdefault("n_requests", 500)
    kw.setdefault("seed", 11)
    return WorkloadConfig(**kw)


class TestBatcherVersionFence:
    def _req(self, i, version, fp="m"):
        return SpMVRequest(fingerprint=fp, x=np.zeros(4), req_id=i,
                           arrival_s=0.0, version=version)

    def test_version_change_flushes_pending_group(self):
        b = RequestBatcher(max_batch=8)
        for i in range(3):
            assert b.add(self._req(i, 0), now=0.0) is None
        fence = b.add(self._req(3, 1), now=1.0)
        assert fence is not None
        assert [r.req_id for r in fence.requests] == [0, 1, 2]
        assert all(r.version == 0 for r in fence.requests)
        # the new-version request starts a fresh group
        assert b.pending_count("m") == 1
        nxt = b.flush("m", now=2.0)
        assert [r.req_id for r in nxt.requests] == [3]
        assert nxt.requests[0].version == 1

    def test_same_version_never_fences(self):
        b = RequestBatcher(max_batch=4)
        for i in range(3):
            assert b.add(self._req(i, 2), now=0.0) is None
        full = b.add(self._req(3, 2), now=0.0)
        assert full is not None and len(full.requests) == 4

    def test_fence_per_fingerprint(self):
        b = RequestBatcher(max_batch=8)
        b.add(self._req(0, 0, fp="a"), now=0.0)
        b.add(self._req(1, 0, fp="b"), now=0.0)
        fence = b.add(self._req(2, 1, fp="a"), now=0.0)
        assert fence is not None and fence.fingerprint == "a"
        assert b.pending_count("b") == 1  # other matrix untouched


class TestSingleDriverUpdateStream:
    def test_deterministic(self):
        kw = dict(update_mix=0.12, structural_frac=0.4)
        a = run_workload(_cfg(**kw))
        b = run_workload(_cfg(**kw))
        assert a.n_completed == b.n_completed
        assert np.array_equal(a.latencies_s, b.latencies_s)
        assert a.delta_value_updates == b.delta_value_updates
        assert a.delta_structural_updates == b.delta_structural_updates
        assert a.delta_patch_modeled_s == b.delta_patch_modeled_s

    def test_mix_zero_has_no_delta_traffic(self):
        stats = run_workload(_cfg())
        assert stats.delta_value_updates == 0
        assert stats.delta_structural_updates == 0
        assert stats.delta_patch_modeled_s == 0.0
        assert stats.n_requests == 500  # every slot was a read

    def test_updates_consume_arrival_slots(self):
        stats = run_workload(_cfg(update_mix=0.2, structural_frac=0.3))
        n_updates = (stats.delta_value_updates
                     + stats.delta_structural_updates)
        assert n_updates > 0
        assert stats.n_requests + n_updates == 500
        assert stats.n_completed == stats.n_requests  # nothing lost

    def test_patch_cheaper_than_rebuild(self):
        stats = run_workload(_cfg(update_mix=0.1, structural_frac=0.3))
        assert 0 < stats.delta_patch_modeled_s < stats.delta_rebuild_modeled_s

    def test_no_cache_baseline_evolves_csr(self):
        # plan_cache=False has no plan to patch: the reference CSR
        # evolves and every batch rebuilds against the updated matrix
        stats = run_workload(_cfg(update_mix=0.15, structural_frac=0.5,
                                  plan_cache=False, n_requests=300))
        n_updates = (stats.delta_value_updates
                     + stats.delta_structural_updates)
        assert n_updates > 0
        assert stats.n_completed == stats.n_requests
        assert stats.delta_patch_modeled_s == 0.0  # nothing was patched

    def test_sharded_update_stream(self):
        stats = run_workload(_cfg(update_mix=0.1, structural_frac=0.4,
                                  shards=2, n_requests=300))
        assert (stats.delta_value_updates
                + stats.delta_structural_updates) > 0
        assert stats.n_completed == stats.n_requests

    def test_sharded_chain_stays_sharded(self, tmp_path):
        """A delta that reaches a matrix before its first read rebuilds
        it with the run's shard policy: every version served, and every
        artifact persisted, is a 4-band plan."""
        from repro.shard import ShardedPlan

        stats = run_workload(_cfg(update_mix=0.12, structural_frac=0.3,
                                  shards=4, n_requests=400, store=tmp_path))
        assert stats.n_completed == stats.n_requests
        store = PlanStore(tmp_path)
        assert len(store.fingerprints()) == 3
        for fp in store.fingerprints():
            plan = store.load(fp, gate=False)[0]
            assert isinstance(plan, ShardedPlan) and len(plan.shards) == 4

    def test_spmm_mix_and_update_mix_compose(self):
        stats = run_workload(_cfg(update_mix=0.1, spmm_mix=0.15,
                                  n_requests=300))
        assert (stats.delta_value_updates
                + stats.delta_structural_updates) > 0
        assert stats.n_completed >= stats.n_requests  # SpMM widths >= 1

    def test_deltas_persist_to_store(self, tmp_path):
        run_workload(_cfg(update_mix=0.15, structural_frac=0.5,
                          store=tmp_path, n_requests=300))
        store = PlanStore(tmp_path)
        versions = [store.current_version(fp)
                    for fp in store.fingerprints()]
        assert versions and max(versions) > 0
        # every persisted chain replays cleanly
        for fp in store.fingerprints():
            assert store.load(fp, gate=False) is not None


class TestClusterUpdateStream:
    def test_n1_parity_with_updates(self):
        kw = dict(n_requests=400, entries=_entries(), n_matrices=3,
                  update_mix=0.1, structural_frac=0.4, seed=11)
        single = run_workload(WorkloadConfig(**kw))
        cluster = run_cluster_workload(ClusterConfig(n_replicas=1, **kw))
        s = cluster.replicas["r0"]
        assert s.n_completed == single.n_completed
        assert np.array_equal(s.latencies_s, single.latencies_s)
        assert s.delta_value_updates == single.delta_value_updates
        assert s.delta_structural_updates == single.delta_structural_updates
        assert cluster.n_updates == (s.delta_value_updates
                                     + s.delta_structural_updates)
        assert cluster.n_offered == 400 - cluster.n_updates

    def test_broadcast_reaches_every_replica(self):
        stats = run_cluster_workload(ClusterConfig(
            n_replicas=3, n_requests=600, entries=_entries(), n_matrices=3,
            update_mix=0.1, structural_frac=0.3, seed=11))
        per_replica = [s.delta_value_updates + s.delta_structural_updates
                       for s in stats.replicas.values()]
        assert len(set(per_replica)) == 1
        assert per_replica[0] == stats.n_updates > 0

    def test_home_replica_persists_once(self, tmp_path):
        stats = run_cluster_workload(ClusterConfig(
            n_replicas=3, n_requests=400, entries=_entries(), n_matrices=3,
            update_mix=0.12, structural_frac=0.4, seed=11, store=tmp_path))
        assert stats.n_updates > 0
        # contiguous chains prove exactly one writer per matrix: a
        # second concurrent writer would have tripped put_delta's
        # version check and crashed the run
        store = PlanStore(tmp_path)
        for fp in store.fingerprints():
            assert store.load(fp, gate=False) is not None

    def test_zero_lost_futures_under_chaos_and_deadlines(self):
        from repro.overload import (HedgeConfig, OverloadConfig,
                                    RetryBudgetConfig)

        stats = run_cluster_workload(ClusterConfig(
            n_replicas=4, n_requests=1200, entries=_entries(), n_matrices=3,
            update_mix=0.08, structural_frac=0.3, seed=11,
            deadline_s=0.005, partition_replica=1,
            partition_window=(0.3, 0.6),
            overload=OverloadConfig(retry_budget=RetryBudgetConfig(),
                                    hedge=HedgeConfig())))
        assert stats.n_updates > 0
        assert stats.lost_requests == 0

    def test_elastic_scale_up_sees_evolved_matrices(self):
        # a replica spawned mid-run under an update stream must start
        # from the evolved CSR state, or delta replay would fault
        from repro.cluster import ElasticConfig

        stats = run_cluster_workload(ClusterConfig(
            n_replicas=1, n_requests=800, entries=_entries(), n_matrices=3,
            update_mix=0.1, structural_frac=0.5, seed=11,
            elastic=ElasticConfig(min_replicas=1, max_replicas=3,
                                  scale_up_depth=1.0, cooldown_s=0.0)))
        assert stats.n_updates > 0
        assert stats.n_scale_up >= 1
        assert stats.n_completed > 0
