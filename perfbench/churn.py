"""``churn``: the virtual-time cluster driver with matrix updates beside reads.

``run_cluster_workload`` over 2 replicas and the drivers' default pool
(the first four suite matrices), with ``update_mix=0.1`` (30%
structural), SpMV reads only, at ``RATE_RPS`` — below saturation, so
that modeled latency is service latency rather than the backlog of an
overloaded open loop.  Every driver run gets a fresh temporary
``PlanStore``, made outside the timed op and seeded with the pool's
plans, so that the replicas warm-start from it and their modeled
latency holds no cold plan build.  What the store records inside the
timed op is the program's own work: the delta chain each update
persists, the loads of plans, and any plan it writes through.

A cycle is ``SUB_RUNS`` driver runs with sub-seeds drawn from the seed,
so one run averages over that much traffic whatever the machine's
speed.  The timed loop repeats the cycle until the time is up, and at
least one driver run more; a repeated driver run must reproduce its
first outcome exactly.  The modeled metrics pool the cycle's runs.
"""

from __future__ import annotations

import shutil
import tempfile
import time

from repro.cluster.driver import ClusterConfig, run_cluster_workload
from repro.core import DASPMatrix
from repro.serve import matrix_fingerprint
from repro.store import PlanStore

from .common import (CHURN_POOL, SERVE_POOL, WORK_DIR, KernelProbe, Report,
                     metric, percentile_ms, pregenerated, require, rng_for,
                     suite_entries, timed_setup)
from .layers import traced_run

#: Driver runs per cycle, arrival slots per driver run, offered rate.
SUB_RUNS = 3
N_REQUESTS = 100
RATE_RPS = 10000.0


def outcome(cs) -> tuple:
    """Everything modeled about one cluster run."""
    lat = tuple(x for s in cs.replicas.values() for x in s.latencies_s)
    return (cs.n_offered, cs.n_updates, cs.n_completed, cs.n_rejected,
            cs.n_failed, cs.n_deadline_exceeded, cs.n_shed, cs.n_link_failed,
            tuple(sorted(cs.routed.items())), cs.duration_s, cs.device_busy_s,
            lat)


def lost(cs) -> int:
    """Offered requests without a terminal outcome (must be 0)."""
    done = (cs.n_completed + cs.n_rejected + cs.n_failed
            + cs.n_deadline_exceeded + cs.n_shed + cs.n_link_failed)
    return cs.n_offered - done


class FreshStore:
    """A temporary ``PlanStore`` under ``WORK_DIR`` per driver run.

    :meth:`renew` removes the last store and makes the next one, seeded
    with ``plans`` (fingerprint, plan); the benchmark calls it outside
    the timed op.  :meth:`close` removes the last one.
    """

    def __init__(self, plans) -> None:
        self.plans = plans
        self.root = self.store = None

    def renew(self) -> None:
        self.close()
        WORK_DIR.mkdir(exist_ok=True)
        self.root = tempfile.mkdtemp(prefix="churn-store-", dir=WORK_DIR)
        self.store = PlanStore(self.root)
        for fp, plan in self.plans:
            self.store.put(fp, plan)

    def close(self) -> None:
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)
            self.root = self.store = None


def _setup():
    entries = pregenerated(suite_entries(CHURN_POOL))
    plans = []
    for e in entries:
        csr = e.matrix()
        plans.append((matrix_fingerprint(csr), DASPMatrix.from_csr(csr)))
    return entries, plans


def run(seed: int, seconds: float, trace: bool = False) -> Report:
    (entries, plans), setup_s = timed_setup(_setup)
    fresh = FreshStore(plans)
    try:
        return _run(seed, seconds, trace, entries, setup_s, fresh)
    finally:
        fresh.close()


def _run(seed: int, seconds: float, trace: bool, entries, setup_s: float,
         fresh: FreshStore) -> Report:
    sub_seeds = rng_for(seed, 3).integers(0, 2**31, SUB_RUNS)
    configs = [ClusterConfig(
        n_requests=N_REQUESTS, seed=int(s), entries=entries, rate_rps=RATE_RPS,
        n_replicas=2, update_mix=0.1, structural_frac=0.3, warm_start=True)
        for s in sub_seeds]
    first: list = []
    rep = Report()

    def one(i: int, rec=None):
        """Driver run ``i`` of the cycle, checked; returns its stats."""
        cfg = ClusterConfig(**{**vars(configs[i]), "store": fresh.store})
        if rec is None:
            cs = run_cluster_workload(cfg)
        else:
            with rec.span("cluster.driver", req=f"run-seed-{cfg.seed}"):
                cs = run_cluster_workload(cfg)
        n_lost = lost(cs)
        require(n_lost == 0, f"{n_lost} simulated requests without an outcome")
        if len(first) <= i:
            first.append(cs)
        require(outcome(cs) == outcome(first[i]),
                "two same-seed cluster runs disagree")
        rep.attempted += cs.n_offered
        rep.failed += cs.n_offered - cs.n_completed
        return cs

    if trace:
        # Every traced op replays driver run 0.
        def op(rec):
            one(0, rec)
            return N_REQUESTS

        def extra(ops):
            cs = first[0]
            stats = list(cs.replicas.values())
            hits = sum(s.cache_hits for s in stats)
            looked = hits + sum(s.cache_misses for s in stats)
            batches = sum(s.n_batches for s in stats)
            return {
                "serve.plan_cache.hit_ratio": hits / max(looked, 1),
                "serve.batcher.batches": batches,
                "serve.batcher.mean_batch": cs.n_completed / max(batches, 1),
                "serve.scheduler.rejected": cs.n_rejected,
                "cluster.updates_broadcast": cs.n_updates,
                "cluster.routed_share_max":
                    max(cs.routed.values()) / max(sum(cs.routed.values()), 1),
            }
        return traced_run(rep, op, extra, seconds, prepare=fresh.renew)

    probe = KernelProbe([e.matrix() for e in suite_entries(SERVE_POOL)],
                        rng_for(seed, 2))
    runs, wall = 0, 0.0
    t_end = time.perf_counter() + seconds
    while runs <= SUB_RUNS or time.perf_counter() < t_end:
        fresh.renew()
        t0 = time.perf_counter()
        one(runs % SUB_RUNS)
        wall += time.perf_counter() - t0
        runs += 1
        probe.pause()
    require(probe.mismatched == 0, "dasp_spmv or dasp_spmm output differs")

    replicas = [s for cs in first for s in cs.replicas.values()]
    completed = sum(s.n_completed for s in replicas)
    lat = [x for s in replicas for x in s.latencies_s]
    rep.metrics = {
        "setup_s": metric(setup_s, "s"),
        **probe.gflops(),
        "req_per_s": metric(N_REQUESTS * runs / wall, "req/s"),
        "p50_ms": metric(percentile_ms(lat, 50), "ms"),
        "p95_ms": metric(percentile_ms(lat, 95), "ms"),
        "modeled_rps": metric(
            completed / sum(s.device_busy_s for s in replicas), "req/s"),
        "modeled_p99_ms": metric(percentile_ms(lat, 99), "ms"),
        "ok_frac": metric(
            completed / sum(cs.n_offered for cs in first), "fraction"),
    }
    rep.notes.append(f"{runs} cluster runs of {N_REQUESTS} arrival slots "
                     f"in {wall:.1f} s")
    return rep
