"""Cluster scaling benchmark — N replicas vs one, with failover.

Not a paper figure: quantifies the `repro.cluster` fabric on the
deterministic virtual-time Zipf workload.  Three gates:

* **parity** — the N=1 cluster is bit-identical to the single-replica
  driver (same RNG streams, same event ordering), so everything the
  scaling numbers say is attributable to placement, not to a different
  simulator;
* **scale-out** — at N=4 (offered rate scaled to 4x the single-replica
  saturating rate) modeled aggregate throughput is >= 3x the N=1 run;
* **failover** — the 3x holds even with one replica fault-injected
  into permanent kernel errors: health marks it down, its traffic
  reroutes along the ring preference walk, and >= 99% of offered
  requests still complete in deadline with no lost futures.
"""

import time

from benchmarks.conftest import emit
from repro.bench import markdown_table
from repro.cluster import ClusterConfig, run_cluster_workload
from repro.matrices import synthetic_collection
from repro.serve import WorkloadConfig, run_workload

N_REQUESTS = 50_000
N_MATRICES = 8
SEED = 3
DEADLINE_S = 0.02


def _cfg(**overrides) -> ClusterConfig:
    base = dict(n_requests=N_REQUESTS, seed=SEED, deadline_s=DEADLINE_S,
                entries=synthetic_collection(N_MATRICES, seed=5))
    base.update(overrides)
    return ClusterConfig(**base)


def _timed(cfg):
    t0 = time.perf_counter()
    stats = run_cluster_workload(cfg)
    return stats, time.perf_counter() - t0


def test_cluster_single_replica_parity():
    """N=1 must be the single-replica driver, bit for bit."""
    kw = dict(n_requests=4000, seed=SEED, deadline_s=DEADLINE_S,
              entries=synthetic_collection(N_MATRICES, seed=5))
    single = run_workload(WorkloadConfig(**kw))
    cluster = run_cluster_workload(ClusterConfig(n_replicas=1, **kw))
    (replica,) = cluster.replicas.values()
    assert single.latencies_s == replica.latencies_s
    assert single.n_completed == replica.n_completed
    assert single.duration_s == replica.duration_s
    assert single.device_busy_s == replica.device_busy_s


def test_cluster_scaling_with_failover():
    one, wall_one = _timed(_cfg(n_replicas=1))
    four, wall_four = _timed(_cfg(n_replicas=4, fail_replica=3))

    ratio = four.throughput_rps / one.throughput_rps
    pct_one = one.latency_percentiles((50.0, 99.0))
    pct_four = four.latency_percentiles((50.0, 99.0))

    rows = []
    for label, stats, pct, wall in (
            ("N=1", one, pct_one, wall_one),
            ("N=4, one replica failing", four, pct_four, wall_four)):
        rows.append((label, f"{stats.n_completed:,}",
                     f"{stats.throughput_rps:,.0f}",
                     f"{stats.in_deadline_fraction:.4f}",
                     f"{pct[50.0] * 1e6:.1f} / {pct[99.0] * 1e6:.1f}",
                     f"{stats.n_failover:,}", f"{wall:.1f}"))
    emit("cluster_scaling", markdown_table(
        ("cluster", "completed", "modeled req/s", "in-deadline",
         "p50/p99 (us)", "failovers", "wall s"), rows)
        + f"\n\nN=4 vs N=1 modeled aggregate throughput: {ratio:.2f}x "
        f"(target >= 3x with one replica fault-injected)")

    # --- the acceptance gates -----------------------------------------
    # scale-out: >= 3x aggregate modeled throughput at N=4, even with
    # replica r3 fault-injected into permanent kernel errors
    assert ratio >= 3.0, f"N=4 throughput only {ratio:.2f}x N=1"
    # availability: >= 99% of offered requests answered in deadline
    assert four.in_deadline_fraction >= 0.99, \
        f"in-deadline fraction {four.in_deadline_fraction:.4f} < 0.99"
    # the failure was real and was routed around
    assert four.n_failover > 0
    assert four.n_transitions_down >= 1
    assert not four.health["r3"]["healthy"]
    fair = N_REQUESTS / 4
    assert four.routed["r3"] < 0.5 * fair
    # no lost futures: every offered request resolved one way
    assert (four.n_completed + four.n_rejected + four.n_failed
            + four.n_deadline_exceeded) == four.n_requests
