"""Overload-control benchmark — graceful degradation under pressure.

Not a paper figure: quantifies the `repro.overload` layer on the
deterministic virtual-time cluster driver.  The headline scenario runs
a 4-replica cluster at **130% of modeled aggregate capacity** with one
replica's device modeled 4x slow (a live straggler) and a 5% transient
fault mix, and gates that the cluster degrades *by policy* rather than
by collapse:

* **interactive traffic is protected** — >= 99% of accepted
  interactive requests complete in deadline, because admission control
  sheds batch-priority work first (the ``batch_reserve`` floor);
* **shedding is typed and immediate** — an admission-shed request
  costs a counter bump, never a queue slot (the wall-clock companion
  test pins the typed :class:`~repro.overload.AdmissionRejectedError`
  on the real server path);
* **nothing is lost** — every offered request has exactly one terminal
  outcome (``lost_requests == 0``) even with hedge shadows in flight;
* **retries stay bounded** — cluster-wide retries never exceed the
  shared budget's ``initial + ratio x offered`` invariant;
* **hedging wins the tail** — duplicate requests against the straggler
  win >= 1% of offered traffic (in practice ~8%);
* **the layer is free when off** — with no ``OverloadConfig`` the run
  is bit-identical to one with every mechanism disabled.

``OVERLOAD_SEED`` (default 3) picks the traffic seed.
"""

import os
import time

import numpy as np

from benchmarks.conftest import emit
from repro.bench import markdown_table
from repro.cluster import ClusterConfig, run_cluster_workload
from repro.gpu import get_device
from repro.matrices import synthetic_collection
from repro.overload import (
    AdmissionConfig,
    HedgeConfig,
    OverloadConfig,
    RetryBudgetConfig,
)
from repro.serve import ChaosConfig
from repro.serve.driver import _matrix_pool, auto_rate
from repro.serve.execute import CostModel

N_REQUESTS = 6_000
N_REPLICAS = 4
DEADLINE_S = 0.004
OVERLOAD = 1.3          # offered rate as a multiple of modeled capacity
ADMIT_FRACTION = 0.55   # admission rate as a multiple of modeled capacity
SEED = int(os.environ.get("OVERLOAD_SEED", "3"))


def _capacity_rps(cfg: ClusterConfig) -> float:
    """Modeled aggregate saturating rate of the cluster's pool."""
    pool = _matrix_pool(cfg)
    modeled = CostModel(get_device(cfg.device), workers=cfg.shard_workers)
    return cfg.n_replicas * auto_rate(pool, modeled, replicas=1)


def _overload_cfg(capacity: float) -> OverloadConfig:
    return OverloadConfig(
        admission=AdmissionConfig(rate_rps=ADMIT_FRACTION * capacity,
                                  burst=64.0, batch_reserve=0.25),
        retry_budget=RetryBudgetConfig(),
        hedge=HedgeConfig(),
        batch_fraction=0.3)


def test_overload_with_slow_replica():
    """130% offered load + one 4x-slow replica + 5% transient faults."""
    base = ClusterConfig(n_requests=N_REQUESTS, n_replicas=N_REPLICAS,
                         seed=SEED, deadline_s=DEADLINE_S)
    capacity = _capacity_rps(base)
    cfg = ClusterConfig(
        n_requests=N_REQUESTS, n_replicas=N_REPLICAS, seed=SEED,
        deadline_s=DEADLINE_S, rate_rps=OVERLOAD * capacity,
        overload=_overload_cfg(capacity), slow_replica=1,
        chaos=ChaosConfig(fault_rate=0.05, seed=SEED))
    t0 = time.perf_counter()
    stats = run_cluster_workload(cfg)
    wall = time.perf_counter() - t0

    interactive = stats.in_deadline_by_priority("interactive")
    p = stats.priorities
    shed_rate = {k: p[k]["shed"] / p[k]["offered"] for k in p}
    rb = cfg.overload.retry_budget
    rows = [
        ("offered (130% of capacity)", f"{stats.n_offered:,}"),
        ("shed (interactive / batch)",
         f"{p['interactive']['shed']:,} / {p['batch']['shed']:,}"),
        ("completed", f"{stats.n_completed:,}"),
        ("interactive in-deadline", f"{interactive:.4f}"),
        ("batch in-deadline",
         f"{stats.in_deadline_by_priority('batch'):.4f}"),
        ("hedges issued / won / wasted",
         f"{stats.n_hedges_issued:,} / {stats.n_hedges_won:,} / "
         f"{stats.n_hedges_wasted:,}"),
        ("retries / budget granted",
         f"{stats.n_retries:,} / {stats.retry_budget_granted:,}"),
        ("lost requests", f"{stats.lost_requests:,}"),
        ("wall", f"{wall:.1f} s"),
    ]
    emit("overload_slow_replica",
         markdown_table(("metric", "value"), rows))

    # --- the acceptance gates -----------------------------------------
    # interactive traffic the cluster accepted is answered in deadline
    assert interactive >= 0.99, \
        f"interactive in-deadline {interactive:.4f} < 0.99"
    # shedding happened, and took batch traffic first
    assert stats.n_shed > 0
    assert shed_rate["batch"] > shed_rate["interactive"]
    # zero lost futures: every offered request has one terminal outcome
    assert stats.lost_requests == 0
    # cluster-wide retries bounded by the shared budget invariant
    assert stats.retry_budget_granted <= \
        rb.initial + rb.ratio * stats.n_offered
    assert stats.n_retries <= stats.retry_budget_granted
    # hedging wins >= 1% of offered traffic off the straggler's tail
    assert stats.n_hedges_won >= 0.01 * stats.n_offered, \
        f"hedges won only {stats.n_hedges_won} of {stats.n_offered}"
    assert stats.n_hedges_won <= stats.n_hedges_issued


def test_partition_chaos_deterministic():
    """A mid-run router<->replica partition heals without losing any
    request, and the whole scenario replays bit-identically."""
    cfg = ClusterConfig(n_requests=3_000, n_replicas=N_REPLICAS,
                        seed=SEED, deadline_s=0.02,
                        entries=synthetic_collection(8, seed=5),
                        partition_replica=0,
                        partition_window=(0.25, 0.75))
    stats = run_cluster_workload(cfg)
    again = run_cluster_workload(cfg)

    merged = [lat for rid in sorted(stats.replicas)
              for lat in stats.replicas[rid].latencies_s]
    merged2 = [lat for rid in sorted(again.replicas)
               for lat in again.replicas[rid].latencies_s]
    assert merged == merged2, "partition scenario is not deterministic"
    assert stats.n_transitions_down >= 1, "partition never tripped health"
    assert stats.n_transitions_up >= 1, "replica never recovered"
    assert stats.lost_requests == 0


def test_disabled_overload_is_bit_identical():
    """The overload layer must be free when off: a config with every
    mechanism disabled changes nothing vs no config at all."""
    kw = dict(n_requests=3_000, n_replicas=N_REPLICAS, seed=SEED,
              deadline_s=0.02, entries=synthetic_collection(8, seed=5))
    plain = run_cluster_workload(ClusterConfig(**kw))
    noop = run_cluster_workload(ClusterConfig(**kw,
                                              overload=OverloadConfig()))

    for rid in plain.replicas:
        assert plain.replicas[rid].latencies_s == \
            noop.replicas[rid].latencies_s, f"{rid} latencies diverged"
    assert plain.n_completed == noop.n_completed
    assert plain.n_deadline_exceeded == noop.n_deadline_exceeded
    assert plain.routed == noop.routed


def test_admission_shed_is_typed_and_fast():
    """On the real (wall-clock) server, an admission shed is a typed
    error raised before the request costs a queue slot."""
    import pytest

    from repro.overload import AdmissionRejectedError
    from repro.serve import QueueFullError, SpMVRequest, SpMVServer
    from tests.conftest import random_csr

    rng = np.random.default_rng(SEED)
    csr = random_csr(64, 64, rng)
    with SpMVServer(workers=1,
                    admission=AdmissionConfig(rate_rps=1.0,
                                              burst=1.0)) as server:
        fp = server.register(csr)
        x = np.zeros(csr.shape[1])
        assert server.submit(SpMVRequest(fp, x)).result(timeout=30) is not None
        t0 = time.perf_counter()
        with pytest.raises(AdmissionRejectedError) as exc_info:
            server.submit(SpMVRequest(fp, x))
        shed_wall = time.perf_counter() - t0
        assert shed_wall < 0.1, f"shed took {shed_wall:.3f}s, not fast"
        # typed: an admission shed is NOT queue-full backpressure
        assert not isinstance(exc_info.value, QueueFullError)
        assert server.stats.admission_rejected == 1
