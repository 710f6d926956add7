"""Chaos benchmark — serving resilience under a seeded 5% fault mix.

Not a paper figure: quantifies the `repro.resilience` guarantees on
both serving stacks.

* **real server** — Zipf-ish traffic over a small matrix pool with 5%
  injected faults plus one permanently-poisoned matrix: >= 99% of
  requests must complete *correctly* within their deadline (degraded
  answers count — they are numerically exact), every future must
  resolve (no hangs, no leaks), and the run must actually exercise the
  machinery (retries, fallback, breaker transitions all nonzero);
* **virtual driver** — the chaos run is bit-deterministic given its
  seed, every request is accounted for, and with faults disabled the
  modeled throughput matches the resilience-free baseline within 5%
  (the hardening is free when nothing fails).

``CHAOS_SEED`` selects the fault-injector seed (the nightly CI job
sweeps three of them).
"""

import os

import numpy as np
import pytest

from benchmarks.conftest import emit
from repro.bench import markdown_table
from repro.resilience import (
    BreakerConfig,
    FaultInjector,
    FaultPlan,
    FaultRule,
    RetryPolicy,
)
from repro.serve import (ChaosConfig, SpMVRequest, SpMVServer, WorkloadConfig,
                         run_workload)
from tests.conftest import random_csr

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "7"))
FAULT_RATE = 0.05
N_REQUESTS = 400
DEADLINE_S = 30.0  # generous: failures, not load, are under test

pytestmark = pytest.mark.slow


def test_real_server_survives_chaos():
    rng = np.random.default_rng(42)
    pool = [random_csr(90, 110, rng) for _ in range(4)]

    plan = FaultPlan.chaos_mix(FAULT_RATE, seed=CHAOS_SEED)
    server = SpMVServer(
        max_batch=8, flush_timeout_s=0.002, workers=2, queue_depth=512,
        default_deadline_s=DEADLINE_S,
        retry=RetryPolicy(max_retries=2, base_delay_s=1e-4, jitter=0.5),
        breaker=BreakerConfig(failure_threshold=2, recovery_s=0.5),
        fault_injector=None,  # installed below, after fingerprints exist
        seed=CHAOS_SEED,
    )
    fps = [server.register(csr) for csr in pool]
    # poison the least popular matrix: its kernel always fails, so its
    # circuit must open and its traffic must ride the fallback
    plan.rules.append(FaultRule(kind="kernel_error", fingerprint=fps[-1]))
    injector = FaultInjector(plan)
    server.fault_injector = injector
    server.registry.fault_injector = injector

    weights = np.array([0.4, 0.3, 0.2, 0.1])
    choices = rng.choice(len(pool), size=N_REQUESTS, p=weights)
    submitted = []
    for i in range(N_REQUESTS):
        j = int(choices[i])
        x = rng.uniform(-1, 1, pool[j].shape[1])
        submitted.append((j, x, server.submit(SpMVRequest(fps[j], x))))
    server.drain(timeout=60.0)
    server.close(timeout=60.0)
    stats = server.stats

    in_deadline_correct = 0
    for j, x, fut in submitted:
        assert fut.done(), "leaked future after close"
        if fut.exception(timeout=0) is not None:
            continue  # deadline/failure: counted against the 99% bar
        y = fut.result(timeout=0)
        if np.allclose(y, pool[j].matvec(x), rtol=1e-8):
            in_deadline_correct += 1
    ratio = in_deadline_correct / N_REQUESTS

    emit("serve_resilience_chaos", markdown_table(
        ("metric", "value"), [
            ("fault seed / rate", f"{CHAOS_SEED} / {FAULT_RATE:.0%}"),
            ("in-deadline correct", f"{in_deadline_correct}/{N_REQUESTS} "
             f"({ratio:.2%})"),
            ("faults injected", f"{stats.faults_injected}"),
            ("retries", f"{stats.retries}"),
            ("degraded (fallback ratio)",
             f"{stats.degraded_requests} ({stats.fallback_ratio:.1%})"),
            ("breaker transitions", f"{stats.breaker_transitions}"),
            ("deadline exceeded / failed / closed",
             f"{stats.n_deadline_exceeded} / {stats.n_failed} "
             f"/ {stats.n_closed}"),
        ]))

    assert ratio >= 0.99, f"only {ratio:.2%} correct within deadline"
    assert stats.faults_injected > 0
    assert stats.retries > 0            # transient faults were retried
    assert stats.fallback_ratio > 0.0   # poisoned traffic degraded
    assert stats.breaker_transitions > 0  # the poisoned circuit opened
    assert stats.n_closed == 0          # drain served everything


def _driver_cfg(**overrides) -> WorkloadConfig:
    base = dict(n_requests=2000, n_matrices=4, seed=2023)
    base.update(overrides)
    return WorkloadConfig(**base)


def test_driver_chaos_deterministic_and_accounted():
    cfg = _driver_cfg(
        deadline_s=DEADLINE_S,
        chaos=ChaosConfig(fault_rate=FAULT_RATE, seed=CHAOS_SEED,
                          poison_rank=3),
    )
    a = run_workload(cfg)
    b = run_workload(cfg)
    assert a.device_busy_s == b.device_busy_s
    assert a.retries == b.retries
    assert a.latencies_s == b.latencies_s  # bit-deterministic

    # every request ends in exactly one bucket
    assert (a.n_completed + a.n_rejected + a.n_deadline_exceeded
            + a.n_failed == a.n_requests)
    assert a.faults_injected > 0
    assert a.degraded_requests > 0
    assert a.breaker_transitions > 0


def test_chaos_off_costs_nothing():
    baseline = run_workload(_driver_cfg())
    hardened = run_workload(_driver_cfg(chaos=ChaosConfig(fault_rate=0.0)))

    drift = abs(hardened.throughput_rps - baseline.throughput_rps) \
        / baseline.throughput_rps
    emit("serve_resilience_parity", markdown_table(
        ("mode", "req/s (kernel)", "req/s (goodput)"), [
            ("baseline (no resilience)", f"{baseline.throughput_rps:,.0f}",
             f"{baseline.goodput_rps:,.0f}"),
            ("chaos wired, rate 0", f"{hardened.throughput_rps:,.0f}",
             f"{hardened.goodput_rps:,.0f}"),
        ]) + f"\n\nthroughput drift: {drift:.3%} (must be < 5%)")
    assert drift < 0.05
    assert hardened.faults_injected == 0
