"""`ServerStats` — the serving layer's metrics facade.

Since the `repro.obs` redesign, ``ServerStats`` no longer *owns* any
counter: it is a thin facade over a
:class:`repro.obs.MetricsRegistry`.  Every counter-like attribute
(``n_requests``, ``cache_hits``, ``device_busy_s``, ...) is a read-only
property over a named registry counter — counters only grow, through
the ``observe_*`` methods or the instrument's ``inc`` — so components that share the same
:class:`repro.obs.Obs` handle (the plan registry, scheduler, breaker,
fault injector) and the stats object report from **one source of
truth**; the pre-redesign copy-counters-at-close drift is structurally
impossible.

The observation API (``observe_request`` and friends), the derived
metrics and :meth:`summary_table` are unchanged, so existing callers
and report goldens keep working byte-for-byte.
"""

from __future__ import annotations

import numpy as np

from ..bench.report import markdown_table
from ..obs import DEFAULT_TIME_BUCKETS, Obs

#: registry metric names backing the facade (property -> (metric, int?)).
_COUNTER_METRICS = {
    "n_requests": ("serve.requests_total", True),
    "n_completed": ("serve.completed_total", True),
    "n_rejected": ("serve.rejected_total", True),
    "n_shed": ("serve.shed_total", True),
    "n_batches": ("serve.batches_total", True),
    "cache_hits": ("serve.plan_cache.hits_total", True),
    "cache_misses": ("serve.plan_cache.misses_total", True),
    "cache_evictions": ("serve.plan_cache.evictions_total", True),
    "device_busy_s": ("serve.device_busy_seconds_total", False),
    "preprocess_s": ("serve.preprocess_seconds_total", False),
    "useful_mma_flops": ("serve.mma_useful_flops_total", False),
    "issued_mma_flops": ("serve.mma_issued_flops_total", False),
    "degraded_requests": ("serve.degraded_total", True),
    "retries": ("serve.retries_total", True),
    "n_deadline_exceeded": ("serve.deadline_exceeded_total", True),
    "n_failed": ("serve.failed_total", True),
    "n_closed": ("serve.closed_total", True),
    "breaker_transitions": ("resilience.breaker_transitions_total", True),
    "store_hits": ("store.hits_total", True),
    "store_misses": ("store.misses_total", True),
    "store_writes": ("store.writes_total", True),
    "store_quarantined": ("store.quarantined_total", True),
    "store_spills": ("serve.plan_cache.spills_total", True),
    "store_loads": ("serve.plan_cache.store_loads_total", True),
    "store_oversized": ("serve.plan_cache.oversized_total", True),
    "store_load_modeled_s": ("serve.plan_cache.load_modeled_seconds_total",
                             False),
    "hedges_issued": ("overload.hedge.issued_total", True),
    "hedges_won": ("overload.hedge.won_total", True),
    "hedges_wasted": ("overload.hedge.wasted_total", True),
    "retry_budget_granted": ("overload.retry_budget.granted_total", True),
    "retry_budget_denied": ("overload.retry_budget.denied_total", True),
    "prefetches": ("pipeline.prefetch_total", True),
    "prefetch_modeled_s": ("pipeline.prefetch_seconds_total", False),
    "parked_batches": ("pipeline.parked_total", True),
    "warm_loads": ("pipeline.warm_load_total", True),
    "warm_builds": ("pipeline.warm_build_total", True),
    "warm_failed": ("pipeline.warm_failed_total", True),
    "reorder_loaded": ("spmm.reorder.loaded_total", True),
    "reorder_derived": ("spmm.reorder.derived_total", True),
    "delta_value_updates": ("delta.value_total", True),
    "delta_structural_updates": ("delta.structural_total", True),
    "delta_compactions": ("delta.compaction_total", True),
    "delta_patch_modeled_s": ("delta.patch_modeled_seconds_total", False),
    "delta_rebuild_modeled_s": ("delta.rebuild_modeled_seconds_total", False),
}


def _counter_property(attr: str, metric: str, as_int: bool) -> property:
    def fget(self):
        v = self._registry.counter(metric).value
        return int(v) if as_int else v

    return property(fget, doc=f"Facade over registry counter ``{metric}``.")


class ServerStats:
    """Accumulated metrics for one serving run (registry-backed).

    Parameters
    ----------
    device / dtype:
        Where and at which precision the run served.
    obs:
        The :class:`repro.obs.Obs` handle whose registry backs every
        counter.  Defaults to a fresh private handle so standalone
        stats objects stay independent; the server/driver pass their
        run-wide handle so the plan cache, breaker and injector write
        the *same* instruments this facade reads.  A disabled handle
        (``NULL_OBS``) is replaced by a private one — the stats object
        must always be able to report.

    The attribute surface is unchanged from the dataclass era:
    ``n_requests``, ``n_completed``, ``n_rejected``, ``n_shed``,
    ``n_batches``, ``batch_hist``, ``cache_hits/misses/evictions``,
    ``device_busy_s``, ``preprocess_s``, ``duration_s``,
    ``useful_mma_flops``, ``issued_mma_flops``, ``latencies_s``,
    ``degraded_requests``, ``retries``, ``n_deadline_exceeded``,
    ``n_failed``, ``n_closed``, ``breaker_transitions``,
    ``breaker_state``, ``faults_injected`` — all readable exactly as
    before.  The counter facades are read-only: assigning one raises
    :class:`AttributeError`, since a counter may never decrease.
    """

    def __init__(self, device: str = "A100", dtype: str = "float64",
                 obs: Obs | None = None) -> None:
        if obs is None or not obs.enabled:
            obs = Obs()
        self.obs = obs
        self._registry = obs.registry
        self.device = device
        self.dtype = dtype
        #: Raw per-request latencies (seconds) for exact percentiles;
        #: also folded into the ``serve.latency_seconds`` histogram.
        self.latencies_s: list[float] = []
        #: fingerprint -> breaker state map (copied at report time).
        self.breaker_state: dict[str, str] = {}
        self._latency_hist = obs.histogram("serve.latency_seconds",
                                           DEFAULT_TIME_BUCKETS)
        self._duration = obs.gauge("serve.duration_seconds")

    # ------------------------------------------------------------------
    # registry-backed attributes
    # ------------------------------------------------------------------
    locals().update({attr: _counter_property(attr, metric, as_int)
                     for attr, (metric, as_int) in _COUNTER_METRICS.items()})

    @property
    def duration_s(self) -> float:
        """Makespan of the run (virtual or wall seconds) — a gauge."""
        return self._duration.value

    @duration_s.setter
    def duration_s(self, value: float) -> None:
        self._duration.set(value)

    @property
    def batch_hist(self) -> dict:
        """batch size -> number of batches of that size (from the
        ``serve.batch_size_total{k=...}`` counter family)."""
        return {int(c.labels["k"]): int(c.value)
                for c in self._registry.family("serve.batch_size_total")
                if c.value}

    @property
    def admission_rejected(self) -> int:
        """Requests shed by admission control (sum of the labeled
        ``overload.admission.rejected_total`` family)."""
        return int(self._registry.family_total(
            "overload.admission.rejected_total"))

    @property
    def admission_admitted(self) -> int:
        return int(self._registry.family_total(
            "overload.admission.admitted_total"))

    @property
    def warms(self) -> int:
        """Speculative warms dispatched (sum of the labeled
        ``pipeline.warm_total`` family)."""
        return int(self._registry.family_total("pipeline.warm_total"))

    @property
    def spmm_large_by_strategy(self) -> dict[str, int]:
        """strategy name -> large-k batches executed through it."""
        return {c.labels["strategy"]: int(c.value)
                for c in self._registry.family("serve.spmm_large_total")
                if c.value}

    @property
    def faults_injected(self) -> int:
        """Total fault-injector rule firings (sum of the labeled
        ``resilience.faults_total`` family)."""
        return int(self._registry.family_total("resilience.faults_total"))

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------
    def observe_request(self, n: int = 1) -> None:
        self._registry.counter("serve.requests_total").inc(n)

    def observe_rejected(self, n: int = 1) -> None:
        self._registry.counter("serve.rejected_total").inc(n)

    def observe_shed(self, n: int = 1) -> None:
        self._registry.counter("serve.shed_total").inc(n)

    def observe_batch(self, k: int, device_s: float, *,
                      useful_mma: float = 0.0, issued_mma: float = 0.0,
                      completed: int | None = None) -> None:
        """Record one executed batch of ``k`` requests.

        ``completed`` overrides the completion increment when it
        differs from the batch size — hedge shadows that lost their
        pair do real device work (counted in ``k`` and the device
        seconds) without producing a user-visible completion.
        """
        reg = self._registry
        reg.counter("serve.batches_total").inc()
        reg.counter("serve.completed_total").inc(
            k if completed is None else completed)
        reg.counter("serve.batch_size_total", {"k": k}).inc()
        reg.counter("serve.device_busy_seconds_total").inc(device_s)
        reg.counter("serve.mma_useful_flops_total").inc(useful_mma)
        reg.counter("serve.mma_issued_flops_total").inc(issued_mma)

    def observe_preprocess(self, seconds: float) -> None:
        self._registry.counter("serve.preprocess_seconds_total").inc(seconds)

    def observe_degraded(self, n: int = 1) -> None:
        """Record *n* requests answered from the fallback path."""
        self._registry.counter("serve.degraded_total").inc(n)

    def observe_retry(self, n: int = 1) -> None:
        self._registry.counter("serve.retries_total").inc(n)

    def observe_deadline_exceeded(self, n: int = 1) -> None:
        self._registry.counter("serve.deadline_exceeded_total").inc(n)

    def observe_failed(self, n: int = 1) -> None:
        self._registry.counter("serve.failed_total").inc(n)

    def observe_closed(self, n: int = 1) -> None:
        self._registry.counter("serve.closed_total").inc(n)

    def observe_spmm_large(self, strategy: str, n: int = 1) -> None:
        """Record *n* large-k batches executed with *strategy*."""
        self._registry.counter("serve.spmm_large_total",
                               {"strategy": strategy}).inc(n)

    def observe_latency(self, seconds: float) -> None:
        s = float(seconds)
        self.latencies_s.append(s)
        self._latency_hist.observe(s)

    # ------------------------------------------------------------------
    # derived metrics
    # ------------------------------------------------------------------
    @property
    def mean_batch_size(self) -> float:
        return self.n_completed / self.n_batches if self.n_batches else 0.0

    @property
    def cache_hit_rate(self) -> float:
        looked = self.cache_hits + self.cache_misses
        return self.cache_hits / looked if looked else 0.0

    @property
    def fallback_ratio(self) -> float:
        """Share of completed requests served by the degraded path."""
        return (self.degraded_requests / self.n_completed
                if self.n_completed else 0.0)

    @property
    def mma_utilization(self) -> float:
        if self.issued_mma_flops <= 0:
            return 0.0
        return self.useful_mma_flops / self.issued_mma_flops

    @property
    def throughput_rps(self) -> float:
        """Completed requests per modeled device-second of kernel time."""
        if self.device_busy_s <= 0:
            return 0.0
        return self.n_completed / self.device_busy_s

    @property
    def goodput_rps(self) -> float:
        """Throughput including preprocessing time (the end-to-end rate
        a cold or cache-thrashing server actually sustains)."""
        busy = self.device_busy_s + self.preprocess_s
        if busy <= 0:
            return 0.0
        return self.n_completed / busy

    def latency_percentiles(self, qs=(50, 95, 99)) -> dict[int, float]:
        """Latency percentiles (seconds) over completed requests."""
        if not self.latencies_s:
            return {q: float("nan") for q in qs}
        arr = np.asarray(self.latencies_s)
        return {q: float(np.percentile(arr, q)) for q in qs}

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def summary_table(self) -> str:
        """Markdown summary of every reported metric."""
        pct = self.latency_percentiles()
        batch_hist = self.batch_hist
        hist = " ".join(f"{k}:{batch_hist[k]}" for k in sorted(batch_hist))
        rows = [
            ("device / dtype", f"{self.device} / {self.dtype}"),
            ("requests offered / completed", f"{self.n_requests:,} / {self.n_completed:,}"),
            ("rejected / shed", f"{self.n_rejected:,} / {self.n_shed:,}"),
            ("batches (mean size)", f"{self.n_batches:,} ({self.mean_batch_size:.2f})"),
            ("batch-size histogram", hist or "-"),
            ("plan cache hit / miss / evict",
             f"{self.cache_hits} / {self.cache_misses} / {self.cache_evictions}"),
            ("cache hit rate", f"{self.cache_hit_rate:.1%}"),
            ("device busy (kernels)", f"{self.device_busy_s * 1e3:.3f} ms"),
            ("preprocessing", f"{self.preprocess_s * 1e3:.3f} ms"),
            ("makespan", f"{self.duration_s * 1e3:.3f} ms"),
            ("throughput (kernel time)", f"{self.throughput_rps:,.0f} req/s"),
            ("goodput (incl. preprocess)", f"{self.goodput_rps:,.0f} req/s"),
            ("MMA utilization", f"{self.mma_utilization:.1%}"),
            ("latency p50 / p95 / p99",
             " / ".join("-" if np.isnan(pct[q]) else f"{pct[q] * 1e6:.1f} us"
                        for q in (50, 95, 99))),
        ]
        if (self.store_loads or self.store_writes or self.store_spills
                or self.store_quarantined or self.store_oversized):
            rows += [
                ("store load / write / spill",
                 f"{self.store_loads} / {self.store_writes} "
                 f"/ {self.store_spills}"),
                ("store quarantined / oversized",
                 f"{self.store_quarantined} / {self.store_oversized}"),
                ("modeled plan-load time",
                 f"{self.store_load_modeled_s * 1e3:.3f} ms"),
            ]
        if (self.faults_injected or self.degraded_requests or self.retries
                or self.n_deadline_exceeded or self.n_failed
                or self.breaker_transitions):
            breaker = " ".join(f"{fp[:8]}:{st}"
                               for fp, st in sorted(self.breaker_state.items())
                               if st != "closed")
            rows += [
                ("faults injected", f"{self.faults_injected:,}"),
                ("degraded (fallback) requests",
                 f"{self.degraded_requests:,} "
                 f"({self.fallback_ratio:.1%} of completed)"),
                ("retries / deadline-exceeded / failed",
                 f"{self.retries:,} / {self.n_deadline_exceeded:,} "
                 f"/ {self.n_failed:,}"),
                ("breaker transitions (open circuits)",
                 f"{self.breaker_transitions:,} ({breaker or 'none'})"),
            ]
        if self.prefetches or self.warms or self.parked_batches:
            rows += [
                ("prefetches (modeled lane time)",
                 f"{self.prefetches:,} "
                 f"({self.prefetch_modeled_s * 1e3:.3f} ms)"),
                ("parked batches", f"{self.parked_batches:,}"),
                ("speculative warms load / build / failed",
                 f"{self.warm_loads:,} / {self.warm_builds:,} "
                 f"/ {self.warm_failed:,}"),
            ]
        spmm_large = self.spmm_large_by_strategy
        if spmm_large:
            rows.append(("large-k batches by strategy",
                         " ".join(f"{name}:{spmm_large[name]}"
                                  for name in sorted(spmm_large))))
            # only a large-k batch derives an order (reads create counters)
            if self.reorder_loaded or self.reorder_derived:
                rows.append(("reorder perm loaded / derived",
                             f"{self.reorder_loaded:,} "
                             f"/ {self.reorder_derived:,}"))
        if self.delta_value_updates or self.delta_structural_updates:
            rows += [
                ("matrix updates value / structural / compactions",
                 f"{self.delta_value_updates:,} "
                 f"/ {self.delta_structural_updates:,} "
                 f"/ {self.delta_compactions:,}"),
                ("modeled patch vs rebuild-per-update",
                 f"{self.delta_patch_modeled_s * 1e3:.3f} ms vs "
                 f"{self.delta_rebuild_modeled_s * 1e3:.3f} ms"),
            ]
        if (self.admission_admitted or self.admission_rejected
                or self.hedges_issued or self.retry_budget_granted
                or self.retry_budget_denied):
            rows += [
                ("admission admitted / rejected",
                 f"{self.admission_admitted:,} / {self.admission_rejected:,}"),
                ("hedges issued / won / wasted",
                 f"{self.hedges_issued:,} / {self.hedges_won:,} "
                 f"/ {self.hedges_wasted:,}"),
                ("retry budget granted / denied",
                 f"{self.retry_budget_granted:,} / {self.retry_budget_denied:,}"),
            ]
        return markdown_table(("metric", "value"), rows)
