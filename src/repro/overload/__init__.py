"""Overload control and tail tolerance for the serving fabric.

Four mechanisms, layered from the front door inwards:

1. **Admission control** (:mod:`~repro.overload.admission`) — a
   token-bucket at ``submit`` that sheds excess load *before* it costs
   anything, batch-priority traffic first.
2. **Retry budget** (:mod:`~repro.overload.budget`) — a shared token
   pool bounding aggregate retries so a cluster-wide transient fault
   cannot amplify into a retry storm.
3. **Hedged requests** (:mod:`~repro.overload.hedge`) — duplicate the
   occasional slow request to a second replica and take the first
   result, cutting the latency tail a straggler imposes.
4. **Straggler-aware health** — the latency EWMA from the hedge
   tracker doubles as a health signal
   (:class:`~repro.cluster.health.ReplicaSignals`), demoting
   slow-but-alive replicas in the preference walk before they are
   marked down.

How the layers relate (and why all four exist) is written up in
DESIGN.md; the one-line version: admission bounds *offered* load,
backpressure bounds *queued* load, the retry budget bounds *retried*
load, and hedging spends a bounded amount of extra load to buy back
tail latency.  Everything defaults off — a server or driver with no
:class:`OverloadConfig` behaves bit-identically to one built before
this package existed.
"""

from __future__ import annotations

from dataclasses import dataclass

from .admission import (
    PRIORITIES,
    AdmissionConfig,
    AdmissionController,
    AdmissionRejectedError,
    TokenBucket,
)
from .budget import RetryBudget, RetryBudgetConfig
from .hedge import HedgeConfig, HedgePair, LatencyTracker

__all__ = [
    "PRIORITIES",
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionRejectedError",
    "TokenBucket",
    "RetryBudget",
    "RetryBudgetConfig",
    "HedgeConfig",
    "HedgePair",
    "LatencyTracker",
    "OverloadConfig",
    "OverloadContext",
]


@dataclass(frozen=True)
class OverloadConfig:
    """One knob bundle enabling any subset of the overload features.

    Each field is ``None``/off by default; a sub-config present means
    that mechanism is active.  ``batch_fraction`` only matters to the
    workload drivers — it is the share of generated traffic tagged
    batch-priority (drawn from a dedicated RNG stream so runs with
    overload disabled consume exactly the same random numbers as
    before this package existed).
    """

    admission: AdmissionConfig | None = None
    retry_budget: RetryBudgetConfig | None = None
    hedge: HedgeConfig | None = None
    batch_fraction: float = 0.3

    def __post_init__(self) -> None:
        from .._util import check

        check(0.0 <= self.batch_fraction <= 1.0,
              "batch_fraction must be in [0, 1]")

    @property
    def enabled(self) -> bool:
        return (self.admission is not None
                or self.retry_budget is not None
                or self.hedge is not None)


class OverloadContext:
    """Live overload machinery shared across one server or cluster.

    Binds an :class:`OverloadConfig` to concrete controller instances
    plus the ``overload.hedge.*`` counters, all on one obs handle —
    replicas keep their private registries, so cluster-wide overload
    state must live in exactly one place, and this is it.
    """

    def __init__(self, config: OverloadConfig | None = None, *,
                 obs=None) -> None:
        from ..obs import Obs

        self.config = config if config is not None else OverloadConfig()
        if obs is None or not obs.enabled:
            obs = Obs()
        self.obs = obs
        self.admission = (AdmissionController(self.config.admission, obs=obs)
                          if self.config.admission is not None else None)
        self.retry_budget = (RetryBudget(self.config.retry_budget, obs=obs)
                             if self.config.retry_budget is not None else None)
        hedge = self.config.hedge
        self.hedge = hedge
        self.latency = LatencyTracker() if hedge is not None else None
        self.hedges_issued = obs.counter("overload.hedge.issued_total")
        self.hedges_won = obs.counter("overload.hedge.won_total")
        self.hedges_wasted = obs.counter("overload.hedge.wasted_total")
