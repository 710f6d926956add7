"""Speculative plan warmer — popularity-driven pre-building/preloading.

Zipf-shaped matrix popularity is the serving workloads' standing
assumption; the warmer turns it into a speculation policy.  It watches
per-matrix request counters in the run's :class:`repro.obs` registry,
fits the Zipf exponent from the observed rank/frequency curve
(:func:`zipf_fit`), and nominates registered-but-not-resident matrices
for warming most-popular-first — matrices nobody has asked for yet are
ranked by registration order behind the observed ones, which is
exactly the tail a Zipf fit predicts they occupy.

The warmer only *nominates*; the virtual-time driver acquires each
nomination through :meth:`repro.serve.execute.ExecutionCore.warm` —
the store's own load-vs-rebuild gate
(:func:`repro.store.tier.load_beats_rebuild`, applied by
``PlanStore.load(gate=True)``) picks a load or a rebuild — on its
prefetch lane.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .._util import check

__all__ = ["SpeculativeWarmer", "WarmerConfig", "zipf_fit"]


@dataclass(frozen=True)
class WarmerConfig:
    """Speculation policy knobs.

    Attributes
    ----------
    min_observed:
        Requests to observe before speculating at all — the estimate
        over fewer samples is noise.
    min_share:
        Minimum predicted popularity share a matrix must have to be
        worth warming (0.0 warms the whole catalog eventually).
    max_per_tick:
        Warm at most this many matrices per tick, bounding the burst
        of lane work one tick can book.

    Until the observed counts support a fit, the Zipf exponent is
    :func:`zipf_fit`'s default.
    """

    min_observed: int = 16
    min_share: float = 0.0
    max_per_tick: int = 2

    def __post_init__(self) -> None:
        check(self.min_observed >= 0, "min_observed must be >= 0")
        check(0.0 <= self.min_share < 1.0, "min_share must be in [0, 1)")
        check(self.max_per_tick >= 1, "max_per_tick must be >= 1")


def zipf_fit(counts, *, default: float = 1.1) -> float:
    """Least-squares Zipf exponent from descending rank counts.

    Fits ``log c_r = a - s log r`` over the ranks with nonzero counts;
    fewer than two informative ranks (no slope to estimate) returns
    *default*.  The estimate is clamped to ``[0, 10]`` — popularity
    flatter than uniform or steeper than any serving workload only
    destabilizes the share predictions downstream.
    """
    c = np.asarray([x for x in counts if x > 0], dtype=np.float64)
    if c.size < 2:
        return float(default)
    r = np.log(np.arange(1, c.size + 1, dtype=np.float64))
    lc = np.log(c)
    denom = float(((r - r.mean()) ** 2).sum())
    if denom <= 0.0:
        return float(default)
    slope = float(((r - r.mean()) * (lc - lc.mean())).sum() / denom)
    return float(min(max(-slope, 0.0), 10.0))


class SpeculativeWarmer:
    """Popularity-driven warm nominations over a registered catalog.

    The per-matrix request counts live in the run's obs registry
    (``pipeline.warmer.observed_total{matrix=...}``) — the warmer
    *watches* counters the serving path increments, it does not keep a
    private tally that could drift from the reported metrics.
    """

    def __init__(self, cfg: WarmerConfig | None = None, *,
                 obs=None) -> None:
        from ..obs import get_obs

        self.cfg = cfg if cfg is not None else WarmerConfig()
        self.obs = obs if obs is not None else get_obs()
        self._catalog: OrderedDict[str, None] = OrderedDict()
        self._dispatched: set[str] = set()
        self._observed = self.obs.counter("pipeline.warmer.requests_total")

    # ------------------------------------------------------------------
    def register(self, fingerprint: str) -> None:
        """Add one matrix to the catalog (registration order = prior
        popularity rank for matrices with no traffic yet)."""
        self._catalog.setdefault(fingerprint, None)

    def observe(self, fingerprint: str) -> None:
        """Count one request for *fingerprint* (obs-registry backed)."""
        self._observed.inc()
        self.obs.counter("pipeline.warmer.observed_total",
                         {"matrix": fingerprint}).inc()

    def count(self, fingerprint: str) -> int:
        return int(self.obs.counter("pipeline.warmer.observed_total",
                                    {"matrix": fingerprint}).value)

    @property
    def total_observed(self) -> int:
        return int(self._observed.value)

    # ------------------------------------------------------------------
    def estimate(self) -> list[tuple[str, float]]:
        """``(fingerprint, predicted_share)`` over the whole catalog.

        Observed matrices rank by count (descending, registration order
        breaking ties); unobserved ones follow in registration order.
        Shares come from the fitted Zipf curve evaluated at each rank —
        which is what lets the warmer price matrices *before their
        first request*.
        """
        fps = list(self._catalog)
        counts = {fp: self.count(fp) for fp in fps}
        order = sorted(range(len(fps)), key=lambda i: (-counts[fps[i]], i))
        s = zipf_fit(sorted(counts.values(), reverse=True))
        ranks = np.arange(1, len(fps) + 1, dtype=np.float64)
        shares = ranks ** -s
        shares /= shares.sum()
        return [(fps[i], float(shares[r])) for r, i in enumerate(order)]

    def due(self, *, resident) -> list[str]:
        """Nominate up to ``max_per_tick`` matrices to warm now.

        ``resident(fp)`` tells the warmer which matrices already have a
        usable (or in-flight) plan.  Nominations are remembered, so a
        matrix is handed out once; :meth:`reset` forgets that (e.g.
        after an eviction storm or a rebalance moved plans away).
        """
        if self.total_observed < self.cfg.min_observed:
            return []
        out = []
        for fp, share in self.estimate():
            if len(out) >= self.cfg.max_per_tick:
                break
            if fp in self._dispatched or resident(fp):
                continue
            if share < self.cfg.min_share:
                continue
            self._dispatched.add(fp)
            out.append(fp)
        return out

    def reset(self, fingerprint: str | None = None) -> None:
        """Forget dispatch state (one matrix, or all of it)."""
        if fingerprint is None:
            self._dispatched.clear()
        else:
            self._dispatched.discard(fingerprint)
