"""Hedged requests and per-replica latency tracking.

A *hedge* is a second copy of a request issued to a different replica
when the first is taking suspiciously long — the classic
tail-tolerance move: the client pays a little extra work to cut the
latency tail that one slow replica would otherwise impose on every
request hashed to it.  First result wins; the loser is cancelled (or
discarded on completion) and counted as wasted work.

Two cooperating pieces live here:

:class:`LatencyTracker`
    Per-key exponential moving average of observed latencies.  The
    router feeds it per-replica request latencies; the cluster driver
    feeds it modeled completion latencies.  Its EWMA is both the hedge
    trigger ("this replica is slower than its peers") and the new
    ``latency_ewma_s`` health signal that demotes stragglers in the
    preference walk.

:class:`HedgePair`
    The tiny shared-state object linking a primary request to its
    hedge copy: whichever side resolves first wins the pair; the other
    side is told to stand down.  Works for wall-clock futures and for
    virtual-time :class:`~repro.serve.batcher.SpMVRequest` shadows
    alike because it only tracks resolution, not results.

Counters follow the ``overload.hedge.{issued,won,wasted}_total``
family: *issued* counts hedge copies sent, *won* counts pairs where
the hedge (not the primary) produced the first result, *wasted*
counts hedge copies whose work was discarded.
"""

from __future__ import annotations

import statistics
import threading
from dataclasses import dataclass

from .._util import check

#: Wall-clock hedge timer, as a multiple of the target replica's latency
#: EWMA: the router re-issues after
#: ``max(min_delay_s, HEDGE_DELAY_FACTOR * ewma)`` with no result.
HEDGE_DELAY_FACTOR = 2.0


@dataclass(frozen=True)
class HedgeConfig:
    """When to hedge.

    Attributes
    ----------
    factor:
        Straggler threshold: hedge (or demote) a replica whose latency
        EWMA exceeds ``factor`` times the median of its peers'.
    min_delay_s:
        Floor for the hedge timer so cold EWMAs don't hedge instantly.
    """

    factor: float = 3.0
    min_delay_s: float = 1e-3

    def __post_init__(self) -> None:
        check(self.factor > 1.0, "factor must be > 1")
        check(self.min_delay_s >= 0.0, "min_delay_s must be >= 0")


def exceeds_peer_median(mine: float, peers, factor: float) -> bool:
    """The one straggler test: *mine* > ``factor`` x median of *peers*.

    Only positive peer latencies count (a cold zero is no evidence),
    and at least two are needed — with fewer there is no population to
    be an outlier of.  A non-positive *mine* is never a straggler.
    """
    peers = [p for p in peers if p > 0.0]
    if mine <= 0.0 or len(peers) < 2:
        return False
    return mine > factor * statistics.median(peers)


class LatencyTracker:
    """Thread-safe per-key latency EWMA (keys are replica ids)."""

    def __init__(self, alpha: float = 0.2) -> None:
        check(0.0 < alpha <= 1.0, "alpha must be in (0, 1]")
        self.alpha = float(alpha)
        self._ewma: dict[object, float] = {}
        self._lock = threading.Lock()

    def observe(self, key, latency_s: float) -> None:
        with self._lock:
            prev = self._ewma.get(key)
            if prev is None:
                self._ewma[key] = float(latency_s)
            else:
                self._ewma[key] = (self.alpha * float(latency_s)
                                   + (1.0 - self.alpha) * prev)

    def ewma(self, key) -> float:
        """Current EWMA for *key*; 0.0 before any observation."""
        with self._lock:
            return self._ewma.get(key, 0.0)

    def forget(self, key) -> None:
        with self._lock:
            self._ewma.pop(key, None)

    def snapshot(self) -> dict:
        with self._lock:
            return dict(self._ewma)

    def is_straggler(self, key, *, factor: float) -> bool:
        """True when *key*'s EWMA exceeds ``factor`` x peer median
        (:func:`exceeds_peer_median`)."""
        with self._lock:
            mine = self._ewma.get(key, 0.0)
            peers = [v for k, v in self._ewma.items() if k != key]
        return exceeds_peer_median(mine, peers, factor)


class HedgePair:
    """First-wins resolution state shared by a primary and its hedge.

    ``resolve(side)`` returns True for exactly one caller — the
    winner; every later call returns False and should discard its
    result.  ``cancelled(side)`` lets a pending copy check whether the
    other side already won so it can skip its work entirely.
    """

    __slots__ = ("_lock", "winner", "primary_rid", "hedge_rid", "_failed",
                 "_fail_counted")

    def __init__(self, primary_rid=None, hedge_rid=None) -> None:
        self._lock = threading.Lock()
        self.winner: str | None = None
        self.primary_rid = primary_rid
        self.hedge_rid = hedge_rid
        self._failed: set[str] = set()
        self._fail_counted = False

    def resolve(self, side: str) -> bool:
        check(side in ("primary", "hedge"), "side must be primary|hedge")
        with self._lock:
            if self.winner is None:
                self.winner = side
                return True
            return False

    def mark_failed(self, side: str) -> bool:
        """Record one copy's terminal failure (expiry, fault).

        Returns True exactly when this failure makes the *logical*
        request fail — both copies are now dead and neither won — so
        the caller counts the outcome (deadline miss, failure) once
        per pair, never twice and never alongside a success.
        """
        check(side in ("primary", "hedge"), "side must be primary|hedge")
        with self._lock:
            if self.winner is not None or self._fail_counted:
                return False
            self._failed.add(side)
            if len(self._failed) == 2:
                self._fail_counted = True
                return True
            return False

    @property
    def resolved(self) -> bool:
        with self._lock:
            return self.winner is not None

    def cancelled(self, side: str) -> bool:
        """True when the *other* side already resolved the pair."""
        with self._lock:
            return self.winner is not None and self.winner != side
