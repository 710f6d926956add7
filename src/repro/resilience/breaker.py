"""Per-key circuit breaker (closed -> open -> half-open -> closed).

One :class:`CircuitBreaker` tracks every registered matrix fingerprint
independently: ``failure_threshold`` *consecutive* failures open the
key's circuit, an open circuit quarantines the fingerprint (the server
answers from the merge-CSR fallback without touching the DASP path),
and after ``recovery_s`` the next request is admitted as a half-open
probe — a probe success re-closes the circuit, a probe failure
re-opens it.

Time is always passed in by the caller (the codebase-wide convention),
so the same breaker runs under the wall-clocked server and the
virtual-time workload driver.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from .._util import check

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BreakerConfig:
    """Thresholds of the per-matrix circuit breaker."""

    failure_threshold: int = 3
    recovery_s: float = 0.05

    def __post_init__(self) -> None:
        check(self.failure_threshold >= 1, "failure_threshold must be >= 1")
        check(self.recovery_s >= 0.0, "recovery_s must be >= 0")


class _Entry:
    __slots__ = ("state", "failures", "opened_at")

    def __init__(self) -> None:
        self.state = CLOSED
        self.failures = 0    # consecutive failures while closed
        self.opened_at = 0.0


class CircuitBreaker:
    """Thread-safe per-key breaker state machine (see module docstring).

    ``obs`` (a :class:`repro.obs.Obs` handle) backs the ``transitions``
    counter as ``resilience.breaker_transitions_total`` and counts
    per-direction transitions under
    ``resilience.breaker_transition_total{to=...}``; it defaults to a
    fresh private handle, and the server passes its run-wide one so
    ``ServerStats.breaker_transitions`` reads the same instrument.
    """

    def __init__(self, config: BreakerConfig | None = None, *,
                 obs=None) -> None:
        from ..obs import Obs

        self.config = config if config is not None else BreakerConfig()
        self._entries: dict[str, _Entry] = {}
        self._lock = threading.Lock()
        if obs is None or not obs.enabled:
            obs = Obs()
        self.obs = obs
        self._transitions = obs.counter("resilience.breaker_transitions_total")

    @property
    def transitions(self) -> int:
        """Total state transitions (closed->open, open->half_open, ...)."""
        return int(self._transitions.value)

    # ------------------------------------------------------------------
    def _entry(self, key: str) -> _Entry:
        e = self._entries.get(key)
        if e is None:
            e = self._entries[key] = _Entry()
        return e

    def _move(self, e: _Entry, state: str) -> None:
        if e.state != state:
            e.state = state
            self._transitions.inc()
            self.obs.counter("resilience.breaker_transition_total",
                             {"to": state}).inc()

    # ------------------------------------------------------------------
    def allow(self, key: str, now: float) -> bool:
        """May work for *key* touch the primary path right now?"""
        with self._lock:
            e = self._entry(key)
            if e.state == OPEN:
                if now - e.opened_at >= self.config.recovery_s:
                    self._move(e, HALF_OPEN)
                    return True
                return False
            return True

    def record_success(self, key: str, now: float) -> None:
        with self._lock:
            e = self._entry(key)
            if e.state == HALF_OPEN:
                self._move(e, CLOSED)
                e.failures = 0
            elif e.state == CLOSED:
                e.failures = 0

    def record_failure(self, key: str, now: float) -> None:
        with self._lock:
            e = self._entry(key)
            if e.state == HALF_OPEN:
                self._move(e, OPEN)
                e.opened_at = now
            elif e.state == CLOSED:
                e.failures += 1
                if e.failures >= self.config.failure_threshold:
                    self._move(e, OPEN)
                    e.opened_at = now

    # ------------------------------------------------------------------
    def state(self, key: str) -> str:
        with self._lock:
            e = self._entries.get(key)
            return e.state if e is not None else CLOSED

    def snapshot(self) -> dict[str, str]:
        """fingerprint -> state, for folding into ``ServerStats``."""
        with self._lock:
            return {k: e.state for k, e in self._entries.items()}

    def open_count(self) -> int:
        """Keys whose circuit is currently not closed (open or
        half-open) — the signal replica health monitoring consumes."""
        with self._lock:
            return sum(1 for e in self._entries.values()
                       if e.state != CLOSED)
