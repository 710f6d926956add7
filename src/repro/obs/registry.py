"""Metrics primitives — counters, gauges, fixed-bucket histograms.

One :class:`MetricsRegistry` is the single source of truth for every
counter a run reports: the serving layer's :class:`~repro.serve.stats.
ServerStats` is a facade over it, the plan registry / scheduler /
breaker / fault injector increment the same instruments, and
:mod:`repro.obs.export` renders the whole registry as JSON or
Prometheus text.

Design rules (deliberate, testable):

* **deterministic** — instruments never read the wall clock or any RNG;
  values are exactly what the instrumented code observed;
* **thread-safe** — one lock per instrument, one registry lock for
  creation, so the threaded :class:`~repro.serve.server.SpMVServer`
  and the single-threaded virtual-time driver share the same types;
* **idempotent creation** — asking for an existing ``(name, labels)``
  returns the same instrument; asking with a conflicting kind or
  bucket layout raises.
"""

from __future__ import annotations

import threading

from .._util import ReproError

#: Default histogram bucket upper bounds (seconds) for latency-style
#: observations: roughly logarithmic from 1 us to 100 ms.
DEFAULT_TIME_BUCKETS = (
    1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4,
    1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1,
)


class MetricError(ReproError):
    """An instrument was (re)declared inconsistently."""


def _norm_labels(labels) -> tuple[tuple[str, str], ...]:
    """Normalize a labels mapping into a hashable sorted tuple."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in dict(labels).items()))


class _Instrument:
    """Shared bits: identity, lock, label handling."""

    kind = "?"

    def __init__(self, name: str, labels=()) -> None:
        self.name = name
        self.labels = dict(labels)
        self._lock = threading.Lock()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{self.kind} {self.name} {self.labels or ''} {self.value!r}>"


class Counter(_Instrument):
    """Monotonic accumulator (int or float increments); it only grows
    through :meth:`inc`."""

    kind = "counter"

    def __init__(self, name: str, labels=()) -> None:
        super().__init__(name, labels)
        self._value = 0.0

    def inc(self, n: float = 1) -> None:
        if n < 0:
            raise MetricError(f"counter {self.name} cannot decrease")
        with self._lock:
            self._value += n

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Gauge(_Instrument):
    """Point-in-time value (queue depth, cached bytes, makespan)."""

    kind = "gauge"

    def __init__(self, name: str, labels=()) -> None:
        super().__init__(name, labels)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, n: float = 1) -> None:
        with self._lock:
            self._value += n

    def dec(self, n: float = 1) -> None:
        with self._lock:
            self._value -= n

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram(_Instrument):
    """Fixed-bucket histogram with Prometheus ``le`` semantics.

    An observation ``v`` lands in the first bucket whose upper bound
    satisfies ``v <= le`` (an implicit ``+Inf`` bucket catches the
    rest).  Bucket edges are frozen at creation; re-declaring the same
    name with different edges raises :class:`MetricError`.
    """

    kind = "histogram"

    def __init__(self, name: str, buckets=DEFAULT_TIME_BUCKETS,
                 labels=()) -> None:
        super().__init__(name, labels)
        edges = tuple(float(b) for b in buckets)
        if not edges or any(b <= a for a, b in zip(edges, edges[1:])):
            raise MetricError(
                f"histogram {name} needs strictly increasing bucket edges")
        self.buckets = edges
        self._counts = [0] * (len(edges) + 1)  # last = +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        v = float(value)
        with self._lock:
            self._sum += v
            self._count += 1
            for i, edge in enumerate(self.buckets):
                if v <= edge:
                    self._counts[i] += 1
                    return
            self._counts[-1] += 1

    @property
    def value(self) -> dict:
        """Snapshot: per-bucket counts (not cumulative), sum and count."""
        with self._lock:
            return {
                "buckets": list(zip(self.buckets, self._counts[:-1])),
                "inf": self._counts[-1],
                "sum": self._sum,
                "count": self._count,
            }

    def cumulative(self) -> list[tuple[float, int]]:
        """Prometheus-style cumulative ``(le, count)`` pairs incl. +Inf."""
        with self._lock:
            out, running = [], 0
            for edge, c in zip(self.buckets, self._counts[:-1]):
                running += c
                out.append((edge, running))
            out.append((float("inf"), running + self._counts[-1]))
            return out


class MetricsRegistry:
    """Process- or run-scoped collection of named instruments."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[tuple[str, tuple], _Instrument] = {}

    # ------------------------------------------------------------------
    def _get(self, cls, name: str, labels, **kwargs) -> _Instrument:
        key = (name, _norm_labels(labels))
        with self._lock:
            inst = self._instruments.get(key)
            if inst is None:
                inst = cls(name, labels=key[1], **kwargs)
                self._instruments[key] = inst
                return inst
        if not isinstance(inst, cls):
            raise MetricError(
                f"{name} already registered as a {inst.kind}, not {cls.kind}")
        if isinstance(inst, Histogram) and "buckets" in kwargs:
            if inst.buckets != tuple(float(b) for b in kwargs["buckets"]):
                raise MetricError(
                    f"histogram {name} re-declared with different buckets")
        return inst

    def counter(self, name: str, labels=None) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, labels=None) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, buckets=DEFAULT_TIME_BUCKETS,
                  labels=None) -> Histogram:
        return self._get(Histogram, name, labels, buckets=buckets)

    # ------------------------------------------------------------------
    def collect(self) -> list[_Instrument]:
        """Every instrument, ordered by (name, labels) for stable output."""
        with self._lock:
            return [self._instruments[k] for k in sorted(self._instruments)]

    def family(self, name: str) -> list[_Instrument]:
        """All instruments sharing *name* (one per label set)."""
        with self._lock:
            return [inst for (n, _), inst in sorted(self._instruments.items())
                    if n == name]

    def family_total(self, name: str) -> float:
        """Sum of a counter/gauge family's values across label sets."""
        return float(sum(inst.value for inst in self.family(name)
                         if not isinstance(inst, Histogram)))

    def snapshot(self) -> dict:
        """``{name{labels}: value}`` view for assertions and debugging."""
        out = {}
        for inst in self.collect():
            key = inst.name
            if inst.labels:
                key += "{" + ",".join(f"{k}={v}" for k, v in
                                      sorted(inst.labels.items())) + "}"
            out[key] = inst.value
        return out
