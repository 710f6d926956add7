"""Deterministic fault injection for the serving layer.

A :class:`FaultPlan` is a seeded list of :class:`FaultRule` entries; the
:class:`FaultInjector` draws from one RNG stream (under a lock, so the
threaded server stays well-defined and the single-threaded virtual-time
driver stays bit-reproducible) and decides, per preprocessing pass or
kernel invocation, whether to raise, corrupt the output, add latency,
or shrink the effective plan-cache budget.

Rule kinds
----------
``preprocess_error``
    :func:`repro.core.preprocess.dasp_preprocess` raises
    :class:`~repro.resilience.errors.PreprocessFault`.
``kernel_error``
    The kernel invocation raises
    :class:`~repro.resilience.errors.KernelFault` (transient — the
    server retries it with backoff).
``kernel_nan``
    The kernel "succeeds" but its output is poisoned with NaN at a
    seeded position; output validation must catch it.
``latency``
    Extra seconds are charged to the stage named by ``stage``
    (modeled time — neither the server nor the driver sleeps for it).
``cache_pressure``
    The plan registry's effective byte budget is multiplied by
    ``budget_factor`` while the rule fires, forcing evictions or
    :class:`~repro.resilience.errors.PlanTooLargeError`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from .._util import check, default_rng
from .errors import KernelFault, PreprocessFault

#: Recognized rule kinds (see module docstring).
FAULT_KINDS = (
    "preprocess_error",
    "kernel_error",
    "kernel_nan",
    "latency",
    "cache_pressure",
)


def _fp_matches(rule_fp: str, fingerprint: str | None) -> bool:
    """Pinned-rule matching: exact key, or any shard-scoped key of it
    (``abcd`` matches ``abcd`` and ``abcd#s3`` but not ``abcdef``)."""
    return fingerprint is not None and (
        fingerprint == rule_fp or fingerprint.startswith(rule_fp + "#"))


@dataclass(frozen=True)
class FaultRule:
    """One seeded failure rule.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    rate:
        Firing probability per eligible call in ``[0, 1]``.
    fingerprint:
        Restrict the rule to one matrix (``None`` = every matrix).
        Sharded preprocessing checks faults under ``{fingerprint}#s{i}``
        scoped keys: a rule pinned to the base fingerprint matches
        every band of that matrix, while a rule pinned to a scoped key
        targets that single band.  Kernel faults are checked once per
        batch attempt under the base fingerprint.
    stage:
        For ``latency`` rules: ``"kernel"`` or ``"preprocess"``.
    latency_s:
        Extra modeled seconds charged when a ``latency`` rule fires.
    budget_factor:
        Effective-budget multiplier while a ``cache_pressure`` rule
        fires (``0.5`` halves the plan-cache budget).
    max_count:
        Stop firing after this many hits (``None`` = unlimited) —
        lets tests inject exactly-one transient failure.
    """

    kind: str
    rate: float = 1.0
    fingerprint: str | None = None
    stage: str = "kernel"
    latency_s: float = 0.0
    budget_factor: float = 1.0
    max_count: int | None = None

    def __post_init__(self) -> None:
        check(self.kind in FAULT_KINDS, f"unknown fault kind {self.kind!r}")
        check(0.0 <= self.rate <= 1.0, "rate must be in [0, 1]")
        check(self.stage in ("kernel", "preprocess"),
              f"unknown fault stage {self.stage!r}")


@dataclass
class FaultPlan:
    """A seeded set of fault rules (the unit chaos configs produce)."""

    rules: list[FaultRule] = field(default_factory=list)
    seed: int = 0

    @classmethod
    def chaos_mix(cls, rate: float, *, seed: int = 0,
                  latency_s: float = 300e-6,
                  kinds=("preprocess_error", "kernel_error",
                         "kernel_nan", "latency")) -> "FaultPlan":
        """Split a total fault *rate* evenly over *kinds*."""
        check(rate >= 0.0, "rate must be >= 0")
        per = rate / max(len(kinds), 1)
        rules = [FaultRule(kind=k, rate=per, latency_s=latency_s)
                 for k in kinds]
        return cls(rules=rules, seed=seed)


@dataclass
class KernelDecision:
    """What the injector decided for one kernel invocation."""

    latency_s: float = 0.0
    corrupt: bool = False


class FaultInjector:
    """Applies a :class:`FaultPlan` deterministically (thread-safe).

    One RNG stream drives every probability draw; per-rule hit counts
    enforce ``max_count`` and feed the :meth:`snapshot` report.  The
    NaN position of :meth:`corrupt_output` comes from a second stream,
    so whether a caller computes (and poisons) outputs never shifts
    which faults fire next.
    """

    def __init__(self, plan: FaultPlan, *, obs=None) -> None:
        self.plan = plan
        self._rng = default_rng(plan.seed)
        self._nan_rng = default_rng(plan.seed + 1)
        self._lock = threading.Lock()
        self._hits: dict[int, int] = {}
        self.counts: dict[str, int] = {}
        self._obs = None
        if obs is not None:
            self.bind(obs)

    def bind(self, obs) -> "FaultInjector":
        """Attach a :class:`repro.obs.Obs` handle: every subsequent rule
        firing also increments ``resilience.faults_total{kind=...}`` in
        its registry (the family ``ServerStats.faults_injected`` sums).
        The server/driver bind their run-wide handle at startup; the
        local ``counts`` dict stays authoritative for :meth:`snapshot`.
        """
        self._obs = obs if (obs is not None and obs.enabled) else None
        return self

    # ------------------------------------------------------------------
    def _fire(self, i: int, rule: FaultRule) -> bool:
        # caller holds the lock
        hits = self._hits.get(i, 0)
        if rule.max_count is not None and hits >= rule.max_count:
            return False
        if rule.rate < 1.0 and float(self._rng.random()) >= rule.rate:
            return False
        self._hits[i] = hits + 1
        self.counts[rule.kind] = self.counts.get(rule.kind, 0) + 1
        if self._obs is not None:
            self._obs.counter("resilience.faults_total",
                              {"kind": rule.kind}).inc()
        return True

    def _rules(self, kinds, fingerprint: str | None, stage: str | None = None):
        for i, rule in enumerate(self.plan.rules):
            if rule.kind not in kinds:
                continue
            if rule.fingerprint is not None and not _fp_matches(
                    rule.fingerprint, fingerprint):
                continue
            if stage is not None and rule.kind == "latency" and rule.stage != stage:
                continue
            yield i, rule

    # ------------------------------------------------------------------
    def check_preprocess(self, fingerprint: str | None = None) -> float:
        """Decide the fate of one preprocessing pass.

        Raises :class:`PreprocessFault` if an error rule fires; returns
        the extra modeled latency (seconds) from latency rules.
        """
        latency = 0.0
        with self._lock:
            for _i, rule in self._rules(("preprocess_error", "latency"),
                                        fingerprint, stage="preprocess"):
                if not self._fire(_i, rule):
                    continue
                if rule.kind == "preprocess_error":
                    raise PreprocessFault(
                        f"injected preprocess failure ({fingerprint!r})")
                latency += rule.latency_s
        return latency

    def check_kernel(self, fingerprint: str | None = None) -> KernelDecision:
        """Decide the fate of one kernel invocation.

        Raises :class:`KernelFault` (transient) if an error rule fires;
        returns a :class:`KernelDecision` carrying extra latency and
        whether the output must be poisoned.
        """
        decision = KernelDecision()
        with self._lock:
            for _i, rule in self._rules(("kernel_error", "kernel_nan",
                                         "latency"), fingerprint,
                                        stage="kernel"):
                if not self._fire(_i, rule):
                    continue
                if rule.kind == "kernel_error":
                    raise KernelFault(
                        f"injected kernel failure ({fingerprint!r})")
                if rule.kind == "kernel_nan":
                    decision.corrupt = True
                else:
                    decision.latency_s += rule.latency_s
        return decision

    def corrupt_output(self, Y):
        """Poison one seeded entry of *Y* with NaN (in place)."""
        if Y.size:
            with self._lock:
                flat = int(self._nan_rng.integers(Y.size))
            Y.reshape(-1)[flat] = float("nan")
        return Y

    def effective_budget(self, budget_bytes: int) -> int:
        """Plan-cache budget after any firing ``cache_pressure`` rules."""
        factor = 1.0
        with self._lock:
            for i, rule in self._rules(("cache_pressure",), None):
                if self._fire(i, rule):
                    factor *= rule.budget_factor
        return int(budget_bytes * factor)

    # ------------------------------------------------------------------
    @property
    def total_injected(self) -> int:
        with self._lock:
            return sum(self.counts.values())

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return dict(self.counts)
