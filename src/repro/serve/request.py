"""Typed request surface for the serving stack.

One request vocabulary for every entry point: :class:`SpMVRequest`
(``y = A @ x``, one right-hand side) and :class:`SpMMRequest`
(``Y = A @ X``, an ``(n, k)`` block served through the large-k SpMM
tier) are accepted by both :meth:`repro.serve.SpMVServer.submit` and
:meth:`repro.cluster.Router.submit`.  The caller-facing knobs —
``deadline_us``, ``priority``, ``shards`` — are keyword-only on the
request object, so the server and the router never grow divergent
positional signatures.

The same dataclasses double as the stack's internal bookkeeping
records: the server stamps ``req_id``/``arrival_s``/``deadline_s`` on
a private :func:`dataclasses.replace` copy at admission, leaving the
submitted object untouched — which is what lets the router's hedging
path re-issue one request object to a second replica safely.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass

import numpy as np

__all__ = ["SpMMRequest", "SpMVRequest"]


@dataclass
class SpMVRequest:
    """One ``y = A @ x`` request addressed by matrix fingerprint.

    Public construction is ``SpMVRequest(fingerprint, x, *,
    deadline_us=..., priority=..., shards=...)``; everything after
    ``x`` is keyword-only.

    Parameters
    ----------
    deadline_us:
        Relative deadline in microseconds from submission (matching
        the modeled microsecond-scale kernel times); ``None`` falls
        back to the server-wide default.  The server converts it to
        the absolute ``deadline_s`` used for expiry checks.
    priority:
        Admission class (``"interactive"`` | ``"batch"``) — only
        consulted when an admission controller is installed.
    shards:
        Optional shard-count hint (an int or ``"auto"``) recorded
        before the matrix's plan is first built; it overrides the
        server-wide shard policy for that matrix.  Ignored once a
        plan exists.
    """

    fingerprint: str
    x: np.ndarray
    _: KW_ONLY
    deadline_us: float | None = None
    priority: str = "interactive"
    shards: int | str | None = None
    # -- internal bookkeeping, stamped by the server at admission --
    req_id: int = -1
    arrival_s: float = float("nan")
    #: Absolute deadline; once passed the request fails fast with
    #: ``DeadlineExceededError`` instead of occupying a batch slot.
    deadline_s: float = float("inf")
    result: np.ndarray | None = None
    completion_s: float = float("nan")
    #: First-wins pair state when this request is hedged
    #: (:class:`repro.overload.HedgePair`); ``None`` for plain requests.
    pair: object | None = None
    #: True for the hedge *copy* of a request (the shadow issued to a
    #: second replica); its completion never counts as a user-visible
    #: outcome unless it wins the pair.
    shadow: bool = False
    #: Matrix version this request was admitted against (stamped from
    #: the plan registry's version chain).  Requests already queued when
    #: an update lands keep draining against their pinned version; 0 is
    #: the original build, so static workloads never see the field.
    version: int = 0

    @property
    def width(self) -> int:
        """Right-hand-side columns this request contributes (1)."""
        return 1

    @property
    def latency_s(self) -> float:
        return self.completion_s - self.arrival_s

    def expired(self, now: float) -> bool:
        return now >= self.deadline_s


@dataclass
class SpMMRequest:
    """One ``Y = A @ X`` block request with ``k`` right-hand sides.

    ``x`` is the ``(n, k)`` RHS block (column ``j`` is one vector);
    the result is the ``(m, k)`` output block.  SpMM requests bypass
    the coalescing batcher — the block already *is* a batch — and for
    ``k > MMA_N`` execute through the tuner-chosen large-k strategy
    (:func:`repro.core.choose_spmm_strategy`).  Keyword-only fields
    match :class:`SpMVRequest`.
    """

    fingerprint: str
    x: np.ndarray
    _: KW_ONLY
    deadline_us: float | None = None
    priority: str = "interactive"
    shards: int | str | None = None
    # -- internal bookkeeping, stamped by the server at admission --
    req_id: int = -1
    arrival_s: float = float("nan")
    deadline_s: float = float("inf")
    result: np.ndarray | None = None
    completion_s: float = float("nan")
    pair: object | None = None
    shadow: bool = False
    #: Matrix version at admission (see :class:`SpMVRequest.version`).
    version: int = 0

    @property
    def width(self) -> int:
        """Right-hand-side columns this request contributes (``k``)."""
        return int(np.asarray(self.x).shape[1])

    @property
    def latency_s(self) -> float:
        return self.completion_s - self.arrival_s

    def expired(self, now: float) -> bool:
        return now >= self.deadline_s
