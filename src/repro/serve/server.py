"""`SpMVServer` — the real-threaded SpMV inference service.

Wires the serving components together: :class:`SpMVRequest` s
submitted with :meth:`SpMVServer.submit` are coalesced per matrix by
the :class:`~repro.serve.batcher.RequestBatcher` and executed as
:func:`~repro.core.spmm.dasp_spmm` batches (singletons included —
``dasp_spmm`` column folds are bitwise ``dasp_spmv``) on the
:class:`~repro.serve.scheduler.Scheduler` worker pool, against plans
cached in the :class:`~repro.serve.plan_cache.PlanRegistry`.
:class:`SpMMRequest` blocks skip the coalescer (the ``(n, k)`` block
already is a batch); widths beyond ``MMA_N`` execute through the
tuner-chosen large-k strategy
(:func:`~repro.core.spmm_block.choose_spmm_strategy` — looped /
column-tiled / reordered+tiled, all bitwise-identical).  Each submit
returns a ``concurrent.futures.Future`` resolving to the result.

Alongside the numeric result, every batch is charged its *modeled*
device time (A100/H800 cost model over the measured SpMM events,
memoized per plan version and width), so the server reports
hardware-meaningful throughput even though the kernels run as NumPy on
the host.  The per-batch policy below is
:class:`~repro.serve.execute.ExecutionCore` — the same code the
virtual-time driver runs, here with a wall clock and numeric kernels.

Partial failure is a first-class citizen (see :mod:`repro.resilience`):

* requests carry **deadlines** — expired ones fail fast with
  :class:`DeadlineExceededError` at dequeue time instead of occupying
  a batch slot;
* transient kernel failures are **retried** with exponential backoff
  and seeded jitter, bounded by a :class:`RetryPolicy`;
* a per-matrix **circuit breaker** quarantines fingerprints that keep
  failing (closed -> open -> half-open probe);
* when DASP preprocessing fails, blows its deadline, the plan cannot
  fit the cache, or the breaker is open, the batch **degrades** to the
  merge-CSR fallback path — no plan needed, modeled cost charged
  honestly — and ``ServerStats`` reports the degradation;
* :meth:`close` never leaks futures: anything still parked fails with
  :class:`ServerClosedError`.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from dataclasses import replace

import numpy as np

from .._util import ReproError, check, default_rng
from ..gpu.device import get_device
from ..obs import Obs
from ..overload import (
    AdmissionConfig,
    AdmissionController,
    RetryBudget,
    RetryBudgetConfig,
)
from ..resilience import (
    BreakerConfig,
    CircuitBreaker,
    RetryPolicy,
    ServerClosedError,
)
from .batcher import DEFAULT_FLUSH_TIMEOUT_S, MMA_N, Batch, RequestBatcher
from .execute import CostModel, ExecutionCore, NumericExecutor, WallClock
from .plan_cache import DEFAULT_BUDGET_BYTES, PlanRegistry, matrix_fingerprint
from .request import SpMMRequest, SpMVRequest
from .scheduler import QueueFullError, Scheduler
from .stats import ServerStats


class RequestShedError(ReproError):
    """Set on futures whose batch was shed under backpressure."""


class SpMVServer:
    """Batched, plan-cached, failure-hardened SpMV serving.

    Matrices must be :meth:`register`-ed before requests can address
    them (by the returned fingerprint).  Use as a context manager, or
    call :meth:`close` to drain and stop the workers.

    Resilience parameters
    ---------------------
    default_deadline_s:
        Deadline applied to every request that does not pass its own
        (``None`` = no deadline).
    retry:
        :class:`RetryPolicy` for transiently-failed batches.
    breaker:
        :class:`BreakerConfig` for the per-matrix circuit breaker, or
        ``None`` to disable it.
    fault_injector:
        Optional :class:`repro.resilience.FaultInjector` installed into
        the plan registry, the preprocessing builder and the batch
        executor.
    fallback:
        Serve un-servable batches from the merge-CSR path (default).
        When ``False`` they fail with the causing exception instead.
    admission:
        Optional :class:`repro.overload.AdmissionConfig` (or a shared
        :class:`~repro.overload.AdmissionController`) installing
        token-bucket admission control at :meth:`submit`: shed
        requests fail immediately with a typed
        :class:`~repro.overload.AdmissionRejectedError` — distinct
        from queue-full backpressure — and batch-priority traffic is
        shed first.
    retry_budget:
        Optional :class:`repro.overload.RetryBudgetConfig` (or a
        shared :class:`~repro.overload.RetryBudget` instance, e.g. one
        pool spanning every replica of a cluster) bounding aggregate
        retries: when the pool is dry, a transiently-failed batch
        skips its remaining attempts and degrades straight to the
        merge-CSR fallback instead of amplifying a cluster-wide fault
        into a retry storm.
    shards:
        ``None`` (default) serves each batch with one kernel chain.
        An integer ``S >= 2`` partitions every registered matrix into
        ``S`` nnz-balanced row bands (:mod:`repro.shard`) and executes
        a batch's shards concurrently across this server's worker
        pool, gathering bit-identically; ``"auto"`` picks ``S`` per
        matrix from the makespan cost model
        (:func:`repro.shard.choose_shards`).  Kernel faults are
        checked, retried and degraded per batch, exactly as for an
        unsharded plan.
    store:
        Optional durable plan tier: a :class:`repro.store.PlanStore`
        (or a path-like to open one at) backing the plan registry.
        Freshly-built plans are written through as ``.daspz``
        artifacts, cache misses try a disk load before rebuilding, and
        plans over the RAM budget are served load-through instead of
        degrading to the fallback path.
    warm_start:
        :meth:`register` preloads the matrix's plan from the store
        (:meth:`warm`), so the first request skips preprocessing.
    obs:
        :class:`repro.obs.Obs` handle shared by every component of this
        server — the plan registry, scheduler, breaker, fault injector
        and :class:`ServerStats` all read/write its registry, so the
        stats facade needs no copy-at-close step.  Pass one with a
        :class:`repro.obs.Tracer` to record ``batch -> preprocess /
        kernel / fallback`` span trees; defaults to a fresh private
        metrics-only handle.
    """

    def __init__(self, *, device: str = "A100",
                 max_batch: int = MMA_N,
                 flush_timeout_s: float = DEFAULT_FLUSH_TIMEOUT_S,
                 cache_budget_bytes: int = DEFAULT_BUDGET_BYTES,
                 workers: int = 2, queue_depth: int = 64,
                 policy: str = "reject",
                 default_deadline_s: float | None = None,
                 retry: RetryPolicy | None = None,
                 breaker: BreakerConfig | None = BreakerConfig(),
                 fault_injector=None,
                 fallback: bool = True,
                 admission: AdmissionConfig | AdmissionController | None = None,
                 retry_budget: RetryBudgetConfig | RetryBudget | None = None,
                 shards: int | str | None = None,
                 store=None,
                 warm_start: bool = False,
                 seed: int = 0,
                 obs: Obs | None = None) -> None:
        self.device = get_device(device)
        if shards is not None and shards != "auto":
            shards = int(shards)
            check(shards >= 1, "shards must be >= 1 (or 'auto')")
            if shards == 1:
                shards = None  # S=1 is exactly the unsharded path
        if obs is None or not obs.enabled:
            obs = Obs()
        self.obs = obs
        if fault_injector is not None:
            fault_injector.bind(obs)
        self.registry = PlanRegistry(cache_budget_bytes,
                                     fault_injector=fault_injector, obs=obs,
                                     store=store, device=self.device)
        self.warm_start = bool(warm_start)
        self.batcher = RequestBatcher(max_batch, flush_timeout_s)
        self.stats = ServerStats(device=self.device.name, obs=obs)
        self.default_deadline_s = default_deadline_s
        self.breaker = (CircuitBreaker(breaker, obs=obs)
                        if breaker is not None else None)
        if admission is None or isinstance(admission, AdmissionController):
            self.admission = admission
        else:
            self.admission = AdmissionController(admission, obs=obs)
        if retry_budget is None or isinstance(retry_budget, RetryBudget):
            self.retry_budget = retry_budget
        else:
            self.retry_budget = RetryBudget(retry_budget, obs=obs)
        self.scheduler = Scheduler(
            self._execute_batch, workers=workers, queue_depth=queue_depth,
            policy=policy, on_shed=self._shed_batch,
            on_error=self._fail_batch, prune=self._prune_batch, obs=obs)
        self._matrices: dict[str, object] = {}
        self.clock = WallClock()
        self.core = ExecutionCore(
            device=self.device, registry=self.registry, stats=self.stats,
            obs=obs, cost=CostModel(self.device, workers=workers),
            clock=self.clock,
            executor=NumericExecutor(obs, lanes=workers,
                                     submit_task=self.scheduler.submit_task),
            outcomes=self, matrices=self._matrices, breaker=self.breaker,
            injector=fault_injector, retry=retry, retry_rng=default_rng(seed),
            retry_budget=self.retry_budget, fallback=fallback, shards=shards,
            shard_workers=workers, shard_k=max_batch)
        self._futures: dict[int, Future] = {}
        self._lock = threading.Lock()
        self._next_id = 0
        self._closed = False
        self._stop = threading.Event()
        self._flusher = threading.Thread(target=self._flush_loop,
                                         name="serve-flusher", daemon=True)
        self._flusher.start()

    @property
    def fault_injector(self):
        """The installed :class:`~repro.resilience.FaultInjector` (may be
        swapped after construction; also set ``registry.fault_injector``
        to reach the plan cache)."""
        return self.core.injector

    @fault_injector.setter
    def fault_injector(self, injector) -> None:
        if injector is not None:
            # as at construction: firings count in this server's stats
            injector.bind(self.obs)
        self.core.injector = injector

    # ------------------------------------------------------------------
    def register(self, csr) -> str:
        """Make *csr* servable; returns its routing fingerprint (with
        ``warm_start=True``, after :meth:`warm` preloads its plan)."""
        fp = matrix_fingerprint(csr)
        with self._lock:
            if self._closed:
                raise ServerClosedError("server is closed")
            self._matrices[fp] = csr
        if self.warm_start:
            self.warm([fp])
        return fp

    def warm(self, fingerprints) -> int:
        """Preload *fingerprints*' plans from the store, on the caller's
        thread (:meth:`ExecutionCore.warm`, store-only: the
        load-vs-rebuild gate is bypassed and nothing is built).

        Best-effort: no store, a missing or corrupt artifact, or a plan
        already resident just means nothing is loaded.  The modeled
        load seconds are charged to ``preprocess_s``.  Returns how many
        plans were loaded."""
        return sum(self.core.warm(fp, build=False) is not None
                   for fp in fingerprints)

    def submit(self, request) -> Future:
        """Queue one request; the future resolves to its result.

        Takes a typed request object — :class:`~repro.serve.SpMVRequest`
        for ``y = A @ x`` (future resolves to the ``(m,)`` vector) or
        :class:`~repro.serve.SpMMRequest` for ``Y = A @ X`` (future
        resolves to the ``(m, k)`` block) — carrying its keyword-only
        ``deadline_us`` / ``priority`` / ``shards``.  The submitted
        object is never mutated; bookkeeping happens on a private
        copy, so the same request may be re-issued (e.g. by the
        router's hedging path).

        Invalid inputs fail immediately on the caller thread: not a
        request object, an unknown fingerprint, a wrong-shape or
        non-finite payload, or a closed server
        (:class:`ServerClosedError`).  Deadlines are relative budgets
        from now (falling back to the server-wide default); once
        passed, the future fails with :class:`DeadlineExceededError`
        instead of occupying a slot.  With admission control
        installed, an over-rate request fails here with
        :class:`~repro.overload.AdmissionRejectedError`
        (``priority="batch"`` traffic is shed first).  Raises
        :class:`~repro.serve.scheduler.QueueFullError` when the batch
        this request completes meets ``"reject"`` backpressure (the
        batch's other futures fail with it); under ``"shed"`` the
        displaced batch's futures fail with :class:`RequestShedError`.
        """
        check(isinstance(request, (SpMVRequest, SpMMRequest)),
              "submit() takes an SpMVRequest or SpMMRequest")
        fingerprint = request.fingerprint
        with self._lock:
            if self._closed:
                raise ServerClosedError("server is closed")
            csr = self._matrices.get(fingerprint)
        if csr is None:
            raise ReproError(f"unknown matrix fingerprint {fingerprint!r}")
        x = np.asarray(request.x)
        if isinstance(request, SpMMRequest):
            check(x.ndim == 2 and x.shape[0] == csr.shape[1]
                  and x.shape[1] >= 1,
                  f"X must have shape ({csr.shape[1]}, k) with k >= 1")
        else:
            check(x.shape == (csr.shape[1],),
                  f"x must have shape ({csr.shape[1]},)")
        check(bool(np.isfinite(x).all()), "x must be finite (no NaN/Inf)")
        if self.admission is not None:
            self.admission.admit(request.priority, self.clock.now())  # may raise
        if request.shards is not None:
            self.core.shard_hints.setdefault(fingerprint, request.shards)
        deadline_rel = (request.deadline_us * 1e-6
                        if request.deadline_us is not None
                        else self.default_deadline_s)
        now = self.clock.now()
        deadline = (float("inf") if deadline_rel is None
                    else now + deadline_rel)
        future: Future = Future()
        with self._lock:
            req_id = self._next_id
            self._next_id += 1
            self._futures[req_id] = future
        # Private bookkeeping copy: the caller's object stays pristine.
        req = replace(request, x=x, req_id=req_id, arrival_s=now,
                      deadline_s=deadline, result=None,
                      completion_s=float("nan"), pair=None, shadow=False)
        self.stats.observe_request()
        if isinstance(req, SpMMRequest):
            # A block is already a batch — skip the coalescer.
            full = Batch(fingerprint=fingerprint, requests=[req],
                         formed_s=self.clock.now())
        else:
            full = self.batcher.add(req, self.clock.now())
        if full is not None and not self._dispatch(full):
            # the caller hears about its own request synchronously
            with self._lock:
                self._futures.pop(req_id, None)
            raise QueueFullError(
                f"batch queue full ({self.scheduler.queue_depth} batches)")
        if self.retry_budget is not None:
            self.retry_budget.on_request()
        return future

    def signals(self) -> dict:
        """Raw health signals for cluster routing (:mod:`repro.cluster`).

        ``queue_depth`` and ``open_circuits`` are instantaneous;
        ``deadline_exceeded`` / ``requests`` are cumulative so the
        router can compute a miss *rate* between its own probes.
        """
        return {
            "queue_depth": self.scheduler.backlog(),
            "open_circuits": (self.breaker.open_count()
                              if self.breaker is not None else 0),
            "deadline_exceeded": self.stats.n_deadline_exceeded,
            "requests": self.stats.n_requests,
        }

    def flush(self) -> None:
        """Force-flush all pending partial batches to the workers."""
        for batch in self.batcher.flush_all(self.clock.now()):
            self._dispatch(batch)

    def drain(self, timeout: float | None = None) -> bool:
        """Flush then wait for every in-flight batch to finish."""
        self.flush()
        return self.scheduler.drain(timeout)

    def close(self, timeout: float | None = None, *, drain: bool = True) -> None:
        """Shut down; never leaks a future.

        ``drain=True`` (default) executes what it can first; with
        ``drain=False`` (abort) pending batches are dropped.  Either
        way, every future still unresolved afterwards — parked in the
        batcher, dropped from the queue, or raced in by a concurrent
        :meth:`submit` — fails with :class:`ServerClosedError`.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._stop.set()
        if drain:
            try:
                self.drain(timeout)
            except ReproError:
                pass  # backpressure mid-shutdown: leftovers swept below
        self.scheduler.close(drain=drain, timeout=timeout)
        self._flusher.join(timeout)
        self._fail_parked()
        self.stats.duration_s = self.clock.now()
        # Cache, breaker and fault counters already live in the shared
        # registry (one source of truth); only the non-counter breaker
        # state map is copied for the report.
        if self.breaker is not None:
            self.stats.breaker_state = self.breaker.snapshot()

    def __enter__(self) -> "SpMVServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _dispatch(self, batch: Batch) -> bool:
        """Hand *batch* to the workers; False when it was rejected.

        Under ``"reject"`` backpressure the batch's futures fail with
        :class:`QueueFullError` and count as rejected — a batch already
        popped from the batcher must never be dropped silently.  A
        closed scheduler leaves the futures to :meth:`close`'s sweep.
        """
        try:
            self.scheduler.submit(batch)
        except QueueFullError as exc:
            self.stats.observe_rejected(len(batch.requests))
            self._fail_batch(batch, exc)
            return False
        except ReproError:
            pass  # shutting down: close() fails what is left
        return True

    def _flush_loop(self) -> None:
        # Wake a few times per timeout window; wall-clock flushing only
        # bounds latency, it does not affect modeled throughput.  The
        # stop event (not a sleep) keeps shutdown prompt even when the
        # flush timeout is long.
        interval = max(self.batcher.flush_timeout_s / 4, 1e-4)
        while not self._stop.wait(interval):
            for batch in self.batcher.due(self.clock.now()):
                self._dispatch(batch)

    def _fail_parked(self) -> None:
        """Fail every still-unresolved future with ServerClosedError."""
        for batch in self.batcher.flush_all(self.clock.now()):
            for req in batch.requests:
                fut = self._pop_future(req.req_id)
                if fut is not None:
                    self.stats.observe_closed()
                    fut.set_exception(ServerClosedError(
                        f"request {req.req_id} unserved at shutdown"))
        with self._lock:
            leftovers = list(self._futures.items())
            self._futures.clear()
        for req_id, fut in leftovers:
            self.stats.observe_closed()
            fut.set_exception(ServerClosedError(
                f"request {req_id} unserved at shutdown"))

    # ------------------------------------------------------------------
    # batch execution (scheduler worker context): outcome hooks of the
    # shared core
    # ------------------------------------------------------------------
    def _prune_batch(self, batch: Batch) -> Batch | None:
        """Scheduler dequeue hook: drop expired requests before work."""
        self.core.expire(batch)
        return batch if batch.requests else None

    def _execute_batch(self, batch: Batch) -> None:
        # no version fence on the server: a batch reads the matrix
        # version current when it executes
        self.core.execute(batch, version=self.registry.version_of(
            batch.fingerprint))

    @staticmethod
    def terminal(reqs) -> int:
        return len(reqs)

    @staticmethod
    def settle(batch: Batch, Y, done: float, degraded: bool) -> list:
        batch.scatter(Y, done)
        return batch.requests

    def deliver(self, reqs, error: Exception | None = None) -> None:
        for req in reqs:
            fut = self._pop_future(req.req_id)
            if fut is None:
                continue
            if error is None:
                fut.set_result(req.result)
            else:
                fut.set_exception(error)

    def _shed_batch(self, batch: Batch) -> None:
        self.stats.observe_shed(len(batch.requests))
        self.deliver(batch.requests, RequestShedError(
            f"{len(batch.requests)} request(s) shed under backpressure"))

    def _fail_batch(self, batch: Batch, exc: Exception) -> None:
        self.deliver(batch.requests, exc)

    def _pop_future(self, req_id: int) -> Future | None:
        with self._lock:
            return self._futures.pop(req_id, None)
