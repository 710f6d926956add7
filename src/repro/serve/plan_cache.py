"""Plan registry — cached DASP preprocessing keyed by matrix fingerprint.

The paper's Figure 13 shows preprocessing (CSR -> DASP layout) costs
tens to hundreds of SpMV invocations.  A server must therefore pay it
once per matrix and reuse the plan across requests.  The registry is an
LRU cache of :class:`~repro.core.format.DASPMatrix` plans under a
configurable byte budget (the device-resident footprint of the packed
arrays), with explicit hit / miss / eviction accounting so serving
experiments can report the amortization.

With a :class:`repro.store.PlanStore` configured (``store=``), the
registry becomes the RAM tier of a two-tier hierarchy: misses try a
disk load before building (when the cost model says the load is
cheaper), builds write through to disk, evictions spill any plan the
store does not yet hold, and plans over the RAM budget are served
**load-through** from disk instead of failing with
:class:`PlanTooLargeError`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import NamedTuple

import numpy as np

from .._util import check
from ..core.classify import DEFAULT_MAX_LEN
from ..core.format import DASPMatrix
from ..core.medium_rows import DEFAULT_THRESHOLD
from ..gpu.mma import shape_for_dtype
from ..resilience.errors import PlanTooLargeError
from ..store import fingerprint_csr

#: Default cache budget: 256 MiB of packed plan arrays.
DEFAULT_BUDGET_BYTES = 256 * 1024 * 1024

#: Canonical content fingerprint (shape, dtype and CSR payload) — the
#: one key the plan cache, the artifact store and request routing all
#: share.  Alias of :func:`repro.store.fingerprint_csr`.
matrix_fingerprint = fingerprint_csr


def plan_nbytes(dasp, *, include_csr: bool = False) -> int:
    """Byte footprint of a plan's arrays.

    The default sums exactly the packed per-category arrays (values,
    column ids, pointers, row indices) a real server keeps resident on
    the GPU between requests — the figure charged against the registry
    budget.  ``include_csr=True`` adds the host-side source CSR arrays,
    which is what the on-disk artifact stores; both figures walk the
    same :meth:`~repro.core.DASPMatrix.array_inventory`, so the
    registry budget and the artifact size always agree on what they
    count.  A composite :class:`repro.shard.ShardedPlan` is the sum
    over its shards.
    """
    inventory = dasp.array_inventory(include_csr=include_csr)
    return int(sum(np.asarray(v).nbytes for v in inventory.values()))


class Derivation(NamedTuple):
    """One derived version ``fp@v{version}``: *plan* and *info* are
    what applying *delta* to *source* (the plan at ``version - 1``)
    yielded.  Registries that apply one delta stream in lockstep (the
    cluster driver's replicas) share the latest per fingerprint through
    :meth:`PlanRegistry.update`'s ``derivations`` memo."""

    delta: object
    version: int
    source: object
    plan: object
    info: object


def _clean_layout(plan):
    """Layout key of a plan that carries no patch state, else ``None``.

    A plan is clean when no band has dirty rows or an overlay.  Two
    clean plans of one matrix version with equal keys (plan kind and
    each band's rows, MMA shape, MAX_LEN and threshold) hold the same
    packed arrays, so one delta derives the same next plan and the same
    :class:`~repro.core.delta.PatchInfo` from either.
    """
    bands = plan.bands()
    for _, _, d in bands:
        st = d.delta
        if st is not None and (st.dirty.size or st.overlay is not None):
            return None
    return type(plan), tuple((a, b, d.mma_shape, d.max_len, d.threshold)
                             for a, b, d in bands)


def _adoptable(memo: Derivation | None, delta, version: int, plan,
               csr=None) -> bool:
    """Whether *memo* is exactly what applying *delta* to *plan* as
    version *version* would derive — or, with no *plan*, to the default
    :meth:`DASPMatrix.from_csr` build of *csr*."""
    if memo is None or memo.delta is not delta or memo.version != version:
        return False
    if memo.source is plan:
        return True
    if plan is not None:
        key = _clean_layout(plan)
    else:
        key = (DASPMatrix, ((0, csr.shape[0], shape_for_dtype(csr.data.dtype),
                             DEFAULT_MAX_LEN, DEFAULT_THRESHOLD),))
    return key is not None and key == _clean_layout(memo.source)


class PlanRegistry:
    """LRU cache of DASP plans under a byte budget (thread-safe).

    Parameters
    ----------
    budget_bytes:
        Maximum total :func:`plan_nbytes` held.  A plan that alone
        exceeds the whole budget is *rejected* with
        :class:`~repro.resilience.errors.PlanTooLargeError` instead of
        thrash-evicting every other entry — the server answers such
        matrices from the plan-free fallback path.
    fault_injector:
        Optional :class:`repro.resilience.FaultInjector`; its
        ``cache_pressure`` rules shrink the effective budget per
        insertion, simulating device-memory pressure.
    obs:
        Optional :class:`repro.obs.Obs` handle.  The ``hits`` /
        ``misses`` / ``evictions`` / ``bytes_cached`` attributes are
        facades over its registry (``serve.plan_cache.*``), so a
        registry sharing the server's handle feeds ``ServerStats``
        directly — no copy-at-close step.  Defaults to a fresh private
        handle (per-run-object convention).
    store:
        Optional disk tier: a :class:`repro.store.PlanStore`, or a
        path-like to open one at.  The store is re-bound to this
        registry's ``obs`` handle so its ``store.*`` counters land in
        the same report.
    device:
        Device whose cost model gates disk loads (load-vs-rebuild);
        only consulted when a store is configured.
    """

    def __init__(self, budget_bytes: int = DEFAULT_BUDGET_BYTES, *,
                 fault_injector=None, obs=None, store=None,
                 device="A100") -> None:
        from ..obs import Obs

        check(budget_bytes >= 0, "budget_bytes must be non-negative")
        self.budget_bytes = int(budget_bytes)
        self.device = device
        self.fault_injector = fault_injector
        if obs is None or not obs.enabled:
            obs = Obs()
        self.obs = obs
        if store is not None and not hasattr(store, "load"):
            from ..store import PlanStore

            store = PlanStore(store, device=device)
        self.store = store
        if store is not None:
            store.device = device
            store.bind(obs)
        self._hits = obs.counter("serve.plan_cache.hits_total")
        self._misses = obs.counter("serve.plan_cache.misses_total")
        self._evictions = obs.counter("serve.plan_cache.evictions_total")
        self._spills = obs.counter("serve.plan_cache.spills_total")
        self._store_loads = obs.counter("serve.plan_cache.store_loads_total")
        self._load_modeled = obs.counter(
            "serve.plan_cache.load_modeled_seconds_total")
        self._oversized = obs.counter("serve.plan_cache.oversized_total")
        self._delta_value = obs.counter("delta.value_total")
        self._delta_structural = obs.counter("delta.structural_total")
        self._delta_compaction = obs.counter("delta.compaction_total")
        self._patch_modeled = obs.counter("delta.patch_modeled_seconds_total")
        self._rebuild_modeled = obs.counter(
            "delta.rebuild_modeled_seconds_total")
        self._bytes = obs.gauge("serve.plan_cache.bytes")
        self._plans: OrderedDict[str, tuple[DASPMatrix, int]] = OrderedDict()
        # Bytes resident in *this* registry.  The gauge above is only a
        # mirror: several registries may share one Obs handle (the
        # cluster driver's replicas do), which makes the gauge the sum
        # across all of them — an eviction loop keyed on it would
        # thrash-evict one registry's working set chasing another's
        # bytes and never converge.  All budget decisions read this
        # local figure; the gauge is maintained by deltas.
        self._resident_bytes = 0
        self._lock = threading.RLock()
        # single-flight: fingerprints whose plan is being built right now;
        # concurrent misses on the same key wait on the condition instead
        # of each running the expensive conversion (dogpile).
        self._building: set[str] = set()
        self._build_cond = threading.Condition(self._lock)
        # MatrixVersion chain: base fingerprint -> current version (0 =
        # the original build; version v lives under key "fp@v{v}").
        self._versions: dict[str, int] = {}
        # State derived from one version's plan (see derived()).
        self._derived: dict[str, object] = {}

    # ------------------------------------------------------------------
    # read-only counter facades (counters only grow)
    # ------------------------------------------------------------------
    @property
    def hits(self) -> int:
        return int(self._hits.value)

    @property
    def misses(self) -> int:
        return int(self._misses.value)

    @property
    def evictions(self) -> int:
        return int(self._evictions.value)

    @property
    def bytes_cached(self) -> int:
        """Bytes resident in this registry (the figure the budget
        governs).  With a private Obs handle it equals the
        ``serve.plan_cache.bytes`` gauge; with a shared handle the
        gauge is the sum across registries instead."""
        with self._lock:
            return self._resident_bytes

    def _account(self, delta: int) -> None:
        """Adjust resident bytes (caller holds the lock) and mirror the
        change into the shared gauge."""
        self._resident_bytes += delta
        self._bytes.inc(delta)

    # ------------------------------------------------------------------
    # MatrixVersion chain (repro.core.delta)
    # ------------------------------------------------------------------
    @staticmethod
    def split_version(key: str) -> tuple[str, int]:
        """``"fp@v3" -> ("fp", 3)``; a bare fingerprint is version 0 —
        never "current" (a caller that means current asks
        :meth:`version_of`)."""
        base, sep, v = key.partition("@v")
        return (base, int(v)) if sep else (key, 0)

    @staticmethod
    def versioned_key(base: str, version: int) -> str:
        return base if version == 0 else f"{base}@v{int(version)}"

    def version_of(self, fingerprint: str) -> int:
        """Current version of a base fingerprint (0 until updated) —
        the figure the serving layer stamps onto requests at submit
        time (the version fence)."""
        with self._lock:
            return self._versions.get(fingerprint, 0)

    def start_at(self, fingerprint: str, version: int) -> None:
        """Place *fingerprint*'s chain at *version* with no plan resident
        (a replica joining peers whose chain has advanced)."""
        with self._lock:
            self._versions[fingerprint] = int(version)

    def pin(self, key: str, reads=()) -> str:
        """The key a read of version *key* is served at: its own when
        current or resident, else the current version's.  Only the
        current version is ever built or loaded, so a retired version is
        never rebuilt from a newer matrix.  *reads* (the requests
        served) are re-stamped to it and counted in
        ``serve.version_restamped_total``."""
        base, version = self.split_version(key)
        key = self.versioned_key(base, version)
        with self._lock:
            cur = self._versions.get(base, 0)
            if version == cur or key in self._plans:
                return key
            for r in reads:
                r.version = cur
            if reads:
                self.obs.counter("serve.version_restamped_total").inc(
                    len(reads))
            return self.versioned_key(base, cur)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def __contains__(self, fingerprint: str) -> bool:
        key = self.versioned_key(*self.split_version(fingerprint))
        with self._lock:
            return key in self._plans

    def get(self, csr, *, fingerprint: str | None = None,
            builder=None) -> tuple[DASPMatrix, bool]:
        """Return ``(plan, hit)`` for *csr*, building and caching on miss.

        ``builder(csr) -> DASPMatrix`` overrides the default
        :meth:`DASPMatrix.from_csr` conversion (e.g. to pass tuning
        parameters); ``fingerprint`` skips re-hashing when the caller
        already holds the key.  ``hit`` means *RAM* hit; a plan read
        back from the disk tier counts as a miss here (use
        :meth:`get_ex` to distinguish).

        Concurrent misses on one fingerprint are **single-flight**: the
        first caller builds, later callers block until the build lands
        and then return it as a hit.  Misses on *different* fingerprints
        still build concurrently.  If the build fails (e.g.
        :class:`PlanTooLargeError`), one waiter takes over as the next
        builder and the error propagates to the failed caller.
        """
        plan, source, _ = self.get_ex(csr, fingerprint=fingerprint,
                                      builder=builder)
        return plan, source == "ram"

    def get_ex(self, csr, *, fingerprint: str | None = None, builder=None,
               load_only: bool = False, speculative: bool = False,
               reads=()):
        """Two-tier lookup of version key *fingerprint*, served as
        :meth:`pin` says (re-stamping *reads*, the requests it serves);
        returns ``(plan, source, load_s)``.

        ``source`` is ``"ram"`` (cache hit), ``"store"`` (loaded from
        the disk tier; ``load_s`` is the *modeled* load seconds the
        caller should charge in place of a rebuild), ``"built"`` (the
        builder ran), or — only with ``load_only=True`` — ``"absent"``
        with ``plan=None`` when nothing was cached or stored, or
        ``"pending"`` when another thread is already loading/building
        it.  ``load_only`` never builds, never counts a miss, and never
        blocks: it is the warm-start / speculative prefetch path, which
        must not serialize behind the in-flight build it tries to hide.
        ``speculative=True`` is an acquisition ahead of demand: it loads
        or builds like a demand miss, but only a build counts as a miss.

        Store loads happen inside the same single-flight section as
        builds, so concurrent misses do one disk read, not N — a `warm`
        racing a `get` included.  A load only succeeds when the store's
        chain head is exactly the version asked for; a corrupt artifact
        is quarantined by the store and falls through to a fresh build.
        """
        key = fingerprint if fingerprint is not None else matrix_fingerprint(csr)
        with self._lock:
            while True:
                key = self.pin(key, reads)
                entry = self._plans.get(key)
                if entry is not None or key not in self._building:
                    break
                if load_only:
                    return None, "pending", 0.0
                self._build_cond.wait()
            base, version = self.split_version(key)
            if entry is not None:
                self._plans.move_to_end(key)
                self._hits.inc()
                return entry[0], "ram", 0.0
            if load_only and (self.store is None
                              or not self.store.contains(base)):
                return None, "absent", 0.0
            self._building.add(key)
            if not (load_only or speculative):
                self._misses.inc()
        # Load/build outside the lock: both are the expensive part and
        # must not serialize concurrent misses on other matrices.
        try:
            if self.store is not None:
                loaded = self._load_from_store(base, version,
                                               gate=not load_only)
                if loaded is not None:
                    plan, load_s = loaded
                    self._insert(key, plan)
                    return plan, "store", load_s
            if load_only:
                return None, "absent", 0.0
            if speculative:
                self._misses.inc()
            plan = (builder(csr) if builder is not None
                    else DASPMatrix.from_csr(csr))
            self.put(key, plan)
        finally:
            with self._lock:
                self._building.discard(key)
                self._build_cond.notify_all()
        return plan, "built", 0.0

    def warm(self, fingerprint: str) -> float | None:
        """Preload *fingerprint* from the disk tier (never builds).

        Returns the modeled load seconds on success, ``None`` when the
        registry has no store, the artifact is absent or corrupt, or
        the plan was already cached.  The cost gate is bypassed: an
        explicit warm-start pays the load off the serving clock, so it
        is worth doing even when an in-band rebuild would be cheaper.
        """
        plan, source, load_s = self.get_ex(None, fingerprint=fingerprint,
                                           load_only=True)
        return load_s if source == "store" else None

    def derived(self, key: str, make):
        """State derived from version *key*'s plan, made once per key.

        ``make()`` runs on the first call for *key*, outside the lock
        (racing callers keep the first stored result) — e.g. the
        per-band row orders of :meth:`ExecutionCore.strategy`.  An entry
        lives as long as its version: the v/v-1 retention of
        :meth:`update` and :meth:`rollback` drop it with the version's
        plan; LRU eviction of the plan does not.
        """
        with self._lock:
            got = self._derived.get(key)
        if got is None:
            got = make()
            with self._lock:
                got = self._derived.setdefault(key, got)
        return got

    def load_aux(self, fingerprint: str) -> dict | None:
        """Auxiliary arrays published with *fingerprint*'s artifact.

        Passthrough to :meth:`repro.store.PlanStore.load_aux` — e.g.
        the tuned ``spmm.reorder_perm`` permutation the ``spmm`` CLI
        persists.  ``None`` without a store or when the artifact is
        absent/corrupt; an empty dict when it carries no aux records.
        """
        if self.store is None:
            return None
        return self.store.load_aux(fingerprint)

    def _load_from_store(self, base: str, version: int, *,
                         gate: bool = True):
        """One traced disk-tier load attempt (inside single-flight).

        Returns ``(plan, load_s)``, or ``None`` unless the store
        reconstructs exactly *version* — a chain the store holds ahead
        of (or behind) this registry's is never adopted."""
        attrs = {"matrix": base[:8]} if self.obs.tracing else None
        with self.obs.span("plan.load", attrs=attrs) as sp:
            if self.store.current_version(base) != version:
                return None
            got = self.store.load(base, gate=gate)
            if got is None:
                return None
            plan, load_s = got
            self._store_loads.inc()
            self._load_modeled.inc(load_s)
            sp.set_device_time(load_s)
            if self.obs.tracing:
                sp.set_attr("modeled_s", load_s)
        return plan, load_s

    def update(self, fingerprint: str, delta, *, csr=None, builder=None,
               persist: bool = True, derivations: dict | None = None,
               heads: dict | None = None):
        """Advance *fingerprint*'s version chain by applying *delta*;
        returns ``(new_version, PatchInfo, new_plan)``.

        Patches the current plan instead of rebuilding: value updates
        patch a **clone** (reads pinned to the old version drain against
        unmodified slabs), structural updates reclassify only the
        touched rows into the patch overlay.  The new plan lands under
        ``fp@v{n+1}``; v-1 stays resident for drains, older versions
        retire.  With a store the delta is appended to the
        fingerprint's delta log (:meth:`repro.store.PlanStore.put_delta`)
        *before* the version becomes visible, so a crash leaves readers
        on the old, consistent version.  Rides single-flight on the new
        key: readers that resolved to it block until it lands.

        ``csr`` (the **pre**-update CSR) is the rebuild fallback when
        the current plan is neither cached nor loadable, built by
        ``builder(csr)`` as in :meth:`get_ex`.  ``heads`` (fingerprint
        -> head CSR) supplies ``csr`` and moves to the new CSR in the
        step that makes the new version current.  ``persist=False``
        skips the store write: replicas sharing one store let only the
        *home* replica write, or ``put_delta``'s contiguity check trips.

        ``derivations`` (fingerprint -> latest :class:`Derivation`) is a
        memo shared by registries applying one delta stream: the first
        to derive ``fp@v{n+1}`` records it; the others adopt its plan
        and ``PatchInfo`` when their current plan is the recorded input
        or both are clean with the same layout (:func:`_clean_layout`),
        and a registry with no plan and no ``builder`` adopts it when
        the recorded input has a default build's layout.  Counters, the
        patch charge and persistence stay per registry.
        """
        from ..core.delta import (ValueUpdate, apply_update, clone_for_patch,
                                  rebuild_events)
        from ..gpu.cost_model import estimate_preprocess_time

        base, req_v = self.split_version(fingerprint)
        check(not req_v,
              "update() takes a base fingerprint, not a versioned key")
        with self._lock:
            while True:
                cur_v = self._versions.get(base, 0)
                cur_key = self.versioned_key(base, cur_v)
                new_key = self.versioned_key(base, cur_v + 1)
                if (cur_key not in self._building
                        and new_key not in self._building):
                    break
                self._build_cond.wait()
            self._building.add(new_key)
            entry = self._plans.get(cur_key)
            plan = entry[0] if entry is not None else None
            if heads is not None:
                csr = heads[base]
        try:
            if plan is None and self.store is not None:
                loaded = self._load_from_store(base, cur_v, gate=False)
                if loaded is not None:
                    plan = loaded[0]
            new_v = cur_v + 1
            memo = derivations.get(base) if derivations is not None else None
            if plan is None and csr is not None and builder is None \
                    and _adoptable(memo, delta, new_v, None, csr):
                # the recorded input is what a rebuild would produce
                plan = memo.source
            if plan is None:
                if csr is None:
                    raise KeyError(
                        f"no current plan for {base[:8]}… and no csr= "
                        f"fallback to rebuild from")
                plan = (builder(csr) if builder is not None
                        else DASPMatrix.from_csr(csr))
            if _adoptable(memo, delta, new_v, plan):
                new_plan, info = memo.plan, memo.info
            else:
                work = (clone_for_patch(plan)
                        if isinstance(delta, ValueUpdate) else plan)
                new_plan, info = apply_update(work, delta)
                if derivations is not None and (
                        memo is None or memo.delta is not delta
                        or memo.version != new_v):
                    derivations[base] = Derivation(delta, new_v, plan,
                                                   new_plan, info)
            if self.store is not None and persist:
                self.store.put_delta(base, new_v, delta, seed_plan=plan)
            with self._lock:
                self._versions[base] = new_v
                if heads is not None:
                    heads[base] = new_plan.csr
            self._insert(new_key, new_plan)
            if isinstance(delta, ValueUpdate):
                self._delta_value.inc()
            else:
                self._delta_structural.inc()
            if info.compacted:
                self._delta_compaction.inc()
            self._patch_modeled.inc(info.seconds(self.device))
            self._rebuild_modeled.inc(estimate_preprocess_time(
                rebuild_events(new_plan), self.device))
            self._retire_versions(base, keep_min=new_v - 1)
            return new_v, info, new_plan
        finally:
            with self._lock:
                self._building.discard(new_key)
                self._build_cond.notify_all()

    def _retire_versions(self, base: str, *, keep_min: int) -> None:
        """Drop RAM entries of *base*'s chain older than *keep_min*.

        Retirement is version lifecycle, not cache pressure: it counts
        as neither an eviction nor a spill (versioned entries are
        reconstructable from the base artifact's delta chain).
        """
        with self._lock:
            self._drop_versions(base, lambda v: v < keep_min)

    def _drop_versions(self, base: str, drop) -> None:
        """Drop the RAM plans and :meth:`derived` state of *base*'s
        versions ``v`` with ``drop(v)`` (caller holds the lock)."""
        def stale(key: str) -> bool:
            b, v = self.split_version(key)
            return b == base and drop(v)

        for k in [k for k in self._plans if stale(k)]:
            self._account(-self._plans.pop(k)[1])
        for k in [k for k in self._derived if stale(k)]:
            del self._derived[k]

    def rollback(self, fingerprint: str, version: int):
        """Roll *fingerprint*'s chain back to *version* (cheap undo).

        The store is the source of truth for retained deltas, so a
        store is required; it truncates the fingerprint's delta log and
        replays the surviving records onto the artifact's base plan.
        Newer RAM entries are dropped so no lookup can resolve past the
        rollback point.  Returns the plan at *version*, or ``None`` when
        the store cannot reach it (outside the retained window).
        """
        check(self.store is not None,
              "rollback requires a store (deltas are not retained in RAM)")
        base, _ = self.split_version(fingerprint)
        target = self.versioned_key(base, version)
        with self._lock:
            while target in self._building:
                self._build_cond.wait()
            self._building.add(target)
        try:
            got = self.store.rollback(base, version)
            if got is None:
                return None
            plan = got[0]
            with self._lock:
                self._versions[base] = version
                self._drop_versions(base, lambda v: v > version)
            self._insert(target, plan)
            return plan
        finally:
            with self._lock:
                self._building.discard(target)
                self._build_cond.notify_all()

    def peek(self, fingerprint: str) -> DASPMatrix | None:
        """Return version key *fingerprint*'s cached plan without
        touching LRU order or counters (``None`` when not resident)."""
        key = self.versioned_key(*self.split_version(fingerprint))
        with self._lock:
            entry = self._plans.get(key)
            return entry[0] if entry is not None else None

    def effective_budget(self) -> int:
        """Byte budget after any injected cache pressure."""
        if self.fault_injector is not None:
            return self.fault_injector.effective_budget(self.budget_bytes)
        return self.budget_bytes

    def put(self, fingerprint: str, plan: DASPMatrix) -> None:
        """Insert (or refresh) a plan and evict LRU entries over budget.

        A plan that alone exceeds the (effective) budget raises
        :class:`PlanTooLargeError` when no store is configured —
        rejecting it outright beats evicting the whole working set for
        a matrix that cannot be cached anyway.  With a disk tier, the
        plan is persisted instead and served **load-through**: later
        lookups read it back from the store without ever occupying RAM
        budget.  In-budget builds write through to the store so a
        later process can warm-start from them.
        """
        nbytes = plan_nbytes(plan)
        budget = self.effective_budget()
        # Only v0 writes through as an artifact: update() appends the
        # chain to the base fingerprint's delta log (via
        # PlanStore.put_delta), and the store replays it on load — an
        # artifact per version would shadow that channel.
        base, version = self.split_version(fingerprint)
        if nbytes > budget:
            if self.store is not None:
                self._oversized.inc()
                if version == 0:
                    self.store.put(base, plan, overwrite=False)
                return
            raise PlanTooLargeError(
                f"plan {fingerprint[:8]}… needs {nbytes:,} bytes, over the "
                f"{budget:,}-byte cache budget")
        self._insert(self.versioned_key(base, version), plan, nbytes=nbytes,
                     budget=budget)
        if self.store is not None and version == 0 and base not in self.store:
            self.store.put(base, plan, overwrite=False)

    def _insert(self, fingerprint: str, plan, *, nbytes: int | None = None,
                budget: int | None = None) -> None:
        """RAM-tier insert + LRU eviction; evictees spill to the store.

        An over-budget plan is silently *not* inserted (the disk tier
        already holds it — this is the load-through path); the caller
        keeps serving the reference it was handed.
        """
        if nbytes is None:
            nbytes = plan_nbytes(plan)
        if budget is None:
            budget = self.effective_budget()
        if nbytes > budget:
            return
        evicted = []
        with self._lock:
            old = self._plans.pop(fingerprint, None)
            if old is not None:
                self._account(-old[1])
            self._plans[fingerprint] = (plan, nbytes)
            self._account(nbytes)
            # Evict down to (at worst) the just-inserted plan, judged by
            # *this* registry's resident bytes — never the shared gauge,
            # which may also count plans held by sibling registries and
            # would leave this loop spinning over budget forever.
            while self._resident_bytes > budget and len(self._plans) > 1:
                fp, (ev_plan, evicted_bytes) = self._plans.popitem(last=False)
                self._account(-evicted_bytes)
                self._evictions.inc()
                evicted.append((fp, ev_plan))
        # Spill outside the lock: serialization is the slow part.  The
        # write-through on build makes most spills no-ops (the artifact
        # already exists); racing spills of one fingerprint are safe —
        # content addressing makes both bytes identical and the rename
        # atomic.
        if self.store is not None:
            for key, ev_plan in evicted:
                # Later versions are reconstructable from the base
                # artifact's delta chain — spilling them would create
                # shadow artifacts the store never garbage-collects.
                base, version = self.split_version(key)
                if version == 0 and base not in self.store:
                    self.store.put(base, ev_plan, overwrite=False)
                    self._spills.inc()

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self._derived.clear()
            self._account(-self._resident_bytes)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, int]:
        """Counter snapshot for folding into :class:`ServerStats`."""
        with self._lock:
            snap = {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "bytes_cached": self.bytes_cached,
                "plans": len(self._plans),
            }
        if self.store is not None:
            snap.update({
                "spills": int(self._spills.value),
                "store_loads": int(self._store_loads.value),
                "oversized": int(self._oversized.value),
            })
        return snap
