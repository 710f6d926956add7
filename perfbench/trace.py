"""Span recorder for the traced run.

The recorder wraps the public entry points of each layer from outside
the program: a module-level function is replaced in every ``repro``
module namespace that holds it, a method on its class.  Each call
becomes a span (layer, start, end, parent, request id, metered work)
kept in memory; :meth:`SpanRecorder.dump` writes them out at the end.

A layer's self time is its spans' durations minus the part covered by
their child spans.  ``calls`` counts only outermost entries into a
layer, so a public function calling another public function of the
same layer counts once.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from types import ModuleType


@dataclass
class Span:
    layer: str
    start: float
    end: float = 0.0
    parent: int | None = None
    req: object = None
    work: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Target:
    """One entry point: ``owner.attr`` recorded as a span of ``layer``.

    ``meter(args, kwargs, result)`` may return a dict of work counts
    (flops, bytes, ...) summed per layer.
    """

    layer: str
    owner: object
    attr: str
    meter: object = None


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, req) -> None:
        """Tag the spans this thread opens from now on with ``req``."""
        self._local.req = req

    def _open(self, layer: str, req=None) -> tuple[int, Span]:
        stack = self._stack()
        if req is None:
            req = getattr(self._local, "req", None)
        if req is None and stack:
            req = self.spans[stack[-1]].req
        sp = Span(layer, time.perf_counter(), parent=stack[-1] if stack else None,
                  req=req)
        with self._lock:
            idx = len(self.spans)
            self.spans.append(sp)
        stack.append(idx)
        return idx, sp

    def _close(self, sp: Span) -> None:
        sp.end = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, layer: str, req=None):
        _, sp = self._open(layer, req)
        try:
            yield sp
        finally:
            self._close(sp)

    def wrap(self, layer: str, fn, meter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            _, sp = self._open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sp)
            if meter is not None:
                sp.work = meter(args, kwargs, result)
            return result
        return traced

    # -- installation ----------------------------------------------------
    def patch(self, owner, attr: str, value) -> None:
        """Set ``owner.attr``; :meth:`uninstall` restores the original."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self, targets) -> None:
        for t in targets:
            raw = t.owner.__dict__[t.attr]
            if isinstance(t.owner, ModuleType):
                new = self.wrap(t.layer, raw, t.meter)
                for mod in list(sys.modules.values()):
                    if not (getattr(mod, "__name__", "") or "").startswith(
                            ("repro", "perfbench")):
                        continue
                    for name, value in list(vars(mod).items()):
                        if value is raw:
                            self.patch(mod, name, new)
            elif isinstance(raw, classmethod):
                self.patch(t.owner, t.attr,
                            classmethod(self.wrap(t.layer, raw.__func__, t.meter)))
            else:
                self.patch(t.owner, t.attr, self.wrap(t.layer, raw, t.meter))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)

    @contextmanager
    def installed(self, targets):
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis --------------------------------------------------------
    def layers(self) -> dict[str, dict]:
        """layer -> {"calls", "self_s", **work sums}."""
        covered = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent is not None:
                covered[sp.parent] += sp.end - sp.start
        out: dict[str, dict] = {}
        for i, sp in enumerate(self.spans):
            agg = out.setdefault(sp.layer, {"calls": 0, "self_s": 0.0})
            parent = self.spans[sp.parent] if sp.parent is not None else None
            if parent is None or parent.layer != sp.layer:
                agg["calls"] += 1
            agg["self_s"] += max(sp.end - sp.start - covered[i], 0.0)
            for key, value in sp.work.items():
                agg[key] = agg.get(key, 0) + value
        return out

    def count_within(self, layer: str, ancestor: str) -> int:
        """Spans of ``layer`` that have an ``ancestor`` span above them."""
        n = 0
        for sp in self.spans:
            if sp.layer != layer:
                continue
            p = sp.parent
            while p is not None and self.spans[p].layer != ancestor:
                p = self.spans[p].parent
            n += p is not None
        return n

    def dump(self, path) -> None:
        t0 = min((sp.start for sp in self.spans), default=0.0)
        with open(path, "w") as fh:
            for i, sp in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "layer": sp.layer, "parent": sp.parent,
                    "start_s": sp.start - t0, "end_s": sp.end - t0,
                    "req": sp.req, "work": sp.work}) + "\n")
