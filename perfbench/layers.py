"""Layer entry points the traced run wraps, and the per-layer metric list.

Layers are named after the ``repro`` modules.  Every traced run prints
every metric in :data:`PER_LAYER`; a layer a workload does not touch
reads 0 there (for example ``gpu.*`` on ``kernel``).
"""

from __future__ import annotations

import os
import time

from repro.core import delta as core_delta
from repro.core import spmm as core_spmm
from repro.core import spmv as core_spmv
from repro.core.format import DASPMatrix
from repro.formats.csr import CSRMatrix
from repro.gpu import cost_model as gpu_cost_model
from repro.gpu import memory as gpu_memory
from repro.serve import plan_nbytes
from repro.serve.plan_cache import PlanRegistry
from repro.store.store import PlanStore

from .common import median
from .trace import SpanRecorder, Target

#: (name, unit) of every per-layer metric, in print order.
PER_LAYER = [
    ("gpu.sector_counts.calls", "count"), ("gpu.sector_counts.self_s", "s"),
    ("gpu.spmm_events.calls", "count"), ("gpu.spmm_events.self_s", "s"),
    ("gpu.estimate_time.calls", "count"), ("gpu.estimate_time.self_s", "s"),
    ("core.mma_utilization.calls", "count"),
    ("core.mma_utilization.self_s", "s"),
    ("core.preprocess.calls", "count"), ("core.preprocess.self_s", "s"),
    ("core.spmv.calls", "count"), ("core.spmv.self_s", "s"),
    ("core.spmv.gflops", "GFLOP/s"), ("core.spmv.bytes_computed", "B"),
    ("core.spmm.calls", "count"), ("core.spmm.self_s", "s"),
    ("core.spmm.gflops", "GFLOP/s"), ("core.spmm.bytes_computed", "B"),
    ("core.delta.calls", "count"), ("core.delta.self_s", "s"),
    ("core.delta.compactions", "count"),
    ("baselines.csr.gflops", "GFLOP/s"),
    ("serve.plan_cache.calls", "count"), ("serve.plan_cache.self_s", "s"),
    ("serve.plan_cache.hit_ratio", "fraction"),
    ("serve.plan_cache.builds", "count"),
    ("serve.batcher.batches", "count"), ("serve.batcher.mean_batch", "requests"),
    ("serve.scheduler.queue_wait_s", "s"), ("serve.scheduler.rejected", "count"),
    ("serve.server.lost", "count"),
    ("cluster.driver.self_s", "s"),
    ("store.put.calls", "count"), ("store.put.self_s", "s"),
    ("store.put.bytes", "B"),
    ("store.put_delta.calls", "count"), ("store.put_delta.self_s", "s"),
    ("store.load.calls", "count"), ("store.load.self_s", "s"),
    ("cluster.updates_broadcast", "count"),
    ("cluster.routed_share_max", "fraction"),
    ("trace.overhead_frac", "fraction"),
]


def _kernel_work(plan, x, y, k: int) -> dict:
    """Flops and bytes of one DASP kernel call, computed from array sizes:
    the plan's packed arrays read once, the RHS read, the result written."""
    return {"flops": 2.0 * plan.nnz * k,
            "bytes": plan_nbytes(plan) + x.nbytes + y.nbytes}


def _spmv_meter(args, kwargs, y):
    return _kernel_work(args[0], args[1], y, 1)


def _spmm_meter(args, kwargs, Y):
    X = args[1]
    return _kernel_work(args[0], X, Y, X.shape[1])


def _csr_meter(args, kwargs, y):
    return {"flops": 2.0 * args[0].nnz}


def _delta_meter(args, kwargs, result):
    return {"compactions": int(result[1].compacted)}


def _put_meter(args, kwargs, path):
    return {"bytes": os.path.getsize(path)}


def targets() -> list[Target]:
    return [
        Target("gpu.sector_counts", gpu_memory, "sector_counts"),
        Target("gpu.spmm_events", core_spmm, "spmm_events"),
        Target("gpu.estimate_time", gpu_cost_model, "estimate_time"),
        Target("core.mma_utilization", core_spmm, "mma_utilization"),
        Target("core.preprocess", DASPMatrix, "from_csr"),
        Target("core.spmv", core_spmv, "dasp_spmv", _spmv_meter),
        Target("core.spmm", core_spmm, "dasp_spmm", _spmm_meter),
        Target("core.delta", core_delta, "apply_update", _delta_meter),
        Target("baselines.csr", CSRMatrix, "matvec", _csr_meter),
        Target("serve.plan_cache", PlanRegistry, "get"),
        Target("serve.plan_cache", PlanRegistry, "get_ex"),
        Target("serve.plan_cache", PlanRegistry, "warm"),
        Target("serve.plan_cache", PlanRegistry, "update"),
        Target("store.put", PlanStore, "put", _put_meter),
        Target("store.put_delta", PlanStore, "put_delta"),
        Target("store.load", PlanStore, "load"),
    ]


def layer_metrics(rec, ops: int, extra: dict) -> dict:
    """Per-layer metric values: span counts, seconds and bytes per traced
    op, plus the workload's own counters in ``extra`` (name -> value)."""
    agg = rec.layers()
    values = {name: 0.0 for name, _ in PER_LAYER}
    for layer, a in agg.items():
        for key in ("calls", "self_s"):
            if f"{layer}.{key}" in values:
                values[f"{layer}.{key}"] = a[key] / ops
    for layer in ("core.spmv", "core.spmm"):
        a = agg.get(layer)
        if a and a["self_s"] > 0:
            values[f"{layer}.gflops"] = a["flops"] / a["self_s"] / 1e9
            values[f"{layer}.bytes_computed"] = a["bytes"] / ops
    a = agg.get("baselines.csr")
    if a and a["self_s"] > 0:
        values["baselines.csr.gflops"] = a["flops"] / a["self_s"] / 1e9
    values["core.delta.compactions"] = (
        agg.get("core.delta", {}).get("compactions", 0) / ops)
    values["store.put.bytes"] = agg.get("store.put", {}).get("bytes", 0) / ops
    values["serve.plan_cache.builds"] = rec.count_within(
        "core.preprocess", "serve.plan_cache") / ops
    values.update(extra)
    units = dict(PER_LAYER)
    return {name: {"value": float(values[name]), "unit": units[name]}
            for name, _ in PER_LAYER}


#: A traced run makes at least this many untraced/traced op pairs.
TRACE_PAIRS = 2


def traced_run(rep, op, extra, seconds: float, prepare=None):
    """Fill ``rep`` with per-layer metrics.

    ``op(rec)`` does a fixed amount of work and returns how many requests
    it made; ``rec`` is the recorder on traced ops and ``None`` on the
    others.  Untraced and traced ops alternate, at least ``TRACE_PAIRS``
    pairs and until ``seconds`` have passed.  The spans of the traced ops
    give the layer metrics, per traced op, and ``trace.overhead_frac`` is
    the traced request rate's shortfall against the untraced one.
    ``extra(ops)`` returns the workload's own counters, read after the
    last op, given the number of traced ops.  ``prepare()``, if given,
    runs before every op, untimed and untraced.
    """
    rec = SpanRecorder()
    plain, traced = [], []
    t_end = time.perf_counter() + seconds
    while len(traced) < TRACE_PAIRS or time.perf_counter() < t_end:
        if prepare is not None:
            prepare()
        t0 = time.perf_counter()
        n = op(None)
        plain.append(n / (time.perf_counter() - t0))
        if prepare is not None:
            prepare()
        with rec.installed(targets()):
            t0 = time.perf_counter()
            n = op(rec)
            traced.append(n / (time.perf_counter() - t0))
    counters = dict(extra(len(traced)))
    counters["trace.overhead_frac"] = 1.0 - median(traced) / median(plain)
    rep.metrics = layer_metrics(rec, len(traced), counters)
    rep.recorder = rec
    return rep
