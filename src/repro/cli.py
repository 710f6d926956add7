"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show the named matrices (Table 2 suite + highlight set).
``analyze MATRIX``
    Structure statistics, DASP category breakdown and a modeled
    all-methods comparison for a named matrix or a ``.mtx`` file.
``spmv MATRIX``
    Run a DASP SpMV (functionally) and report the modeled device time.
``spmm MATRIX``
    Sweep the large-k SpMM tuner (:mod:`repro.core.spmm_block`) over a
    list of right-hand-side widths, print the per-k strategy table
    (looped vs tiled vs reordered, modeled speedups, tile padding) and
    verify the chosen execution bitwise against column-wise SpMV;
    ``--store DIR`` publishes the plan with the winning reorder
    permutation as artifact aux records.
``bench``
    Sweep a small synthetic collection and print DASP-vs-baseline
    speedup summaries (a miniature Figure 10).
``convert``
    Convert between MatrixMarket ``.mtx`` and compressed ``.npz``
    matrix files (either direction, by extension).
``serve-sim``
    Simulate the batched, plan-cached SpMV serving layer
    (:mod:`repro.serve`) on synthetic open-loop traffic and print the
    ServerStats summary (``--trace`` adds the span-tree / attribution
    report, exportable as JSON and Prometheus text).
``cluster-sim``
    Simulate N serving replicas behind consistent-hash routing with
    health-aware failover and optional elastic scaling
    (:mod:`repro.cluster`).
``stats``
    Run a small traced workload and print the :mod:`repro.obs` output
    in table, JSON or Prometheus form.
``plan build|inspect|verify|warm|gc``
    Manage the on-disk plan store (:mod:`repro.store`): build and
    publish ``.daspz`` artifacts for named matrices, inspect headers,
    CRC-verify, simulate a warm start, and garbage-collect down to a
    capacity.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from ._util import ValidationError
from .analysis import speedup_summary
from .baselines import PAPER_METHODS, paper_methods
from .bench import markdown_table, run_comparison
from .core import DASPMatrix, DASPMethod, dasp_spmv
from .formats import MatrixMarketError, read_matrix_market, write_matrix_market
from .matrices import (
    category_ratios,
    highlight_suite,
    load as load_matrix,
    representative_suite,
    row_length_stats,
    synthetic_collection,
)


def _positive_float(text: str) -> float:
    """argparse type: a float strictly above zero."""
    value = float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
    return value


def _positive_int(text: str) -> int:
    """argparse type: an int of at least one."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def _given(cls, **knobs):
    """``cls(**knobs)`` without the knobs left unset (``None``), so the
    dataclass keeps its own defaults for them."""
    return cls(**{k: v for k, v in knobs.items() if v is not None})


def _workload_fields(args) -> dict:
    """The :class:`~repro.serve.WorkloadConfig` fields ``serve-sim`` and
    ``cluster-sim`` both build from the shared workload flags."""
    from .serve import ChaosConfig

    return dict(
        n_requests=args.requests,
        rate_rps=args.rate,
        zipf_s=args.zipf,
        seed=args.seed,
        n_matrices=args.matrices,
        dtype=args.dtype,
        device=args.device,
        max_batch=args.max_batch,
        flush_timeout_s=args.timeout_us * 1e-6,
        queue_depth=args.queue_depth,
        deadline_s=(args.deadline_us * 1e-6
                    if args.deadline_us is not None else None),
        chaos=(_given(ChaosConfig, fault_rate=args.chaos_rate,
                      seed=args.chaos_seed) if args.chaos else None),
        store=args.store,
        warm_start=bool(args.warm_start),
        pipeline=bool(args.pipeline),
        warmer=bool(args.warmer),
        update_mix=args.update_mix,
        structural_frac=args.structural_frac,
        update_entries=args.update_entries,
    )


def cmd_list(_args) -> int:
    rows = [(e.name, e.family, f"{e.paper_shape[0]}x{e.paper_shape[1]}",
             f"{e.paper_nnz:,}", "Table 2")
            for e in representative_suite()]
    rows += [(e.name, e.family, f"{e.paper_shape[0]}x{e.paper_shape[1]}",
              f"{e.paper_nnz:,}", "highlight")
             for e in highlight_suite()]
    print(markdown_table(("name", "family", "paper size", "paper nnz",
                          "set"), rows))
    return 0


def cmd_analyze(args) -> int:
    csr = load_matrix(args.matrix).astype(np.dtype(args.dtype))
    stats = row_length_stats(csr)
    print(f"{args.matrix}: {csr.shape[0]}x{csr.shape[1]}, nnz={csr.nnz:,}")
    print(f"row lengths: min={stats.min_len} mean={stats.mean_len:.1f} "
          f"max={stats.max_len} gini={stats.gini:.2f} "
          f"empty={stats.empty_rows}")
    c = category_ratios(csr)
    print(markdown_table(
        ("category", "rows", "nnz"),
        [("long", f"{c.row_long:.1%}", f"{c.nnz_long:.1%}"),
         ("medium", f"{c.row_medium:.1%}", f"{c.nnz_medium:.1%}"),
         ("short", f"{c.row_short:.1%}", f"{c.nnz_short:.1%}"),
         ("empty", f"{c.row_empty:.1%}", "-")]))
    print(DASPMatrix.from_csr(csr).summary())
    rows = []
    for method in paper_methods():
        if not method.supports(csr.data.dtype):
            rows.append((method.name, "-", "unsupported dtype"))
            continue
        meas = method.measure(csr, args.device, matrix_name=args.matrix)
        rows.append((method.name, f"{meas.time_s * 1e6:.1f}",
                     f"{meas.gflops:.1f}"))
    print(markdown_table((f"method ({args.device})", "modeled us",
                          "GFlops"), rows))
    return 0


def cmd_spmv(args) -> int:
    csr = load_matrix(args.matrix).astype(np.dtype(args.dtype))
    rng = np.random.default_rng(args.seed)
    x = rng.uniform(-1, 1, csr.shape[1]).astype(csr.data.dtype)
    dasp = DASPMatrix.from_csr(csr)
    y = dasp_spmv(dasp, x)
    ref = csr.matvec(x)
    err = float(np.max(np.abs(np.asarray(y, np.float64)
                              - np.asarray(ref, np.float64))))
    meas = DASPMethod().measure(csr, args.device, matrix_name=args.matrix)
    print(f"y checksum: {float(np.sum(y)):.6e}   max abs err vs CSR: {err:.2e}")
    print(f"modeled {args.device} time: {meas.time_s * 1e6:.1f} us "
          f"({meas.gflops:.1f} GFlops)")
    return 0 if err < 1e-2 else 1


def cmd_spmm(args) -> int:
    """Large-k SpMM strategy table (and optional artifact publish)."""
    from .core import (BlockPlan, choose_spmm_strategy, dasp_spmm_large,
                       reorder_from_perm)

    csr = load_matrix(args.matrix).astype(np.dtype(args.dtype))
    plan = DASPMatrix.from_csr(csr)
    rng = np.random.default_rng(args.seed)
    ks = sorted(set(args.k))
    reorder = not args.no_reorder
    # one row order for every k: derived once, or pinned to natural
    order = BlockPlan(plan, None if reorder else reorder_from_perm(
        plan.csr, np.arange(csr.shape[0]), mma_shape=plan.mma_shape))
    print(f"{args.matrix}: {csr.shape[0]}x{csr.shape[1]}, nnz={csr.nnz:,}, "
          f"{args.dtype} on {args.device}")
    rows = []
    strategies = {}
    for k in ks:
        strat = choose_spmm_strategy(plan, k, args.device, order=order)
        strategies[k] = strat
        stats = strat.stats
        rows.append((k, strat.name, strat.tile_k,
                     f"{strat.modeled_s * 1e6:.1f}",
                     f"{strat.looped_s * 1e6:.1f}",
                     f"{strat.speedup:.2f}x",
                     f"{strat.modeled_gflops:.1f}",
                     f"{stats.padding_waste:.1%}" if stats else "-"))
    print(markdown_table(
        ("k", "strategy", "tile_k", "modeled us", "looped us",
         "speedup", "GFlops", "tile padding"), rows))
    reordered = [s for s in strategies.values() if s.name == "reordered"]
    ro = order.reorder
    if reordered:
        print(f"row reorder ({ro.candidate}): tile padding "
              f"{ro.natural_stats.padding_waste:.1%} -> "
              f"{ro.stats.padding_waste:.1%} "
              f"({ro.padding_reduction:.1%} fewer padding slots)")
    # Numerical check at the smallest k: the chosen strategy must be
    # bitwise the column-wise dasp_spmv reference.
    k0 = ks[0]
    X = rng.uniform(-1, 1, (csr.shape[1], k0)).astype(csr.data.dtype)
    Y = dasp_spmm_large(plan, X, strategies[k0])
    ref = np.stack([dasp_spmv(plan, X[:, j]) for j in range(k0)], axis=1)
    exact = bool(np.array_equal(Y, ref))
    print(f"k={k0} output vs column-wise dasp_spmv: "
          f"{'bitwise identical' if exact else 'MISMATCH'}")
    if args.store:
        from .store import fingerprint_csr

        store = _open_store(args)
        fp = fingerprint_csr(csr)
        aux = {}
        if reordered:
            aux["spmm.reorder_perm"] = ro.perm
            aux["spmm.reorder_inv"] = ro.inv
        path = store.put(fp, plan, aux=aux or None)
        note = " (+ reorder permutation)" if aux else ""
        print(f"published {fp[:16]}… -> {path}{note}")
    return 0 if exact else 1


def cmd_convert(args) -> int:
    from .matrices.io import load_csr, save_csr

    src, dst = Path(args.source), Path(args.dest)
    if src.suffix == ".mtx":
        csr = read_matrix_market(str(src)).to_csr()
    elif src.suffix == ".npz":
        csr = load_csr(src)
    else:
        print(f"unsupported input {src.suffix!r} (use .mtx or .npz)",
              file=sys.stderr)
        return 2
    if dst.suffix == ".mtx":
        dst.parent.mkdir(parents=True, exist_ok=True)
        write_matrix_market(csr, dst)
    elif dst.suffix == ".npz":
        save_csr(dst, csr, name=src.stem)
    else:
        print(f"unsupported output {dst.suffix!r} (use .mtx or .npz)",
              file=sys.stderr)
        return 2
    print(f"{src} -> {dst}: {csr.shape[0]}x{csr.shape[1]}, nnz={csr.nnz:,}")
    return 0


def _print_trace_report(obs, stats, *, json_path=None, prom_path=None,
                        max_trees: int = 3) -> None:
    """Attribution table + sample span trees; optional file exports."""
    from .obs import export

    total = stats.device_busy_s + stats.preprocess_s
    att = obs.tracer.attribution(total)
    rows = [(phase, f"{seconds * 1e6:.1f}",
             f"{seconds / total:.1%}" if total > 0 else "-")
            for phase, seconds in att["phases"].items()]
    print("\n===== device-time attribution =====")
    print(markdown_table(("phase", "modeled us", "share"), rows))
    print(f"coverage: {att['coverage']:.1%} of "
          f"{total * 1e6:.1f} us modeled device time")
    traces = obs.tracer.traces()
    if traces:
        print(f"\n===== sample traces ({min(max_trees, len(traces))} "
              f"of {len(traces)}) =====")
        for root in traces[:max_trees]:
            print("\n".join(export.format_span_tree(root)))
    if json_path:
        Path(json_path).write_text(
            export.render_json(obs, device_total_s=total) + "\n")
        print(f"trace JSON written to {json_path}")
    if prom_path:
        Path(prom_path).write_text(export.to_prometheus(obs.registry))
        print(f"Prometheus metrics written to {prom_path}")


def _shards(text: str):
    """argparse type of ``--shards``: ``auto`` or a positive int."""
    if text == "auto":
        return text
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be an integer or 'auto', got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return value


def cmd_serve_sim(args) -> int:
    from .obs import Obs, Tracer
    from .serve import (WorkloadConfig, compare_batched_unbatched,
                        run_workload)

    cfg = _given(
        WorkloadConfig,
        **_workload_fields(args),
        cache_budget_bytes=int(args.cache_mb * 1024 * 1024),
        shards=None if args.shards == 1 else args.shards,
        shard_workers=args.shard_workers,
        spmm_mix=args.spmm_mix,
        spmm_ks=tuple(args.spmm_ks) if args.spmm_ks is not None else None,
    )
    trace = bool(args.trace or args.trace_json or args.trace_prom)
    obs = Obs(tracer=Tracer()) if trace else None
    if args.compare:
        res = compare_batched_unbatched(cfg, obs=obs)
        for name in ("unbatched", "batched"):
            print(f"\n===== {name} =====")
            print(res[name].summary_table())
        b, u = res["batched"], res["unbatched"]
        if u.throughput_rps > 0:
            print(f"\nbatched vs request-at-a-time throughput: "
                  f"{b.throughput_rps / u.throughput_rps:.2f}x")
        if trace:
            _print_trace_report(obs, b, json_path=args.trace_json,
                                prom_path=args.trace_prom)
        return 0
    stats = run_workload(cfg, obs=obs)
    print(stats.summary_table())
    if trace:
        _print_trace_report(obs, stats, json_path=args.trace_json,
                            prom_path=args.trace_prom)
    return 0


def cmd_cluster_sim(args) -> int:
    from .cluster import (
        ClusterConfig,
        ElasticConfig,
        HealthConfig,
        run_cluster_workload,
    )
    from .obs import Obs, Tracer

    overload = None
    if args.overload:
        from .overload import (
            AdmissionConfig,
            HedgeConfig,
            OverloadConfig,
            RetryBudgetConfig,
        )

        overload = _given(
            OverloadConfig,
            admission=AdmissionConfig(rate_rps=args.admission_rate),
            retry_budget=RetryBudgetConfig(),
            hedge=_given(HedgeConfig, factor=args.hedge_factor),
            batch_fraction=args.batch_fraction,
        )
    cfg = _given(
        ClusterConfig,
        **_workload_fields(args),
        entries=(synthetic_collection(args.synthetic, seed=args.seed)
                 if args.synthetic else None),
        n_replicas=args.replicas,
        vnodes=args.vnodes,
        ring_seed=args.ring_seed,
        probe_interval_s=(args.probe_interval_us * 1e-6
                          if args.probe_interval_us is not None else None),
        fail_replica=args.fail_replica,
        fail_rate=args.fail_rate,
        elastic=(_given(ElasticConfig, min_replicas=args.min_replicas,
                        max_replicas=args.max_replicas)
                 if args.elastic else None),
        health=_given(HealthConfig, straggler_factor=args.straggler_factor),
        overload=overload,
        slow_replica=args.slow_replica,
        slow_factor=args.slow_factor,
        partition_replica=args.partition,
        partition_window=(tuple(args.partition_window)
                          if args.partition_window is not None else None),
    )
    obs = Obs(tracer=Tracer()) if args.trace else Obs()
    stats = run_cluster_workload(cfg, obs=obs)
    print(stats.summary_table())
    rows = [(rid, f"{s.n_requests:,}", f"{s.n_completed:,}",
             f"{s.retries:,}",
             f"{s.throughput_rps:,.0f}", f"{s.cache_hit_rate:.1%}",
             "yes" if stats.health.get(rid, {}).get("straggler") else "no",
             "no" if stats.health.get(rid, {}).get("healthy", True)
             else "DOWN")
            for rid, s in stats.replicas.items()]
    print()
    print(markdown_table(("replica", "requests", "completed", "retries",
                          "req/s", "cache hits", "straggler", "unhealthy"),
                         rows))
    if args.trace:
        by_replica = obs.tracer.device_time_by_attr("replica")
        if by_replica:
            print()
            print(markdown_table(
                ("replica", "attributed device ms"),
                [(rid, f"{sec * 1e3:.3f}")
                 for rid, sec in sorted(by_replica.items(),
                                        key=lambda kv: str(kv[0]))]))
    return 0


def cmd_stats(args) -> int:
    """Run a small traced workload and expose the telemetry."""
    from .obs import Obs, Tracer, export
    from .serve import WorkloadConfig, run_workload

    obs = Obs(tracer=Tracer())
    cfg = WorkloadConfig(n_requests=args.requests, n_matrices=args.matrices,
                         seed=args.seed, device=args.device)
    stats = run_workload(cfg, obs=obs)
    total = stats.device_busy_s + stats.preprocess_s
    if args.format == "json":
        print(export.render_json(obs, device_total_s=total))
        return 0
    if args.format == "prometheus":
        print(export.to_prometheus(obs.registry), end="")
        return 0
    print(stats.summary_table())
    _print_trace_report(obs, stats, max_trees=1)
    return 0


def _open_store(args):
    from .store import PlanStore

    cap = (int(args.capacity_mb * 1024 * 1024)
           if getattr(args, "capacity_mb", None) is not None else None)
    return PlanStore(args.store, capacity_bytes=cap,
                     device=getattr(args, "device", "A100"))


def _shard_workers(args) -> int:
    """``--shard-workers`` of ``plan build`` / ``bench`` (default 4, the
    serving default of :class:`~repro.serve.WorkloadConfig`)."""
    return 4 if args.shard_workers is None else args.shard_workers


def _build_one_plan(spec: str, args):
    """(fingerprint, plan) for one matrix spec, honoring --shards."""
    from .store import fingerprint_csr

    csr = load_matrix(spec).astype(np.dtype(args.dtype))
    fp = fingerprint_csr(csr)
    shards = args.shards
    if shards == "auto":
        from .shard import choose_shards

        shards = int(choose_shards(csr, _shard_workers(args),
                                   device=args.device).best_value)
    if shards is not None and int(shards) > 1:
        from .shard import build_sharded_plan

        return fp, build_sharded_plan(csr, int(shards))
    return fp, DASPMatrix.from_csr(csr)


def cmd_plan_build(args) -> int:
    from .store import modeled_load_time, modeled_rebuild_time, read_header

    store = _open_store(args)
    for spec in args.matrix:
        fp, plan = _build_one_plan(spec, args)
        path = store.put(fp, plan, overwrite=args.force)
        header, _ = read_header(path)
        load_ms = modeled_load_time(header, args.device) * 1e3
        rebuild_ms = modeled_rebuild_time(header, args.device) * 1e3
        print(f"{spec}: {fp} -> {path} ({path.stat().st_size:,} bytes, "
              f"modeled load {load_ms:.3f} ms vs rebuild {rebuild_ms:.3f} ms)")
    return 0


def cmd_plan_inspect(args) -> int:
    from .store import modeled_load_time, read_header

    store = _open_store(args)
    fps = args.fingerprint or store.fingerprints()
    if not fps:
        print("store is empty")
        return 0
    rows = []
    for fp in fps:
        path = store.path_for(fp)
        if not path.exists():
            rows.append((fp[:16], "-", "absent", "-", "-", "-"))
            continue
        header, _ = read_header(path)
        md = header["modeled"]
        shape = "x".join(str(s) for s in header["meta"]["shape"])
        kind = header["kind"]
        if kind == "sharded":
            kind = f"sharded({len(header['meta']['shards'])})"
        rows.append((fp[:16], kind,
                     f"{shape} nnz={int(md['nnz']):,} {header['dtype']}",
                     f"{path.stat().st_size:,}",
                     f"{len(header['arrays'])}",
                     f"{modeled_load_time(header, args.device) * 1e3:.3f}"))
    print(markdown_table(("fingerprint", "kind", "matrix", "bytes",
                          "arrays", "load ms"), rows))
    return 0


def cmd_plan_verify(args) -> int:
    from .store import ArtifactError

    store = _open_store(args)
    fps = args.fingerprint or store.fingerprints()
    bad = 0
    for fp in fps:
        try:
            header = store.verify(fp)
            print(f"{fp}: ok ({len(header['arrays'])} arrays, "
                  f"{header['kind']})")
        except (ArtifactError, OSError) as exc:
            bad += 1
            print(f"{fp}: FAILED — {exc}", file=sys.stderr)
    print(f"{len(fps) - bad}/{len(fps)} artifacts verified")
    return 1 if bad else 0


def cmd_plan_warm(args) -> int:
    """Simulate a warm start: preload each matrix's plan from the store."""
    from .serve import PlanRegistry
    from .store import fingerprint_csr

    registry = PlanRegistry(store=_open_store(args), device=args.device)
    missing = 0
    for spec in args.matrix:
        csr = load_matrix(spec).astype(np.dtype(args.dtype))
        fp = fingerprint_csr(csr)
        load_s = registry.warm(fp)
        if load_s is None:
            missing += 1
            print(f"{spec}: {fp[:16]}… not in store (would rebuild)")
        else:
            print(f"{spec}: {fp[:16]}… warmed in {load_s * 1e3:.3f} ms "
                  f"modeled")
    snap = registry.store.snapshot()
    print(f"warm start: {snap['hits']} loaded, {missing} missing, "
          f"{snap['load_failures']} failed")
    return 1 if missing else 0


def cmd_plan_gc(args) -> int:
    store = _open_store(args)
    if store.capacity_bytes is None:
        print("--capacity-mb is required for gc", file=sys.stderr)
        return 2
    before = store.nbytes()
    removed = store.gc()
    print(f"removed {len(removed)} artifact(s), "
          f"{before:,} -> {store.nbytes():,} bytes")
    for fp in removed:
        print(f"  {fp}")
    return 0


def cmd_bench(args) -> int:
    entries = synthetic_collection(args.count, seed=args.seed)
    res = run_comparison(entries, device=args.device,
                         dtype=np.dtype(args.dtype))
    dasp = res.times.get("DASP", {})
    if not dasp:
        print("DASP does not support this dtype", file=sys.stderr)
        return 1
    for base in res.times:
        if base == "DASP":
            continue
        print(speedup_summary(dasp, res.times[base], base))
    if args.shards is not None:
        _bench_shards(entries, args)
    return 0


def _bench_shards(entries, args) -> None:
    """Modeled sharded-vs-single-chain speedup table for ``bench``."""
    from .shard import build_sharded_plan, choose_shards, sharded_batch_cost

    shards = args.shards
    workers = _shard_workers(args)
    dtype = np.dtype(args.dtype)
    print(f"\nrow sharding (modeled, {workers} lanes):")
    print(f"{'matrix':<24}{'S':>4}{'single':>12}{'sharded':>12}{'speedup':>9}")
    for e in entries:
        csr = e.matrix().astype(dtype)
        S = (int(choose_shards(csr, workers, device=args.device).best_value)
             if shards == "auto" else int(shards))
        single = sharded_batch_cost(build_sharded_plan(csr, 1), args.device,
                                    1, workers=workers).makespan
        plan = build_sharded_plan(csr, S)
        cost = sharded_batch_cost(plan, args.device, 1, workers=workers)
        print(f"{e.name:<24}{plan.n_shards:>4}{single:>12.3e}"
              f"{cost.makespan:>12.3e}{single / cost.makespan:>8.2f}x")


def _workload_parent(*, requests: int) -> argparse.ArgumentParser:
    """The workload flags ``serve-sim`` and ``cluster-sim`` share.

    Built once per command: argparse parents share their action
    objects, so one instance cannot carry two ``--requests`` defaults.
    """
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--requests", type=int, default=requests,
                   help="open-loop request count")
    p.add_argument("--rate", type=float, default=None,
                   help="offered rate (req/s); default saturates every "
                        "modeled device")
    p.add_argument("--zipf", type=float, default=1.1,
                   help="Zipf popularity exponent over the matrix pool")
    p.add_argument("--matrices", type=int, default=4,
                   help="pool size taken from the representative suite")
    p.add_argument("--device", default="A100", choices=("A100", "H800"))
    p.add_argument("--dtype", default="float64",
                   choices=("float64", "float16"))
    p.add_argument("--max-batch", type=int, default=8,
                   help="SpMM coalescing width (1 = request-at-a-time)")
    p.add_argument("--timeout-us", type=float, default=200.0,
                   help="partial-batch flush timeout (modeled us)")
    p.add_argument("--queue-depth", type=int, default=256,
                   help="bounded device backlog (batches)")
    p.add_argument("--deadline-us", type=_positive_float, default=None,
                   help="per-request deadline (modeled us, > 0); expired "
                        "requests fail fast")
    p.add_argument("--seed", type=int, default=2023)
    p.add_argument("--chaos", action="store_true",
                   help="inject a seeded fault mix (repro.resilience)")
    p.add_argument("--chaos-rate", type=float, default=None,
                   help="total fault rate split over the fault kinds "
                        "(default 0.05; needs --chaos)")
    p.add_argument("--chaos-seed", type=int, default=None,
                   help="fault-injector RNG seed (default 7; needs --chaos)")
    p.add_argument("--store", metavar="DIR", default=None,
                   help="back the plan cache with an on-disk artifact "
                        "store (repro.store); shared by a cluster's "
                        "replicas")
    p.add_argument("--warm-start", action="store_true",
                   help="preload plans from --store before traffic starts "
                        "(a cluster replica: its ring-assigned ones; "
                        "needs --store)")
    p.add_argument("--pipeline", action="store_true",
                   help="async pipelined execution: plan loads/builds run "
                        "on a modeled prefetch lane overlapping the device "
                        "(results stay bitwise identical)")
    p.add_argument("--warmer", action="store_true",
                   help="speculative plan warmer: prebuild/preload popular "
                        "matrices before their first request (implies a "
                        "prefetch lane)")
    p.add_argument("--update-mix", type=float, default=None, metavar="P",
                   help="fraction of arrival slots carrying a matrix delta "
                        "instead of a read (plans are patched in place, "
                        "a cluster broadcasts it; dedicated seed+17 "
                        "stream; 0 disables)")
    p.add_argument("--structural-frac", type=float, default=None,
                   help="share of deltas that change the sparsity pattern "
                        "(the rest touch values only; default 0.3; needs "
                        "--update-mix)")
    p.add_argument("--update-entries", type=int, default=None,
                   help="coordinates touched per delta (default 8; needs "
                        "--update-mix)")
    p.add_argument("--trace", action="store_true",
                   help="record spans (repro.obs) and print the "
                        "device-time attribution report")
    return p


#: dependent flag -> the switch it needs (alone it would be ignored)
_NEEDS = {
    "--chaos-rate": "--chaos",
    "--chaos-seed": "--chaos",
    "--min-replicas": "--elastic",
    "--max-replicas": "--elastic",
    "--admission-rate": "--overload",
    "--batch-fraction": "--overload",
    "--hedge-factor": "--overload",
    "--slow-factor": "--slow-replica",
    "--partition-window": "--partition",
    "--fail-rate": "--fail-replica",
    "--warm-start": "--store",
    "--spmm-ks": "--spmm-mix",
    "--structural-frac": "--update-mix",
    "--update-entries": "--update-mix",
    "--shard-workers": "--shards",
}


def _passed(args, flag: str) -> bool:
    """Whether *flag* was given (its value is not the unset ``None`` or
    an off ``store_true`` switch)."""
    value = getattr(args, flag[2:].replace("-", "_"), None)
    return value is not None and value is not False


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="DASP (SC'23) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list named matrices").set_defaults(fn=cmd_list)

    p = sub.add_parser("analyze", help="analyze a matrix")
    p.add_argument("matrix", help="named matrix or .mtx file")
    p.add_argument("--device", default="A100", choices=("A100", "H800"))
    p.add_argument("--dtype", default="float64",
                   choices=("float64", "float32", "float16"))
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("spmv", help="run one DASP SpMV")
    p.add_argument("matrix")
    p.add_argument("--device", default="A100", choices=("A100", "H800"))
    p.add_argument("--dtype", default="float64",
                   choices=("float64", "float32", "float16"))
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_spmv)

    p = sub.add_parser(
        "spmm", help="large-k SpMM strategy sweep for one matrix")
    p.add_argument("matrix")
    p.add_argument("--k", type=int, nargs="+", default=[8, 32, 128, 512],
                   help="right-hand-side widths to sweep")
    p.add_argument("--device", default="A100", choices=("A100", "H800"))
    p.add_argument("--dtype", default="float64",
                   choices=("float64", "float32", "float16"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--no-reorder", action="store_true",
                   help="disable the row-reordering candidate")
    p.add_argument("--store", default=None,
                   help="publish the plan (+ winning reorder permutation) "
                        "to this plan-store directory")
    p.set_defaults(fn=cmd_spmm)

    p = sub.add_parser("convert", help="convert .mtx <-> .npz")
    p.add_argument("source")
    p.add_argument("dest")
    p.set_defaults(fn=cmd_convert)

    p = sub.add_parser(
        "serve-sim", parents=[_workload_parent(requests=2000)],
        help="simulate batched, plan-cached SpMV serving (repro.serve)")
    p.add_argument("--cache-mb", type=float, default=256.0,
                   help="plan-cache budget (MiB)")
    p.add_argument("--compare", action="store_true",
                   help="also run request-at-a-time and print the speedup")
    p.add_argument("--shards", type=_shards, default=None, metavar="S|auto",
                   help="row-shard every matrix into S bands ('auto' picks "
                        "S per matrix from the makespan cost model)")
    p.add_argument("--shard-workers", type=_positive_int, default=None,
                   help="concurrent lanes the sharded makespan is modeled "
                        "over (default 4; needs --shards)")
    p.add_argument("--spmm-mix", type=float, default=None, metavar="P",
                   help="fraction of requests issued as SpMM blocks "
                        "(dedicated seed+13 stream; 0 disables)")
    p.add_argument("--spmm-ks", type=int, nargs="+", default=None,
                   metavar="K",
                   help="RHS widths sampled for SpMM block requests "
                        "(default 16 32 64; needs --spmm-mix)")
    p.add_argument("--trace-json", metavar="FILE", default=None,
                   help="write the full observability JSON document "
                        "(metrics + traces + attribution) to FILE")
    p.add_argument("--trace-prom", metavar="FILE", default=None,
                   help="write the metrics in Prometheus text format "
                        "to FILE")
    p.set_defaults(fn=cmd_serve_sim)

    p = sub.add_parser(
        "cluster-sim", parents=[_workload_parent(requests=10_000)],
        help="simulate N serving replicas behind consistent-hash routing "
             "(repro.cluster)")
    p.add_argument("--replicas", type=int, default=4,
                   help="initial replica count (N=1 matches serve-sim "
                        "bit for bit)")
    p.add_argument("--synthetic", type=int, default=None, metavar="N",
                   help="use an N-matrix synthetic pool instead of the "
                        "representative suite (much faster to model)")
    p.add_argument("--vnodes", type=int, default=128,
                   help="virtual nodes per replica on the hash ring")
    p.add_argument("--ring-seed", type=int, default=0,
                   help="seed of the ring's stable hash")
    p.add_argument("--probe-interval-us", type=_positive_float, default=None,
                   help="health-probe period (modeled us, > 0; default "
                        "~200 probes per run)")
    p.add_argument("--fail-replica", type=int, default=None, metavar="I",
                   help="fault-inject replica index I with kernel errors "
                        "(failover demo)")
    p.add_argument("--fail-rate", type=float, default=None,
                   help="kernel-error rate of --fail-replica (default 1.0)")
    p.add_argument("--elastic", action="store_true",
                   help="enable queue-depth-driven elastic scaling")
    p.add_argument("--min-replicas", type=int, default=None,
                   help="elastic floor (default 1; needs --elastic)")
    p.add_argument("--max-replicas", type=int, default=None,
                   help="elastic ceiling (default 8; needs --elastic)")
    p.add_argument("--overload", action="store_true",
                   help="enable the overload layer: admission control, "
                        "cluster-wide retry budget, hedged requests "
                        "(repro.overload)")
    p.add_argument("--admission-rate", type=float, default=None,
                   metavar="RPS",
                   help="admission token-bucket rate (default: unlimited "
                        "bucket, i.e. admission counts but never sheds; "
                        "needs --overload)")
    p.add_argument("--batch-fraction", type=float, default=None,
                   help="share of traffic tagged batch priority, shed "
                        "first (default 0.3; needs --overload)")
    p.add_argument("--hedge-factor", type=float, default=None,
                   help="hedge/demote a replica whose latency EWMA "
                        "exceeds this multiple of the peer median "
                        "(default 3.0; needs --overload)")
    p.add_argument("--straggler-factor", type=float, default=None,
                   metavar="F",
                   help="demote (soft-drain) healthy replicas whose "
                        "latency EWMA exceeds F x the peer median")
    p.add_argument("--slow-replica", type=int, default=None, metavar="I",
                   help="chaos: multiply replica I's modeled device time "
                        "by --slow-factor (a live straggler)")
    p.add_argument("--slow-factor", type=float, default=None,
                   help="device-time multiplier of --slow-replica "
                        "(default 4.0)")
    p.add_argument("--partition", type=int, default=None, metavar="I",
                   help="chaos: drop the router link to replica I for "
                        "--partition-window of the run")
    p.add_argument("--partition-window", type=float, nargs=2, default=None,
                   metavar=("START", "END"),
                   help="partition window as fractions of the arrival span "
                        "(default 0.25 0.75; needs --partition)")
    p.set_defaults(fn=cmd_cluster_sim)

    p = sub.add_parser(
        "stats",
        help="run a small traced workload and print repro.obs telemetry")
    p.add_argument("--format", default="table",
                   choices=("table", "json", "prometheus"),
                   help="output form (default: summary table + trace)")
    p.add_argument("--requests", type=int, default=200,
                   help="workload size (kept small; this is a demo run)")
    p.add_argument("--matrices", type=int, default=3)
    p.add_argument("--device", default="A100", choices=("A100", "H800"))
    p.add_argument("--seed", type=int, default=2023)
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser(
        "plan", help="manage the on-disk plan store (repro.store)")
    plan_sub = p.add_subparsers(dest="plan_command", required=True)

    def _plan_common(sp, *, matrices: bool) -> None:
        sp.add_argument("--store", required=True, metavar="DIR",
                        help="plan store directory")
        sp.add_argument("--device", default="A100", choices=("A100", "H800"))
        if matrices:
            sp.add_argument("--dtype", default="float64",
                            choices=("float64", "float32", "float16"))

    sp = plan_sub.add_parser(
        "build", help="build plans and publish .daspz artifacts")
    sp.add_argument("matrix", nargs="+", help="named matrices or .mtx files")
    _plan_common(sp, matrices=True)
    sp.add_argument("--shards", type=_shards, default=None, metavar="S|auto",
                    help="persist a sharded plan (S row bands)")
    sp.add_argument("--shard-workers", type=_positive_int, default=None,
                    help="lanes --shards auto models (default 4; needs "
                         "--shards)")
    sp.add_argument("--force", action="store_true",
                    help="overwrite existing artifacts")
    sp.set_defaults(fn=cmd_plan_build)

    sp = plan_sub.add_parser("inspect", help="print artifact headers")
    sp.add_argument("fingerprint", nargs="*",
                    help="fingerprints to inspect (default: all)")
    _plan_common(sp, matrices=False)
    sp.set_defaults(fn=cmd_plan_inspect)

    sp = plan_sub.add_parser(
        "verify", help="CRC-verify artifacts (exit 1 on any failure)")
    sp.add_argument("fingerprint", nargs="*",
                    help="fingerprints to verify (default: all)")
    _plan_common(sp, matrices=False)
    sp.set_defaults(fn=cmd_plan_verify)

    sp = plan_sub.add_parser(
        "warm", help="simulate a warm start from the store")
    sp.add_argument("matrix", nargs="+", help="named matrices or .mtx files")
    _plan_common(sp, matrices=True)
    sp.set_defaults(fn=cmd_plan_warm)

    sp = plan_sub.add_parser(
        "gc", help="garbage-collect the store down to a capacity")
    _plan_common(sp, matrices=False)
    sp.add_argument("--capacity-mb", type=float, required=True,
                    help="target capacity (MiB); LRU artifacts beyond it "
                         "are removed")
    sp.set_defaults(fn=cmd_plan_gc)

    p = sub.add_parser("bench", help="mini Figure 10 sweep")
    p.add_argument("--count", type=_positive_int, default=20,
                   help="synthetic matrices to sweep (>= 1)")
    p.add_argument("--shards", type=_shards, default=None, metavar="S|auto",
                   help="also print the modeled row-sharding speedup table")
    p.add_argument("--shard-workers", type=_positive_int, default=None,
                   help="lanes the sharded makespan is modeled over "
                        "(default 4; needs --shards)")
    p.add_argument("--device", default="A100", choices=("A100", "H800"))
    p.add_argument("--dtype", default="float64",
                   choices=("float64", "float16"))
    p.add_argument("--seed", type=int, default=2023)
    p.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for flag, switch in _NEEDS.items():
        if _passed(args, flag) and not _passed(args, switch):
            group = [f for f, s in _NEEDS.items() if s == switch]
            parser.error(f"{'/'.join(group)} need {switch}")
    try:
        return args.fn(args)
    except BrokenPipeError:  # e.g. `repro list | head`
        return 0
    except (ValidationError, MatrixMarketError) as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
