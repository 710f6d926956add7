"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.formats import write_matrix_market
from tests.conftest import random_csr


def _table_rows(out: str) -> list[list[str]]:
    """The cells of every markdown table row in *out*."""
    return [[c.strip() for c in line.strip("|").split("|")]
            for line in out.splitlines() if line.startswith("| ")]


class TestList:
    def test_lists_all_named(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "pwtk" in out and "bibd_20_10" in out
        assert out.count("|") > 27 * 5  # a real table


class TestAnalyze:
    def test_named_matrix(self, capsys):
        assert main(["analyze", "scircuit"]) == 0
        out = capsys.readouterr().out
        assert "DASP" in out and "category" in out
        assert "CSR5" in out

    def test_mtx_file(self, tmp_path, capsys, rng):
        csr = random_csr(30, 30, rng)
        path = tmp_path / "m.mtx"
        write_matrix_market(csr, path)
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert "nnz=" in out

    def test_npz_file(self, tmp_path, capsys, rng):
        """An existing .npz path must route to matrices.io, not the
        MatrixMarket parser."""
        from repro.matrices.io import save_csr

        csr = random_csr(30, 30, rng)
        path = tmp_path / "m.npz"
        save_csr(path, csr)
        assert main(["analyze", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"nnz={csr.nnz:,}" in out

    def test_unknown_extension_errors(self, tmp_path):
        from repro import ReproError

        path = tmp_path / "m.bin"
        path.write_bytes(b"\x00\x01")
        with pytest.raises(ReproError, match="unsupported extension"):
            main(["analyze", str(path)])

    def test_fp16_marks_unsupported(self, capsys):
        assert main(["analyze", "mc2depi", "--dtype", "float16"]) == 0
        out = capsys.readouterr().out
        assert "unsupported dtype" in out  # CSR5 & friends skip FP16

    def test_h800_device(self, capsys):
        assert main(["analyze", "scircuit", "--device", "H800"]) == 0
        assert "H800" in capsys.readouterr().out


class TestSpmv:
    def test_runs_and_verifies(self, capsys):
        assert main(["spmv", "mc2depi"]) == 0
        out = capsys.readouterr().out
        assert "checksum" in out and "GFlops" in out

    def test_fp16(self, capsys):
        assert main(["spmv", "mc2depi", "--dtype", "float16"]) == 0

    def test_seed_changes_checksum(self, capsys):
        main(["spmv", "scircuit", "--seed", "1"])
        out1 = capsys.readouterr().out
        main(["spmv", "scircuit", "--seed", "2"])
        out2 = capsys.readouterr().out
        assert out1.splitlines()[0] != out2.splitlines()[0]


class TestSpmm:
    def test_strategy_table_and_bitwise_check(self, capsys):
        assert main(["spmm", "scircuit", "--k", "8", "32", "64"]) == 0
        out = capsys.readouterr().out
        assert "| strategy |" in out
        assert "looped" in out
        assert "bitwise identical" in out
        # the tuner never picks a strategy modeled slower than looped
        speedups = {int(cells[0]): float(cells[5].rstrip("x"))
                    for cells in _table_rows(out) if cells[0].isdigit()}
        assert sorted(speedups) == [8, 32, 64]
        assert all(s >= 1.0 for s in speedups.values())

    def test_store_publishes_reorder_aux(self, tmp_path, capsys):
        from repro.store import PlanStore, fingerprint_csr

        assert main(["spmm", "mac_econ_fwd500", "--k", "8", "128",
                     "--store", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "published" in out
        from repro.matrices import load as load_matrix

        fp = fingerprint_csr(load_matrix("mac_econ_fwd500"))
        aux = PlanStore(tmp_path).load_aux(fp)
        if "reorder permutation" in out:
            perm = aux["spmm.reorder_perm"]
            assert np.array_equal(np.sort(perm), np.arange(perm.size))
            inv = aux["spmm.reorder_inv"]
            assert np.array_equal(perm[inv], np.arange(perm.size))
        else:  # tuner kept natural order: plan published without aux
            assert aux == {}

    def test_no_reorder_flag(self, capsys):
        assert main(["spmm", "mac_econ_fwd500", "--k", "8", "32",
                     "--no-reorder"]) == 0
        assert "reordered" not in capsys.readouterr().out


class TestBench:
    def test_mini_sweep(self, capsys):
        assert main(["bench", "--count", "4"]) == 0
        out = capsys.readouterr().out
        assert "vs CSR5" in out and "geomean" in out

    def test_fp16_sweep(self, capsys):
        assert main(["bench", "--count", "3", "--dtype", "float16"]) == 0
        out = capsys.readouterr().out
        assert "cuSPARSE-CSR" in out
        assert "CSR5" not in out  # FP16 excludes CSR5


class TestServeSim:
    def test_prints_summary(self, capsys):
        assert main(["serve-sim", "--requests", "200",
                     "--matrices", "2"]) == 0
        out = capsys.readouterr().out
        assert "throughput (kernel time)" in out
        assert "batch-size histogram" in out
        assert "cache hit rate" in out
        assert "latency p50 / p95 / p99" in out

    def test_compare_mode(self, capsys):
        assert main(["serve-sim", "--requests", "200", "--matrices", "2",
                     "--compare"]) == 0
        out = capsys.readouterr().out
        assert "batched vs request-at-a-time throughput" in out

    def test_spmm_mix_golden(self, capsys):
        """The large-k tier end to end: tuner choices, their prices and
        the batching around them, pinned byte for byte."""
        assert main(["serve-sim", "--requests", "1000", "--matrices", "4",
                     "--spmm-mix", "0.2"]) == 0
        assert capsys.readouterr().out == (
            "| metric | value |\n"
            "|---|---|\n"
            "| device / dtype | A100-PCIe-40GB / float64 |\n"
            "| requests offered / completed | 1,000 / 905 |\n"
            "| rejected / shed | 95 / 0 |\n"
            "| batches (mean size) | 268 (3.38) |\n"
            "| batch-size histogram | 3:1 4:1 5:2 6:2 7:2 8:86 16:59 32:64 64:51 |\n"
            "| plan cache hit / miss / evict | 264 / 4 / 0 |\n"
            "| cache hit rate | 98.5% |\n"
            "| device busy (kernels) | 7.316 ms |\n"
            "| preprocessing | 2.641 ms |\n"
            "| makespan | 9.957 ms |\n"
            "| throughput (kernel time) | 123,703 req/s |\n"
            "| goodput (incl. preprocess) | 90,889 req/s |\n"
            "| MMA utilization | 98.5% |\n"
            "| latency p50 / p95 / p99 | 5311.3 us / 7479.2 us / 7820.8 us |\n"
            "| large-k batches by strategy | reordered:19 tiled:155 |\n"
            "| reorder perm loaded / derived | 0 / 4 |\n"
        )

    def test_sharded_update_golden(self, capsys):
        """Value and structural deltas patched band by band into 4-band
        plans, pinned byte for byte (every version chain starts sharded,
        also for a matrix whose first event is an update)."""
        assert main(["serve-sim", "--requests", "400", "--matrices", "3",
                     "--shards", "4", "--update-mix", "0.12",
                     "--structural-frac", "0.3"]) == 0
        assert capsys.readouterr().out == (
            "| metric | value |\n"
            "|---|---|\n"
            "| device / dtype | A100-PCIe-40GB / float64 |\n"
            "| requests offered / completed | 356 / 356 |\n"
            "| rejected / shed | 0 / 0 |\n"
            "| batches (mean size) | 61 (5.84) |\n"
            "| batch-size histogram | 1:5 2:5 3:3 4:5 5:3 6:9 7:5 8:26 |\n"
            "| plan cache hit / miss / evict | 60 / 1 / 0 |\n"
            "| cache hit rate | 98.4% |\n"
            "| device busy (kernels) | 0.816 ms |\n"
            "| preprocessing | 2.546 ms |\n"
            "| makespan | 3.362 ms |\n"
            "| throughput (kernel time) | 436,303 req/s |\n"
            "| goodput (incl. preprocess) | 105,890 req/s |\n"
            "| MMA utilization | 72.6% |\n"
            "| latency p50 / p95 / p99 | 2482.1 us / 2540.0 us / 2572.3 us |\n"
            "| matrix updates value / structural / compactions | 30 / 14 / 0 |\n"
            "| modeled patch vs rebuild-per-update | 1.793 ms vs 40.847 ms |\n"
        )

    @pytest.mark.parametrize("warm", [[], ["--warm-start"]],
                             ids=["cold", "warm_start"])
    def test_stored_chain_refused(self, tmp_path, capsys, warm):
        """A second update run over one store starts at v0 behind the
        store's chain: it is refused with one ``error:`` line (exit 2),
        never adopted — with ``--warm-start`` it used to die on a
        ``DeltaError`` traceback."""
        args = ["serve-sim", "--requests", "400", "--matrices", "3",
                "--seed", "1", "--update-mix", "0.12",
                "--structural-frac", "0.3", "--store", str(tmp_path / "s")]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args + warm) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and err.count("\n") == 1
        assert "non-contiguous delta version 1 (current 24)" in err
        # where, why and what to do
        assert f"in store {tmp_path / 's'}" in err
        assert "(head v24) while this writer starts at v0" in err
        assert "use a fresh store directory" in err

    def test_unbatched_width(self, capsys):
        assert main(["serve-sim", "--requests", "120", "--matrices", "2",
                     "--max-batch", "1"]) == 0
        out = capsys.readouterr().out
        assert "(1.00)" in out  # every batch a singleton


class TestParser:
    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_unknown_matrix_raises(self):
        with pytest.raises(KeyError):
            main(["analyze", "not_a_matrix"])

    @pytest.mark.parametrize("cmd", ["serve-sim", "cluster-sim"])
    @pytest.mark.parametrize("flag", [["--chaos-rate", "0.2"],
                                      ["--chaos-seed", "3"]])
    def test_chaos_knobs_without_chaos_rejected(self, cmd, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--requests", "10", *flag])
        assert exc.value.code == 2
        assert "need --chaos" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["serve-sim", "cluster-sim"])
    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_nonpositive_deadline_rejected(self, cmd, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--requests", "10", "--deadline-us", value])
        assert exc.value.code == 2
        assert "--deadline-us" in capsys.readouterr().err

    def test_validation_error_is_a_clean_exit(self, tmp_path, capsys):
        """Bad values exit 2 with one ``error:`` line naming the value,
        whether argparse or the library's validation rejects them."""
        small = ["--requests", "10"]
        cases = [
            (["serve-sim", "--requests", "0"], "n_requests"),
            (["serve-sim", *small, "--rate", "0"], "rate_rps"),
            (["serve-sim", *small, "--rate", "-5"], "rate_rps"),
            (["cluster-sim", *small, "--rate", "0"], "rate_rps"),
            (["serve-sim", *small, "--matrices", "0"], "n_matrices"),
            (["cluster-sim", *small, "--matrices", "0"], "n_matrices"),
            (["serve-sim", *small, "--queue-depth", "0"], "queue_depth"),
            (["cluster-sim", *small, "--synthetic", "2",
              "--queue-depth", "0"], "queue_depth"),
            (["bench", "--count", "0"], "--count"),
            (["bench", "--count", "2", "--shards", "2",
              "--shard-workers", "0"], "--shard-workers"),
            (["serve-sim", *small, "--shards", "2",
              "--shard-workers", "-1"], "--shard-workers"),
        ]
        for value in ("foo", "0", "-3"):
            cases += [
                (["serve-sim", *small, "--shards", value], "--shards"),
                (["plan", "build", "scircuit", "--store", str(tmp_path),
                  "--shards", value], "--shards"),
                (["bench", "--count", "2", "--shards", value], "--shards"),
            ]
        for argv, name in cases:
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse usage error
                code = exc.code
            err = capsys.readouterr().err
            errors = [line for line in err.splitlines() if "error:" in line]
            assert code == 2, (argv, code, err)
            assert len(errors) == 1 and name in errors[0], (argv, err)
            assert "Traceback" not in err

    def test_chaos_knobs_apply_with_chaos(self, capsys):
        assert main(["serve-sim", "--requests", "200", "--matrices", "2",
                     "--chaos", "--chaos-rate", "0.3",
                     "--chaos-seed", "3"]) == 0
        assert "faults injected" in capsys.readouterr().out


#: The workload flags both simulators share (one argparse parent).
SHARED_SIM_FLAGS = {
    "--requests", "--rate", "--zipf", "--matrices", "--device", "--dtype",
    "--max-batch", "--timeout-us", "--queue-depth", "--deadline-us",
    "--seed", "--chaos", "--chaos-rate", "--chaos-seed", "--store",
    "--warm-start", "--pipeline", "--warmer", "--update-mix",
    "--structural-frac", "--update-entries", "--trace",
}
SIM_FLAGS = {
    "serve-sim": SHARED_SIM_FLAGS | {
        "--cache-mb", "--compare", "--shards", "--shard-workers",
        "--spmm-mix", "--spmm-ks", "--trace-json", "--trace-prom"},
    "cluster-sim": SHARED_SIM_FLAGS | {
        "--replicas", "--synthetic", "--vnodes", "--ring-seed",
        "--probe-interval-us", "--fail-replica", "--fail-rate", "--elastic",
        "--min-replicas", "--max-replicas", "--overload", "--admission-rate",
        "--batch-fraction", "--hedge-factor", "--straggler-factor",
        "--slow-replica", "--slow-factor", "--partition",
        "--partition-window"},
}


class _Captured(Exception):
    pass


def built_config(monkeypatch, argv):
    """The config *argv* hands its driver (the run itself is skipped)."""
    import repro.cluster
    import repro.serve

    def capture(cfg, **_kw):
        raise _Captured(cfg)

    monkeypatch.setattr(repro.serve, "run_workload", capture)
    monkeypatch.setattr(repro.cluster, "run_cluster_workload", capture)
    with pytest.raises(_Captured) as exc:
        main(argv)
    return exc.value.args[0]


class TestSimFlags:
    @pytest.mark.parametrize("cmd", sorted(SIM_FLAGS))
    def test_option_strings_pinned(self, cmd):
        from repro.cli import build_parser

        sub = build_parser()._subparsers._group_actions[0].choices[cmd]
        opts = {o for a in sub._actions for o in a.option_strings}
        assert opts - {"-h", "--help"} == SIM_FLAGS[cmd]

    def test_serve_sim_effective_defaults(self, monkeypatch):
        from repro.serve import WorkloadConfig

        cfg = built_config(monkeypatch, ["serve-sim"])
        assert cfg == WorkloadConfig(flush_timeout_s=200.0 * 1e-6,
                                     cache_budget_bytes=256 * 1024 * 1024)

    def test_cluster_sim_effective_defaults(self, monkeypatch):
        from repro.cluster import ClusterConfig, ElasticConfig
        from repro.overload import (AdmissionConfig, HedgeConfig,
                                    OverloadConfig, RetryBudgetConfig)

        cfg = built_config(monkeypatch, ["cluster-sim"])
        assert cfg == ClusterConfig(n_requests=10_000,
                                    flush_timeout_s=200.0 * 1e-6)
        # dependent flags left unset keep the config's own defaults
        cfg = built_config(monkeypatch, [
            "cluster-sim", "--elastic", "--overload", "--slow-replica", "1",
            "--partition", "0", "--fail-replica", "2"])
        assert cfg.elastic == ElasticConfig()
        assert cfg.overload == OverloadConfig(
            admission=AdmissionConfig(), retry_budget=RetryBudgetConfig(),
            hedge=HedgeConfig())
        assert (cfg.slow_factor, cfg.partition_window, cfg.fail_rate) == (
            4.0, (0.25, 0.75), 1.0)

    @pytest.mark.parametrize("flag, value, switch", [
        ("--min-replicas", ["2"], "--elastic"),
        ("--max-replicas", ["6"], "--elastic"),
        ("--admission-rate", ["1000"], "--overload"),
        ("--batch-fraction", ["0.5"], "--overload"),
        ("--hedge-factor", ["5"], "--overload"),
        ("--slow-factor", ["2"], "--slow-replica"),
        ("--partition-window", ["0.1", "0.2"], "--partition"),
        ("--fail-rate", ["0.5"], "--fail-replica"),
    ])
    def test_dependent_flag_needs_its_switch(self, flag, value, switch,
                                             capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cluster-sim", "--requests", "10", flag, *value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert flag in err and f"need {switch}" in err

    @pytest.mark.parametrize("cmd, flag, value, switch", [
        ("serve-sim", "--warm-start", [], "--store"),
        ("cluster-sim", "--warm-start", [], "--store"),
        ("serve-sim", "--spmm-ks", ["8"], "--spmm-mix"),
        ("serve-sim", "--structural-frac", ["0.5"], "--update-mix"),
        ("cluster-sim", "--update-entries", ["4"], "--update-mix"),
        ("serve-sim", "--shard-workers", ["2"], "--shards"),
    ])
    def test_inert_flag_needs_its_switch(self, cmd, flag, value, switch,
                                         capsys):
        """Flags that would run ignored (exit 0, unchanged output)
        without their switch are usage errors instead."""
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--requests", "10", flag, *value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert flag in err and f"need {switch}" in err

    def test_dependent_flags_with_their_switch_reach_the_config(
            self, monkeypatch, tmp_path):
        cfg = built_config(monkeypatch, [
            "serve-sim", "--store", str(tmp_path), "--warm-start",
            "--spmm-mix", "0.1", "--spmm-ks", "8", "--update-mix", "0.1",
            "--structural-frac", "0.5", "--update-entries", "4",
            "--shards", "2", "--shard-workers", "2"])
        assert cfg.warm_start and cfg.spmm_ks == (8,)
        assert (cfg.structural_frac, cfg.update_entries) == (0.5, 4)
        assert (cfg.shards, cfg.shard_workers) == (2, 2)

    def test_switch_index_zero_counts_as_given(self, monkeypatch):
        cfg = built_config(monkeypatch, [
            "cluster-sim", "--slow-replica", "0", "--slow-factor", "2"])
        assert (cfg.slow_replica, cfg.slow_factor) == (0, 2.0)

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_nonpositive_probe_interval_rejected(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cluster-sim", "--requests", "10",
                  "--probe-interval-us", value])
        assert exc.value.code == 2
        assert "--probe-interval-us" in capsys.readouterr().err


class TestConvert:
    def test_mtx_to_npz_roundtrip(self, tmp_path, capsys, rng):
        from repro.formats import write_matrix_market
        from repro.matrices.io import load_csr
        import numpy as np

        csr = random_csr(20, 25, rng)
        mtx = tmp_path / "m.mtx"
        npz = tmp_path / "m.npz"
        write_matrix_market(csr, mtx)
        assert main(["convert", str(mtx), str(npz)]) == 0
        back = load_csr(npz)
        assert np.allclose(back.to_dense(), csr.to_dense())

    def test_npz_to_mtx(self, tmp_path, rng):
        from repro.formats import read_matrix_market
        from repro.matrices.io import save_csr
        import numpy as np

        csr = random_csr(10, 10, rng)
        npz = tmp_path / "m.npz"
        mtx = tmp_path / "out.mtx"
        save_csr(npz, csr)
        assert main(["convert", str(npz), str(mtx)]) == 0
        assert np.allclose(read_matrix_market(str(mtx)).to_dense(),
                           csr.to_dense())

    def test_bad_extension(self, tmp_path):
        assert main(["convert", str(tmp_path / "a.xyz"),
                     str(tmp_path / "b.npz")]) == 2

    @pytest.mark.parametrize("body,msg", [
        ("2 2 1\n1 x 3.0\n", "bad entry"),
        ("2 2 -1\n", "negative size"),
        ("2 2 3\n1 1 3.0\n", "declared 3 entries, found 1"),
        ("2 2 1\n0 1 3.0\n", "1-based"),
    ])
    def test_malformed_mtx_is_one_line_error(self, tmp_path, capsys, body,
                                             msg):
        mtx = tmp_path / "bad.mtx"
        mtx.write_text("%%MatrixMarket matrix coordinate real general\n"
                       + body)
        assert main(["convert", str(mtx), str(tmp_path / "out.npz")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("repro: error: ") and msg in err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (tmp_path / "out.npz").exists()


class TestServeSimTrace:
    def test_trace_prints_attribution(self, capsys):
        assert main(["serve-sim", "--requests", "150", "--matrices", "2",
                     "--trace"]) == 0
        out = capsys.readouterr().out
        assert "device-time attribution" in out
        assert "regular_mma" in out and "irregular_csr" in out
        assert "coverage:" in out
        assert "batch" in out  # at least one span tree

    def test_trace_json_validates_against_schema(self, tmp_path, capsys):
        import json
        from pathlib import Path

        jsonschema = pytest.importorskip("jsonschema")
        out_path = tmp_path / "trace.json"
        assert main(["serve-sim", "--requests", "150", "--matrices", "2",
                     "--trace-json", str(out_path)]) == 0
        doc = json.loads(out_path.read_text())
        schema_path = (Path(__file__).resolve().parent.parent
                       / "schemas" / "serve_trace.schema.json")
        jsonschema.validate(doc, json.loads(schema_path.read_text()))
        assert doc["attribution"]["coverage"] >= 0.95

    @pytest.mark.parametrize("flags, digest", [
        (["--shards", "4"],
         "128bf87d8495b7f533477c26d8d785b5d0563e2d5b2e352ac1a68ec2880b6678"),
        (["--spmm-mix", "0.2", "--pipeline"],
         "50198fde7212510aec9d7fe371ee0f93507d8c3f4ffc28ee44bbb3a335cd5ae0"),
    ], ids=["shards4", "spmm_pipeline"])
    def test_trace_json_golden(self, tmp_path, capsys, flags, digest):
        """Every modeled span time, phase split and attribute of a
        sharded and a large-k pipelined run, pinned: the sha256 of the
        trace document with its wall-clock fields dropped."""
        import hashlib
        import json

        def modeled(node):
            if isinstance(node, dict):
                return {k: modeled(v) for k, v in node.items()
                        if k not in ("t0_s", "t1_s", "wall_s")}
            if isinstance(node, list):
                return [modeled(v) for v in node]
            return node

        out_path = tmp_path / "trace.json"
        assert main(["serve-sim", "--requests", "300", "--matrices", "3",
                     *flags, "--trace-json", str(out_path)]) == 0
        doc = modeled(json.loads(out_path.read_text()))
        text = json.dumps(doc, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_trace_prom_output(self, tmp_path, capsys):
        out_path = tmp_path / "metrics.prom"
        assert main(["serve-sim", "--requests", "150", "--matrices", "2",
                     "--trace-prom", str(out_path)]) == 0
        text = out_path.read_text()
        assert "# TYPE serve_requests_total counter" in text
        assert "serve_latency_seconds_bucket" in text

    def test_compare_with_trace(self, capsys):
        assert main(["serve-sim", "--requests", "150", "--matrices", "2",
                     "--compare", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "batched vs request-at-a-time throughput" in out
        assert "device-time attribution" in out


class TestStatsCommand:
    def test_table_format(self, capsys):
        assert main(["stats", "--requests", "150", "--matrices", "2"]) == 0
        out = capsys.readouterr().out
        assert "throughput (kernel time)" in out
        assert "device-time attribution" in out
        assert "coverage:" in out

    def test_json_format(self, capsys):
        import json

        assert main(["stats", "--requests", "150", "--matrices", "2",
                     "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == 1
        names = {m["name"] for m in doc["metrics"]}
        assert "serve.requests_total" in names
        assert doc["attribution"]["coverage"] >= 0.95

    def test_prometheus_format(self, capsys):
        assert main(["stats", "--requests", "150", "--matrices", "2",
                     "--format", "prometheus"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# TYPE")
        assert "serve_requests_total" in out


class TestPlanCommand:
    """`repro plan build|inspect|verify|warm|gc` — the store CLI."""

    def _build(self, tmp_path, *extra):
        store = tmp_path / "store"
        rc = main(["plan", "build", "scircuit", "cop20k_A",
                   "--store", str(store), *extra])
        return rc, store

    def test_build_and_inspect(self, tmp_path, capsys):
        rc, store = self._build(tmp_path)
        assert rc == 0
        out = capsys.readouterr().out
        assert "modeled load" in out and ".daspz" in out
        assert len(list((store / "plans").glob("*.daspz"))) == 2
        assert main(["plan", "inspect", "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "dasp" in out and "float64" in out

    def test_build_sharded(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(["plan", "build", "mc2depi", "--store", str(store),
                     "--shards", "4"]) == 0
        capsys.readouterr()
        assert main(["plan", "inspect", "--store", str(store)]) == 0
        assert "sharded(4)" in capsys.readouterr().out

    def test_verify_ok_and_corrupt(self, tmp_path, capsys):
        rc, store = self._build(tmp_path)
        assert main(["plan", "verify", "--store", str(store)]) == 0
        assert "2/2 artifacts verified" in capsys.readouterr().out
        # corrupt one artifact: verify must fail with exit code 1
        victim = sorted((store / "plans").glob("*.daspz"))[0]
        blob = bytearray(victim.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        victim.write_bytes(bytes(blob))
        assert main(["plan", "verify", "--store", str(store)]) == 1
        captured = capsys.readouterr()
        assert "FAILED" in captured.err
        assert "1/2 artifacts verified" in captured.out

    def test_verify_checks_the_delta_log(self, tmp_path, capsys):
        """`plan verify` CRC-checks each versioned artifact's delta log
        too, and a corrupt record fails it with exit code 1."""
        from repro.core import random_delta
        from repro.store import PlanStore

        rc, store_dir = self._build(tmp_path)
        store = PlanStore(store_dir)
        fp = store.fingerprints()[0]
        plan, _ = store.load(fp, gate=False)
        rng = np.random.default_rng(0)
        for v in (1, 2, 3):
            d = random_delta(plan.csr, rng, n_entries=4)
            store.put_delta(fp, v, d)
            plan, _ = store.load(fp, gate=False)
        capsys.readouterr()
        assert main(["plan", "verify", "--store", str(store_dir)]) == 0
        assert "2/2 artifacts verified" in capsys.readouterr().out
        log = store.log_path_for(fp)
        blob = bytearray(log.read_bytes())
        blob[len(blob) // 2] ^= 0xFF  # inside the middle record
        log.write_bytes(bytes(blob))
        assert main(["plan", "verify", "--store", str(store_dir)]) == 1
        captured = capsys.readouterr()
        assert "FAILED" in captured.err and "delta" in captured.err
        assert "1/2 artifacts verified" in captured.out

    def test_warm(self, tmp_path, capsys):
        rc, store = self._build(tmp_path)
        assert main(["plan", "warm", "scircuit", "cop20k_A",
                     "--store", str(store)]) == 0
        out = capsys.readouterr().out
        assert "warmed in" in out and "2 loaded, 0 missing" in out
        # a matrix that was never built reports missing -> exit 1
        assert main(["plan", "warm", "mc2depi",
                     "--store", str(store)]) == 1
        assert "not in store" in capsys.readouterr().out

    def test_gc(self, tmp_path, capsys):
        rc, store = self._build(tmp_path)
        assert main(["plan", "gc", "--store", str(store),
                     "--capacity-mb", "0.001"]) == 0
        out = capsys.readouterr().out
        assert "removed 2 artifact(s)" in out
        assert list((store / "plans").glob("*.daspz")) == []

    def test_serve_sim_with_store(self, tmp_path, capsys):
        store = tmp_path / "store"
        assert main(["serve-sim", "--requests", "150", "--matrices", "2",
                     "--store", str(store)]) == 0
        assert "store load / write / spill" in capsys.readouterr().out
        assert main(["serve-sim", "--requests", "150", "--matrices", "2",
                     "--store", str(store), "--warm-start"]) == 0
        out = capsys.readouterr().out
        assert "| store load / write / spill | 2 / 0 / 0 |" in out


class TestClusterSim:
    def test_prints_cluster_and_replica_tables(self, capsys):
        assert main(["cluster-sim", "--replicas", "2", "--requests", "600",
                     "--synthetic", "3", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "| replicas | 2 |" in out
        assert "failovers" in out
        assert "| r0 |" in out and "| r1 |" in out
        metric = {cells[0]: cells[1] for cells in _table_rows(out)}
        assert float(metric["throughput"].split()[0].replace(",", "")) > 0
        assert 0.0 <= float(metric["in-deadline fraction"]) <= 1.0
        latency = metric["p50 / p95 / p99 latency"].removesuffix(" us")
        p50, _, p99 = map(float, latency.split(" / "))
        assert p50 <= p99

    def test_cluster_update_golden(self, capsys):
        """Value and structural deltas broadcast to two replicas beside
        reads, pinned byte for byte: a version's price is read off its
        inherited or re-derived sector counts, so no modeled number
        depends on where the counts came from."""
        assert main(["cluster-sim", "--replicas", "2", "--requests", "600",
                     "--synthetic", "4", "--seed", "3", "--rate", "150000",
                     "--update-mix", "0.1", "--structural-frac", "0.3"]) == 0
        assert capsys.readouterr().out == (
            "| cluster metric | value |\n"
            "|---|---|\n"
            "| replicas | 2 |\n"
            "| requests offered | 534 |\n"
            "| completed | 534 |\n"
            "| rejected / expired / failed | 0 / 0 / 0 |\n"
            "| degraded | 0 |\n"
            "| in-deadline fraction | 1.0000 |\n"
            "| throughput | 122,769 req/s |\n"
            "| p50 / p95 / p99 latency | 60.7 / 202.5 / 207.3 us |\n"
            "| failovers | 0 |\n"
            "| health probes / down / up | 398 / 0 / 0 |\n"
            "| scale up / down / moved fps | 0 / 0 / 0 |\n"
            "| makespan | 0.0043 s |\n"
            "| matrix updates (broadcast) | 66 |\n"
            "\n"
            "| replica | requests | completed | retries | req/s | cache hits | straggler | unhealthy |\n"
            "|---|---|---|---|---|---|---|---|\n"
            "| r0 | 392 | 392 | 0 | 1,358,557 | 100.0% | no | no |\n"
            "| r1 | 142 | 142 | 0 | 787,023 | 97.4% | no | no |\n"
        )

    def test_single_replica_matches_serve_driver(self, capsys):
        """N=1 cluster-sim reports the single driver's numbers."""
        from repro.cluster import ClusterConfig, run_cluster_workload
        from repro.matrices import synthetic_collection
        from repro.serve import WorkloadConfig, run_workload

        kw = dict(n_requests=600, seed=3,
                  entries=synthetic_collection(3, seed=3))
        single = run_workload(WorkloadConfig(**kw))
        assert main(["cluster-sim", "--replicas", "1", "--requests", "600",
                     "--synthetic", "3", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert f"| completed | {single.n_completed:,} |" in out
        assert f"| makespan | {single.duration_s:.4f} s |" in out

    def test_fail_replica_and_trace(self, capsys):
        assert main(["cluster-sim", "--replicas", "3", "--requests", "900",
                     "--synthetic", "3", "--seed", "3", "--fail-replica",
                     "1", "--deadline-us", "20000", "--trace"]) == 0
        out = capsys.readouterr().out
        assert "attributed device ms" in out
