"""Benchmark harness: sweep runner, reporting helpers and per-suite
perf-trajectory records.  The paper-figure pipelines that drive them
live in the ``benchmarks/`` pytest files."""

from .report import (
    RESULTS_DIR,
    markdown_table,
    paper_vs_measured,
    results_path,
    save_csv,
)
from .runner import ComparisonResult, run_comparison
from .trajectory import bench_path, load_trajectory, record_bench

__all__ = [
    "ComparisonResult",
    "bench_path",
    "load_trajectory",
    "record_bench",
    "RESULTS_DIR",
    "markdown_table",
    "paper_vs_measured",
    "results_path",
    "run_comparison",
    "save_csv",
]
