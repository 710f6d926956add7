"""Benchmark harness: sweep runner and reporting helpers.  The
paper-figure pipelines that drive them live in the ``benchmarks/``
pytest files."""

from .report import (
    RESULTS_DIR,
    markdown_table,
    paper_vs_measured,
    results_path,
    save_csv,
)
from .runner import ComparisonResult, run_comparison

__all__ = [
    "ComparisonResult",
    "RESULTS_DIR",
    "markdown_table",
    "paper_vs_measured",
    "results_path",
    "run_comparison",
    "save_csv",
]
