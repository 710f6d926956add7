"""Check how steady the benchmark is: two rounds of ten seeds per workload.

Usage, from the repository root::

    python3 perfbench/spread.py                     # every workload
    python3 perfbench/spread.py --workloads churn   # a subset

A round runs every workload on seeds 1-10 with ``--trace 0`` and the
``run_seconds`` of ``BENCHMARK.json``; the second round starts when the
first has ended.  For every end-to-end metric it prints, per round, the
median over the seeds and the spread, ``(Q3 - Q1) / median`` with the
quartiles of ``statistics.quantiles(values, n=4)``, and how much worse
the second median is than the first, as a share of the first.  A cell
fails when a spread (other than that of ``setup_s``) exceeds the
metric's bound or the second median is worse than the first by more
than the bound.  A spread under a third of the bound counts as steady.
All values go to ``.perfbench_work/spread.json``; exit code 1 means
a run failed or a cell failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
ROUNDS = 2


def run_one(workload: str, seed: int, seconds: int) -> tuple[dict, float]:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1]), wall


def summarize(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"), "values": values}


def worsening(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    if not first:
        return 0.0 if second == first else float("inf")
    return (second - first) / first if better == "lower" else (first - second) / first


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in bench["workloads"]])
    args = ap.parse_args()
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)

    rounds = []
    for r in range(ROUNDS):
        results = {}
        for workload in args.workloads:
            runs = [run_one(workload, seed, seconds) for seed in SEEDS]
            print(f"round {r + 1} {workload}: run wall "
                  f"{min(w for _, w in runs):.0f}-{max(w for _, w in runs):.0f} s",
                  flush=True)
            results[workload] = {
                name: {"unit": runs[0][0]["metrics"][name]["unit"],
                       **summarize([res["metrics"][name]["value"] for res, _ in runs])}
                for name in metrics}
        rounds.append(results)

    failed = False
    for workload in args.workloads:
        print(f"\n{workload}")
        print(f"{'metric':16s} {'median 1':>12s} {'spread 1':>9s} {'median 2':>12s} "
              f"{'spread 2':>9s} {'worse':>8s} {'bound':>6s}")
        for name, m in metrics.items():
            a, b = rounds[0][workload][name], rounds[1][workload][name]
            worse = worsening(a["median"], b["median"], m["better"])
            spreads = [a["spread"], b["spread"]]
            if name == "setup_s":
                spreads = []
            if worse > m["bound"] or any(not sp <= m["bound"] for sp in spreads):
                verdict, failed = "  FAIL", True
            elif any(sp >= m["bound"] / 3 for sp in spreads):
                verdict = "  within bound, not steady"
            else:
                verdict = ""
            print(f"{name:16s} {a['median']:12.6g} {a['spread']:9.4f} "
                  f"{b['median']:12.6g} {b['spread']:9.4f} {worse:8.4f} "
                  f"{m['bound']:6.3f}{verdict}")
    (work / "spread.json").write_text(json.dumps(
        {"seeds": list(SEEDS), "seconds": seconds, "rounds": rounds}, indent=1))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
