"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload kernel --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (spans written to ``.perfbench_work/``).  Each
metric is printed by name with its unit; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is non-zero when an output check fails
or when the package sources are not in the checkout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("kernel", "serve", "churn")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no package sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    import importlib

    from perfbench.common import WORK_DIR, CheckFailed

    workload = importlib.import_module(f"perfbench.{args.workload}")
    try:
        rep = workload.run(args.seed, args.seconds, trace=bool(args.trace))
    except CheckFailed as exc:
        print(f"perfbench: output check failed: {exc}", file=sys.stderr)
        return 1

    for note in rep.notes:
        print(f"# {args.workload}: {note}")
    for name, m in rep.metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    if rep.recorder is not None:
        WORK_DIR.mkdir(exist_ok=True)
        path = WORK_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        rep.recorder.dump(path)
        print(f"# {len(rep.recorder.spans)} spans written to {path.relative_to(ROOT)}")
    print(json.dumps({"correct": rep.correct, "attempted": int(rep.attempted),
                      "failed": int(rep.failed), "metrics": rep.metrics}))
    return 0 if rep.correct else 1


if __name__ == "__main__":
    sys.exit(main())
