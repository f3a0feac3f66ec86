#!/usr/bin/env python3
"""Run one benchmark workload, or all of them, and print the result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload tables_full --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all          # every workload
    python3 perfbench/run.py --workload corpus_cold --trace 1   # layer trace

``BENCHMARK.json`` lists every workload but ``corpus_cold`` (its cold
fills drift too much on a shared 2-core host to hold a 25% bound; see
README.md), which runs the same way by name and under ``all``.

Human-readable lines (each metric with its unit and sample count, and
for traced runs the per-layer self-time tables) come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` its per-layer
metrics.  Exits 2 without a result when the program under test is not
in the checkout.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
sys.path.insert(1, str(ROOT / "src"))

from perfbench.common import WORK, missing_program  # noqa: E402

SPEC_PATH = ROOT / "BENCHMARK.json"


def run_one(name: str, args, spec: dict) -> dict:
    """Run one workload in this process; prints its report lines and
    returns the result object."""
    from perfbench import workloads
    trace = bool(args.trace)
    specs = spec["per_layer" if trace else "end_to_end"]
    try:
        if trace:
            result = workloads.traced(name, args.seed,
                                      [m["name"] for m in specs])
        else:
            result = workloads.WORKLOADS[name](args.seed, args.seconds)
    finally:
        shutil.rmtree(WORK / name, ignore_errors=True)
    print(f"== {name} (seed {args.seed}, "
          f"{'traced' if trace else 'untraced'})")
    for line in result.report:
        print(line)
    tally = result.tally
    return {"correct": tally.failed == 0 and tally.attempted > 0,
            "attempted": max(tally.attempted, 1), "failed": tally.failed,
            "metrics": {m["name"]: {"value": float(result.metrics[m["name"]]),
                                    "unit": m["unit"]} for m in specs}}


def run_all(names, args) -> dict:
    """Every workload, each in its own child process (so peak RSS and
    in-process state stay per workload); metrics are keyed
    ``<workload>.<metric>``."""
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload",
             name, "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stdout + proc.stderr)
            raise SystemExit(proc.returncode or 1)
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        out["correct"] = out["correct"] and result["correct"]
        out["attempted"] += result["attempted"]
        out["failed"] += result["failed"]
        out["metrics"].update({f"{name}.{key}": value for key, value
                               in result["metrics"].items()})
    return out


def main(argv=None) -> int:
    problem = missing_program()
    if problem is None and not SPEC_PATH.is_file():
        problem = f"{SPEC_PATH.name} not found"
    if problem is not None:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]),
                        help="warm-phase measuring budget per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        payload = run_all(list(WORKLOADS), args)
    else:
        payload = run_one(args.workload, args, spec)
    print(json.dumps(payload, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
