"""Repeat ``run.py`` over seeds and summarise every metric's spread.

Usage::

    python3 perfbench/collect.py --runs 10 [--workloads solve-large ...]
        [--trace 0] [--seconds S] [--out perfbench/RESULTS.json]

Runs each workload ``--runs`` times, seed 1, 2, ... (one seed per run),
sequentially, and writes one JSON file holding the host facts, every
run's full record and, per workload and metric, every run's value, the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread: the interquartile distance as a share of the median, the figure
the metric's ``bound`` in ``BENCHMARK.json`` is compared against.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarise(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) < 2:
        return {"values": values, "median": median}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, default=ROOT / "perfbench" / "RESULTS.json")
    args = parser.parse_args(argv)

    declared = {
        m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    report: dict = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            command = [
                *spec["command"],
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", f"{args.seconds:g}",
                "--trace", str(args.trace),
            ]
            started = time.perf_counter()
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or len(lines) < 2:
                print(done.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed} exited {done.returncode}")
            record = json.loads(lines[-2])
            record["process_wall_s"] = time.perf_counter() - started
            runs.append(record)
            shown = {k: round(v["value"], 3) for k, v in record["metrics"].items()}
            print(f"{workload} seed {seed}: {record['process_wall_s']:.1f}s {shown}", flush=True)
        metrics = {}
        for name in declared:
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = summarise(values)
            bound = declared[name].get("bound")
            if bound is not None:
                metrics[name]["bound"] = bound
        report["workloads"][workload] = {"metrics": metrics, "runs": runs}
        for name, summary in metrics.items():
            if summary.get("bound") is not None:
                print(
                    f"  {workload} {name}: median {summary['median']:.4g} "
                    f"spread {summary['spread']:.4f} (bound {summary['bound']})"
                )
    report["loadavg_end"] = os.getloadavg()
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
