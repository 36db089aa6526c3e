"""Run one benchmark workload against the checkout this file sits in.

Usage::

    python3 perfbench/run.py --workload serve-cohorts --seed 1 --seconds 25 --trace 0

Workloads: ``serve-cohorts``, ``solve-large``, ``churn-stream`` (see
``perfbench/README.md``).  With ``--trace 0`` the result carries the
end-to-end metrics declared in ``BENCHMARK.json``; with ``--trace 1``
the per-layer ones, from the program's own spans and counters.  Every
result is checked after the timed window; a mismatch marks the run
incorrect and exits 1.  The last line of stdout is the result JSON;
the line before it is the full run record, also written under
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOADS = ("serve-cohorts", "solve-large", "churn-stream")

#: Per-layer metric → span name whose per-op summed duration it reports.
SPAN_DURATIONS = {
    "api.from_sets_ms": "api.from_sets",
    "server.register_ms": "problem.register",
    "server.solve_execute_ms": "solve.execute",
    "service.index_lookup_ms": "index.lookup",
    "engine.solve_ms": "engine.solve",
    "engine.skyline_initial_ms": "engine.skyline_initial",
    "engine.search_ms": "engine.search",
    "engine.commit_ms": "engine.commit",
    "engine.skyline_repair_ms": "engine.skyline_repair",
    "session.apply_ms": "session.apply",
}

#: Per-layer metrics that are a ledger layer's median self time.
SELF_TIMES = (
    "client.request_self_ms",
    "cluster.gateway_self_ms",
    "cluster.forward_ms",
    "server.request_self_ms",
    "session.solve_self_ms",
)

#: Coverage below this share of op wall time is reported as a gap.
COVERAGE_FLOOR_PCT = 90.0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def ledger_metrics(ledger) -> tuple[dict, dict]:
    """Span-derived per-layer metrics plus the coverage summary."""
    metrics = {}
    for metric, name in SPAN_DURATIONS.items():
        value = ledger.duration_ms(name)
        if value is not None:
            metrics[metric] = value
    for layer in SELF_TIMES:
        value = ledger.layer_ms(layer)
        if value is not None:
            metrics[layer] = value
    coverage, gaps = ledger.coverage()
    metrics["coverage_pct"] = coverage
    metrics["ledger.gap_ms"] = statistics.median(gaps) * 1000.0
    summary = {
        "traced_ops": ledger.ops,
        "op_wall_p50_ms": statistics.median(ledger.walls) * 1000.0,
        "coverage_pct": coverage,
        "gap_p50_ms": metrics["ledger.gap_ms"],
        "layers": ledger.table(),
    }
    if coverage < COVERAGE_FLOOR_PCT:
        summary["unexplained_gap"] = (
            f"coverage {coverage:.1f}% is below {COVERAGE_FLOOR_PCT:.0f}%: "
            f"{metrics['ledger.gap_ms']:.2f} ms of each op is outside every span"
        )
    return metrics, summary


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"error: no program source at {SRC}/repro", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(ROOT))

    from perfbench import churn_stream, harness, serve_cohorts, solve_large

    module = {
        "serve-cohorts": serve_cohorts,
        "solve-large": solve_large,
        "churn-stream": churn_stream,
    }[args.workload]
    trace = bool(args.trace)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **harness.host_facts(ROOT),
        "loadavg_start": os.getloadavg(),
        "host_ref_ms_before": harness.host_reference_ms(),
    }
    started = time.perf_counter()
    outcome = module.run(SRC, args.seed, args.seconds, trace)
    record["host_ref_ms_after"] = harness.host_reference_ms()
    record["loadavg_end"] = os.getloadavg()
    record["run_wall_s"] = time.perf_counter() - started

    ops = outcome["ops"]
    measured = dict(outcome["metrics"])
    if trace:
        extra, record["ledger"] = ledger_metrics(outcome["ledger"])
        measured.update(extra)
        # Over every op of the traced run, traced or not: a 90th
        # percentile repeats too poorly on a drifting host to bound.
        measured["op_p90_ms"] = harness.latency_ms(ops.latencies, 90, args.seconds)
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    metrics, absent = {}, {}
    for entry in declared:
        name = entry["name"]
        value = measured.get(name)
        if value is None:
            if not trace:
                raise RuntimeError(f"{args.workload} produced no {name}")
            # Counters of a layer this workload never reaches read 0.
            value, absent[name] = 0, "this workload does not reach that layer"
        metrics[name] = {"value": value, "unit": entry["unit"]}
    correct = outcome["mismatches"] == 0
    record.update(
        attempted=ops.attempted,
        failed=ops.failed,
        correct=correct,
        metrics=metrics,
        absent=absent,
        undeclared={k: v for k, v in measured.items() if k not in metrics},
        workload_record=outcome["record"],
    )
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(record, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": ops.attempted,
                # A mismatching op is a failed op.
                "failed": ops.failed + outcome["mismatches"],
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
