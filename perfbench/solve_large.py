"""``solve-large``: in-process batch solves over one large catalogue.

One ``AssignmentSession`` over 10,000 anti-correlated objects (d=4).
Each op builds a new 200-function cohort with ``Problem.from_sets`` and
calls ``session.solve``; ``method="auto"`` resolves to ``sb-vec``.  No
wire and no server: skyline upkeep in the kernels is most of an op, so
a kernel change moves this workload and a wire change should not.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
from collections import Counter
from pathlib import Path

import numpy as np

from perfbench.checks import blocking_pair
from perfbench.harness import (
    DATASET_SEED,
    RSS_AT_OPS,
    SETUP_REPS,
    OpLog,
    end_to_end,
    log,
    planner_picks,
    trace_overhead,
    vm_hwm_mb,
)
from perfbench.ledger import Ledger
from repro.api.problem import Problem
from repro.api.session import AssignmentSession
from repro.data.generators import make_functions, make_objects
from repro.kernels.columnar import ColumnarInstance
from repro.obs.trace import SpanCollector, collecting, span

N_OBJECTS = 10_000
N_FUNCTIONS = 200
DIMS = 4


def _op(session: AssignmentSession, catalogue, functions):
    with span("api.from_sets"):
        problem = Problem.from_sets(catalogue, functions, method="auto")
    return session.solve(problem)


def _replay(catalogue, functions) -> dict:
    """Time the calls no span isolates, on this op's own input."""
    problem = Problem.from_sets(catalogue, functions, method="auto")
    start = time.perf_counter()
    problem.plan()
    plan_s = time.perf_counter() - start
    start = time.perf_counter()
    ColumnarInstance(problem.function_set, problem.object_set)
    build_s = time.perf_counter() - start
    return {
        "planner.plan_ms": plan_s * 1000.0,
        "kernels.columnar_build_ms": build_s * 1000.0,
    }


def run(src: Path, seed: int, seconds: float, trace: bool) -> dict:
    dataset = np.random.default_rng(DATASET_SEED)
    catalogue = make_objects(N_OBJECTS, DIMS, "anti-correlated", seed=dataset)
    base_functions = make_functions(N_FUNCTIONS, DIMS, seed=dataset)
    rng = np.random.default_rng(seed)

    setup: list[float] = []
    session = None
    for _ in range(SETUP_REPS):
        if session is not None:
            session.close()
            session = None
        start = time.perf_counter()
        session = AssignmentSession(
            Problem.from_sets(catalogue, base_functions, method="auto")
        )
        session.warm()
        session.solve()
        setup.append(time.perf_counter() - start)
    log(f"solve-large: setup {[round(s, 3) for s in setup]} s")

    ops = OpLog()
    results = []  # (functions, solution)
    ledger = Ledger()
    traced_lat: list[float] = []
    untraced_lat: list[float] = []
    replays: list[dict] = []
    stats: list = []
    rss_mb = None
    try:
        ops.started = time.perf_counter()
        end = ops.started + seconds
        while time.perf_counter() < end:
            functions = make_functions(N_FUNCTIONS, DIMS, seed=rng)
            traced_op = trace and ops.attempted % 2 == 1
            collector = SpanCollector()
            start = time.perf_counter()
            try:
                if traced_op:
                    with collecting(collector):
                        solution = _op(session, catalogue, functions)
                else:
                    solution = _op(session, catalogue, functions)
            except Exception as exc:  # a failed op is counted, not fatal
                ops.fail(exc)
                continue
            wall = time.perf_counter() - start
            ops.record(wall)
            ops.finished = time.perf_counter()
            # Keep the pairs, not the problem: holding every op's
            # 10,000-object Problem would grow this process's RSS.
            results.append((functions, dataclasses.replace(solution, problem=None)))
            if ops.completed == RSS_AT_OPS:
                rss_mb = vm_hwm_mb()
            if not trace:
                continue
            (traced_lat if traced_op else untraced_lat).append(wall)
            if traced_op:
                ledger.add_op(wall, [s.to_dict() for s in collector.spans], [])
                replays.append(_replay(catalogue, functions))
                stats.append(solution.stats)
        if rss_mb is None:
            rss_mb = vm_hwm_mb()
    finally:
        session.close()

    picks = Counter(solution.method for _, solution in results)
    log(f"solve-large: {ops.attempted} ops, {ops.failed} failed, picks {dict(picks)}")
    mismatches = _check(catalogue, results)
    record = {"planner_picks": dict(picks), "errors": ops.errors, "mismatches": mismatches[:5]}
    result = {"ops": ops, "record": record, "mismatches": len(mismatches)}
    if not trace:
        result["metrics"] = end_to_end(setup, ops, rss_mb, seconds)
        return result
    metrics = {
        **planner_picks([solution.method for _, solution in results]),
        **trace_overhead(traced_lat, untraced_lat),
        "engine.loops": statistics.median(s.loops for s in stats),
        "kernels.score_cells": statistics.median(
            s.counters.get("kernel_score_cells", 0) for s in stats
        ),
        "kernels.tie_resolutions": statistics.median(
            s.counters.get("kernel_tie_resolutions", 0) for s in stats
        ),
    }
    for key in replays[0] if replays else ():
        metrics[key] = statistics.median(r[key] for r in replays)
    result["metrics"] = metrics
    result["ledger"] = ledger
    return result


def _check(catalogue, results) -> list[str]:
    """Every result is checked for capacity, score bits and stability
    by the screened check; the first also by ``Solution.verify()``
    itself, which takes seconds at this size."""
    mismatches = []
    point_matrix = np.asarray(catalogue.points, dtype=np.float64)
    for i, (functions, solution) in enumerate(results):
        if i == 0:
            try:
                solution.verify(functions, catalogue)
            except AssertionError as exc:
                mismatches.append(f"op {i}: Solution.verify: {exc}")
        error = blocking_pair(solution.pairs, functions, catalogue, point_matrix)
        if error is not None:
            mismatches.append(f"op {i}: {error}")
    return mismatches
