"""``churn-stream``: live churn through ``AssignmentSession.apply``.

A session seeded with 200 functions × 5,000 objects (d=3, capacities
and priorities up to 2) and ``churn_backend="auto"`` (which resolves
to ``vec``); each op applies one ``churn_stream`` event, in episodes of
``EPISODE_EVENTS`` on a freshly seeded session.  It drives the
same skyline/Pareto kernels as ``solve-large`` from the mutation side,
so a kernel change that helps batch solves but slows incremental
repair shows here.
"""

from __future__ import annotations

import time
from collections import Counter
from pathlib import Path

import numpy as np

from perfbench.checks import blocking_pair, pair_bits
from perfbench.harness import (
    DATASET_SEED,
    RSS_AT_OPS,
    SETUP_REPS,
    OpLog,
    end_to_end,
    log,
    trace_overhead,
    vm_hwm_mb,
)
from perfbench.ledger import Ledger
from repro.api.events import (
    FunctionArrived,
    FunctionDeparted,
    ObjectArrived,
    ObjectDeparted,
)
from repro.api.problem import Problem
from repro.api.session import AssignmentSession
from repro.data.generators import (
    churn_stream,
    make_functions,
    make_objects,
    random_capacities,
    random_priorities,
)
from repro.data.instances import FunctionSet, ObjectSet
from repro.obs.trace import SpanCollector, collecting

N_OBJECTS = 5000
N_FUNCTIONS = 200
DIMS = 3
MAX_CAPACITY = 2
MAX_PRIORITY = 2
#: Events per episode.  Each episode replays a fresh ``churn_stream``
#: on a freshly seeded session, so a run averages several independent
#: paths of the population instead of following one random walk, whose
#: per-event cost differs by ~10% from seed to seed.
EPISODE_EVENTS = 100
COUNTERS = (
    "events_applied",
    "pairs_rematched",
    "full_rematches",
    "suffix_rematch_count",
    "kernel_score_cells",
    "kernel_tie_resolutions",
)


class Population:
    """The live participants by handle, mirrored from the events (the
    generator's handle rule is the session's), for the final
    from-scratch re-solve."""

    def __init__(self, functions: FunctionSet, objects: ObjectSet):
        self.functions = {
            fid: (w, functions.gamma(fid), functions.capacity(fid))
            for fid, w in functions.items()
        }
        self.objects = {oid: (p, objects.capacity(oid)) for oid, p in objects.items()}
        self._next_f, self._next_o = len(functions), len(objects)

    def apply(self, event) -> None:
        if isinstance(event, ObjectArrived):
            self.objects[self._next_o] = (tuple(event.point), event.capacity)
            self._next_o += 1
        elif isinstance(event, FunctionArrived):
            self.functions[self._next_f] = (
                tuple(float(x) for x in event.weights),
                float(event.priority),
                event.capacity,
            )
            self._next_f += 1
        elif isinstance(event, ObjectDeparted):
            del self.objects[event.oid]
        elif isinstance(event, FunctionDeparted):
            del self.functions[event.fid]

    def problem(self) -> tuple[Problem, dict, dict]:
        """The surviving instance, densely renumbered, plus the
        handle → position maps."""
        fids, oids = sorted(self.functions), sorted(self.objects)
        functions = FunctionSet(
            [self.functions[f][0] for f in fids],
            gammas=[self.functions[f][1] for f in fids],
            capacities=[self.functions[f][2] for f in fids],
        )
        objects = ObjectSet(
            [self.objects[o][0] for o in oids],
            capacities=[self.objects[o][1] for o in oids],
        )
        problem = Problem.from_sets(objects, functions, method="auto")
        return (
            problem,
            {f: i for i, f in enumerate(fids)},
            {o: i for i, o in enumerate(oids)},
        )


def _seed_instance(rng):
    objects = make_objects(
        N_OBJECTS,
        DIMS,
        "anti-correlated",
        seed=rng,
        capacities=random_capacities(N_OBJECTS, MAX_CAPACITY, seed=rng, fixed=False),
    )
    functions = make_functions(
        N_FUNCTIONS,
        DIMS,
        seed=rng,
        gammas=random_priorities(N_FUNCTIONS, MAX_PRIORITY, seed=rng),
        capacities=random_capacities(N_FUNCTIONS, MAX_CAPACITY, seed=rng, fixed=False),
    )
    return functions, objects


def _seeded_session(functions: FunctionSet, objects: ObjectSet) -> AssignmentSession:
    session = AssignmentSession(
        Problem.from_sets(objects, functions, method="auto"),
        churn_backend="auto",
    )
    session.current()  # seeds the dynamic matching: its first solve
    return session


def _counters(session: AssignmentSession) -> Counter:
    info = session.churn_info()
    return Counter({k: info[k] for k in COUNTERS})


def run(src: Path, seed: int, seconds: float, trace: bool) -> dict:
    functions, objects = _seed_instance(np.random.default_rng(DATASET_SEED))
    rng = np.random.default_rng(seed)

    setup: list[float] = []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        session = _seeded_session(functions, objects)
        setup.append(time.perf_counter() - start)
        session.close()
    log(f"churn-stream: setup {[round(s, 3) for s in setup]} s")

    ops = OpLog()
    ledger = Ledger()
    traced_lat: list[float] = []
    untraced_lat: list[float] = []
    rss_mb = None
    counters: Counter = Counter()
    episodes: list[tuple] = []  # (population, churned pairs)
    session = None
    try:
        ops.started = time.perf_counter()
        end = ops.started + seconds
        while time.perf_counter() < end:
            paused = time.perf_counter()
            if session is not None:
                counters += _counters(session) - seeded
                episodes.append((population, session.current().pairs))
                session.close()
            session = _seeded_session(functions, objects)
            seeded = _counters(session)
            population = Population(functions, objects)
            events = churn_stream(
                EPISODE_EVENTS,
                functions,
                objects,
                max_capacity=MAX_CAPACITY,
                max_priority=MAX_PRIORITY,
                seed=rng,
            )
            # Counted once the episode's first op runs: a window that
            # ends during re-seeding ended at the last op.
            reseed = time.perf_counter() - paused
            for event in events:
                if time.perf_counter() >= end:
                    break
                traced_op = trace and ops.attempted % 2 == 1
                collector = SpanCollector()
                start = time.perf_counter()
                try:
                    if traced_op:
                        with collecting(collector):
                            session.apply(event)
                    else:
                        session.apply(event)
                except Exception as exc:  # a failed op is counted, not fatal
                    ops.fail(exc)
                    continue
                wall = time.perf_counter() - start
                ops.record(wall)
                ops.finished = time.perf_counter()
                ops.paused += reseed
                reseed = 0.0
                population.apply(event)
                if ops.completed == RSS_AT_OPS:
                    rss_mb = vm_hwm_mb()
                if not trace:
                    continue
                (traced_lat if traced_op else untraced_lat).append(wall)
                if traced_op:
                    ledger.add_op(wall, [s.to_dict() for s in collector.spans], [])
        if rss_mb is None:
            rss_mb = vm_hwm_mb()
        counters += _counters(session) - seeded
        episodes.append((population, session.current().pairs))
        mismatches = _check(session, episodes)
    finally:
        if session is not None:
            session.close()

    log(f"churn-stream: {ops.attempted} events in {len(episodes)} episodes, {ops.failed} failed")
    record = {
        "episodes": len(episodes),
        "counters": {k: counters[k] for k in COUNTERS},
        "errors": ops.errors,
        "mismatches": mismatches[:5],
    }
    result = {"ops": ops, "record": record, "mismatches": len(mismatches)}
    if not trace:
        result["metrics"] = end_to_end(setup, ops, rss_mb, seconds)
        return result
    events_applied = max(counters["events_applied"], 1)
    result["metrics"] = {
        **trace_overhead(traced_lat, untraced_lat),
        "dynamic.pairs_rematched_per_event": counters["pairs_rematched"] / events_applied,
        "dynamic.full_rematches": counters["full_rematches"],
        "dynamic.suffix_rematches": counters["suffix_rematch_count"],
        "kernels.score_cells_per_event": counters["kernel_score_cells"] / events_applied,
        "kernels.tie_resolutions": counters["kernel_tie_resolutions"],
    }
    result["ledger"] = ledger
    return result


def _check(session: AssignmentSession, episodes: list[tuple]) -> list[str]:
    """Each episode's churned matching must equal, pair for pair and
    score bit for score bit, a from-scratch solve of its survivors, and
    that solve must be stable.  The last episode's live session also
    certifies itself with ``verify_current()``."""
    try:
        session.verify_current()
    except AssertionError as exc:
        return [f"verify_current: {exc}"]
    mismatches = []
    for i, (population, pairs) in enumerate(episodes):
        problem, f_map, o_map = population.problem()
        with AssignmentSession(problem) as scratch:
            fresh = scratch.solve()
        if pair_bits(pairs, f_map, o_map) != pair_bits(fresh.pairs):
            mismatches.append(f"episode {i}: churned pairs differ from a from-scratch {fresh.method} solve")
            continue
        error = blocking_pair(fresh.pairs, problem.function_set, problem.object_set)
        if error is not None:
            mismatches.append(f"episode {i}: {error}")
    return mismatches
