"""``serve-cohorts``: inline cohorts through a gateway and two backends.

The real console processes (``python -m repro.cluster`` is what
``repro-gateway`` runs, ``python -m repro.server`` what
``repro-server`` runs), all on default settings.  One closed-loop
client calls ``Client.solve`` with each new inline problem (register +
solve, each shipping the ~420 KB catalogue) while one open-loop prober
sends ``GET /healthz`` to the backends at a fixed rate.  A probe is
timed from the moment it was due, so an event loop stalled by a
registration delays every probe queued behind it.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import select
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np

from perfbench.checks import pair_bits
from perfbench.harness import (
    DATASET_SEED,
    RSS_AT_OPS,
    OpLog,
    end_to_end,
    latency_ms,
    log,
    planner_picks,
    trace_overhead,
    vm_hwm_mb,
)
from perfbench.ledger import Ledger
from repro.api.problem import Problem
from repro.api.session import AssignmentSession
from repro.api.solution import Solution
from repro.data.generators import make_functions, make_objects, request_stream
from repro.obs.trace import SpanCollector, collecting
from repro.server.client import Client

CATALOGUES = 4
N_OBJECTS = 5000
DIMS = 4
#: Probes per second, alternating between the two backends: enough for
#: a p99 with ten probes beyond it in a 25 s window.
PROBE_HZ = 40.0
BOOT_TIMEOUT = 60.0
#: Fewer set-up repetitions than in-process workloads: each one boots
#: three processes.
SETUP_REPS = 3

_URL = re.compile(r"http://[0-9.]+:[0-9]+")


class Fleet:
    """Two ``repro-server`` backends behind one ``repro-gateway``."""

    def __init__(self, src: Path):
        self._src = src
        self.procs: list[subprocess.Popen] = []
        self.backends: list[str] = []
        self.gateway = ""

    def _spawn(self, module: str, *args: str) -> subprocess.Popen:
        proc = subprocess.Popen(
            [sys.executable, "-m", module, "--port", "0", *args],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env={**os.environ, "PYTHONPATH": str(self._src)},
        )
        self.procs.append(proc)
        return proc

    @staticmethod
    def _announced(proc: subprocess.Popen) -> str:
        ready, _, _ = select.select([proc.stdout], [], [], BOOT_TIMEOUT)
        line = proc.stdout.readline() if ready else ""
        match = _URL.search(line)
        if match is None:
            raise RuntimeError(f"process {proc.args} did not announce: {line!r}")
        return match.group(0)

    def boot(self) -> None:
        starting = [self._spawn("repro.server") for _ in range(2)]
        self.backends = [self._announced(p) for p in starting]
        backend_args = [arg for url in self.backends for arg in ("--backend", url)]
        self.gateway = self._announced(self._spawn("repro.cluster", *backend_args))

    def rss_mb(self) -> float:
        return sum(vm_hwm_mb(p.pid) for p in self.procs)

    def stop(self) -> None:
        for proc in self.procs:
            proc.terminate()
        for proc in self.procs:
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        self.procs = []


class Prober(threading.Thread):
    """Open-loop ``/healthz`` sender: probe k is due at ``start + k/hz``
    and is timed from then, whether or not the sender was on time."""

    def __init__(self, targets: list[str], start: float, end: float):
        super().__init__(name="perfbench-prober")
        self._targets = [url[len("http://") :].split(":") for url in targets]
        self._start, self._end = start, end
        self.latencies: list[float] = []
        self.lags: list[float] = []
        self.failures: list[str] = []

    def run(self) -> None:
        k = 0
        while True:
            due = self._start + k / PROBE_HZ
            if due >= self._end:
                return
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            host, port = self._targets[k % len(self._targets)]
            sent = time.perf_counter()
            # A fresh connection per probe keeps at most one prober
            # connection open while it alternates between backends.
            conn = http.client.HTTPConnection(host, int(port), timeout=30)
            try:
                conn.request("GET", "/healthz")
                response = conn.getresponse()
                response.read()
                if response.status != 200:
                    raise RuntimeError(f"/healthz -> {response.status}")
                self.latencies.append(time.perf_counter() - due)
            except (OSError, http.client.HTTPException, RuntimeError) as exc:
                self.latencies.append(float("inf"))
                self.failures.append(f"{type(exc).__name__}: {exc}")
            finally:
                conn.close()
            self.lags.append(sent - due)
            k += 1


def _counters(client: Client) -> dict:
    snapshot = client.metrics()
    fleet, gateway = snapshot["fleet"], snapshot["gateway"]
    return {
        "solution_cache_hits": fleet["solution_cache"]["hits"],
        "index_builds": fleet["index_cache"]["misses"],
        "rejected": fleet["queue"]["rejected_total"],
        "forwards": gateway["forwards_total"],
        "reshards": gateway["reshards_total"],
        "reregistrations": gateway["reregistrations_total"],
    }


def _warm_problems(catalogues) -> list[Problem]:
    return [
        Problem.from_sets(cat, make_functions(1, DIMS, seed=i), method="auto")
        for i, cat in enumerate(catalogues)
    ]


def _replay(problem: Problem, solution: Solution) -> dict:
    """Time the public calls no span isolates, on this op's input."""
    out = {}
    start = time.perf_counter()
    body = json.dumps(problem.to_dict())
    out["api.encode_ms"] = time.perf_counter() - start
    out["api.payload_kb"] = len(body.encode("utf-8")) / 1024.0
    start = time.perf_counter()
    decoded = Problem.from_dict(json.loads(body))
    out["api.decode_ms"] = time.perf_counter() - start
    start = time.perf_counter()
    decoded.digest()
    out["api.digest_ms"] = time.perf_counter() - start
    start = time.perf_counter()
    decoded.plan()
    out["planner.plan_ms"] = time.perf_counter() - start
    solution_body = json.dumps(solution.to_dict())
    start = time.perf_counter()
    Solution.from_dict(json.loads(solution_body))
    out["api.solution_decode_ms"] = time.perf_counter() - start
    return {k: v * 1000.0 if k.endswith("_ms") else v for k, v in out.items()}


def run(src: Path, seed: int, seconds: float, trace: bool) -> dict:
    dataset = np.random.default_rng(DATASET_SEED)
    catalogues = [
        make_objects(N_OBJECTS, DIMS, "anti-correlated", seed=dataset)
        for _ in range(CATALOGUES)
    ]
    stream = request_stream(
        1_000_000,
        catalogues,
        catalogue_skew=1.1,
        cohort_skew=1.5,
        max_cohort=64,
        seed=np.random.default_rng(seed),
    )
    warm = _warm_problems(catalogues)

    setup: list[float] = []
    fleet = None
    ops = OpLog()
    served: list[tuple] = []  # (catalogue id, functions, pairs, method)
    ledger = Ledger()
    traced_lat: list[float] = []
    untraced_lat: list[float] = []
    replays: list[dict] = []
    round_trips: list[int] = []
    rss_mb = None
    try:
        for _ in range(SETUP_REPS):
            if fleet is not None:
                fleet.stop()
            fleet = Fleet(src)
            start = time.perf_counter()
            fleet.boot()
            # The gateway routes on the instance digest, which covers
            # the cohort, so every backend serves every catalogue: warm
            # each backend directly, or its first op on a catalogue
            # builds that catalogue's index inside the timed window.
            for backend in fleet.backends:
                with Client(backend) as client:
                    for problem in warm:
                        client.solve(problem)
            setup.append(time.perf_counter() - start)
        log(f"serve-cohorts: setup {[round(s, 3) for s in setup]} s")

        client = Client(fleet.gateway)
        try:
            before = _counters(client)
            ops.started = time.perf_counter()
            end = ops.started + seconds
            prober = Prober(fleet.backends, ops.started, end)
            prober.start()
            try:
                while time.perf_counter() < end:
                    request = next(stream)
                    problem = Problem.from_sets(
                        request.catalogue, request.functions, method="auto"
                    )
                    traced_op = trace and ops.attempted % 2 == 1
                    collector = SpanCollector()
                    start = time.perf_counter()
                    try:
                        if traced_op:
                            with collecting(collector):
                                solution = client.solve(problem)
                        else:
                            solution = client.solve(problem)
                    except Exception as exc:  # a failed op is counted, not fatal
                        ops.fail(exc)
                        continue
                    wall = time.perf_counter() - start
                    ops.record(wall)
                    ops.finished = time.perf_counter()
                    served.append(
                        (request.catalogue_id, request.functions, solution.pairs, solution.method)
                    )
                    if ops.completed == RSS_AT_OPS:
                        rss_mb = fleet.rss_mb()
                    if not trace:
                        continue
                    (traced_lat if traced_op else untraced_lat).append(wall)
                    if traced_op:
                        local = [s.to_dict() for s in collector.spans]
                        requests = [s for s in local if s["name"] == "http.request"]
                        round_trips.append(len(requests))
                        remote = []
                        for s in requests:
                            path = f"/v1/traces/{s['trace_id']}"
                            remote += client.request("GET", path)[1]["spans"]
                        ledger.add_op(wall, local, remote)
                        replays.append(_replay(problem, solution))
            finally:
                prober.join()
            if rss_mb is None:
                rss_mb = fleet.rss_mb()
            after = _counters(client)
        finally:
            client.close()
    finally:
        if fleet is not None:
            fleet.stop()

    picks = Counter(entry[3] for entry in served)
    log(f"serve-cohorts: {ops.attempted} ops, {ops.failed} failed, picks {dict(picks)}")
    mismatches = _check(catalogues, served)
    delta = {k: after[k] - before[k] for k in before}
    probe_p99 = latency_ms(prober.latencies, 99, seconds)
    record = {
        "probes": len(prober.latencies),
        "probe_failures": prober.failures[:5],
        "probe_lag_p99_ms": latency_ms(prober.lags, 99, seconds),
        "probe_lag_max_ms": max(prober.lags) * 1000.0,
        "planner_picks": dict(picks),
        "counters": delta,
        "errors": ops.errors,
        "mismatches": mismatches[:5],
    }
    result = {"ops": ops, "record": record, "mismatches": len(mismatches)}
    if not trace:
        result["metrics"] = {
            **end_to_end(setup, ops, rss_mb, seconds),
            "probe_p99_ms": probe_p99,
        }
        return result
    done = max(ops.completed, 1)
    metrics = {
        "probe_p99_ms": probe_p99,
        "probe.lag_p99_ms": record["probe_lag_p99_ms"],
        "server.solution_cache_hits": delta["solution_cache_hits"],
        "server.index_builds": delta["index_builds"],
        "server.rejected": delta["rejected"],
        "cluster.forwards_per_op": delta["forwards"] / done,
        "cluster.reshards": delta["reshards"],
        "cluster.reregistrations": delta["reregistrations"],
        "client.round_trips_per_op": statistics.median(round_trips),
        **planner_picks([entry[3] for entry in served]),
        **trace_overhead(traced_lat, untraced_lat),
    }
    for key in replays[0] if replays else ():
        metrics[key] = statistics.median(r[key] for r in replays)
    result["metrics"] = metrics
    result["ledger"] = ledger
    return result


def _check(catalogues, served) -> list[str]:
    """Re-solve every served problem in-process: the pairs, their
    score bits, their units and the resolved method must match."""
    sessions = [
        AssignmentSession(problem) for problem in _warm_problems(catalogues)
    ]
    mismatches = []
    try:
        for i, (cid, functions, pairs, method) in enumerate(served):
            problem = Problem.from_sets(catalogues[cid], functions, method="auto")
            local = sessions[cid].solve(problem)
            if local.method != method or pair_bits(local.pairs) != pair_bits(pairs):
                mismatches.append(f"op {i}: served {method} differs from in-process {local.method}")
    finally:
        for session in sessions:
            session.close()
    return mismatches
