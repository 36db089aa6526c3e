"""Shared measurement plumbing: percentiles, memory, host facts.

``run.py`` puts the checkout's ``src/`` first on ``sys.path`` before
anything here imports ``repro``.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

#: Set-up is repeated this many times per run and the median reported,
#: so one slow set-up does not decide ``setup_s``.
SETUP_REPS = 5

#: Seed of the catalogues and seed populations.  They are a fixed data
#: set; ``--seed`` draws the traffic (cohorts, churn events) over it.
#: Skyline sizes differ by ~10% between random catalogues, which would
#: otherwise show up as run-to-run spread on every timing.
DATASET_SEED = 2009

#: ``peak_rss_mb`` is read once this many ops have completed.  The
#: servers keep every registered problem (their registries are bounded
#: at thousands), so a high-water mark read at the end of the window
#: would grow with throughput; a fixed op count keeps a faster program
#: from reading as a fatter one.
RSS_AT_OPS = 50


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of one process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line for process {pid}")


def host_reference_ms() -> float:
    """Median of three timings of a fixed pure-Python + numpy loop.

    Recorded before and after each run so a reader can tell a slow
    machine from slow code.  It never rescales a metric.
    """
    import numpy as np

    samples = []
    for _ in range(4):
        start = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        # Sorting stays on one thread; a BLAS matmul would time the
        # other core's load as well.
        values = np.random.default_rng(0).random(200_000)
        for _ in range(5):
            np.sort(values)
        samples.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(samples[1:])  # the first call warms up


def source_digest(src: Path) -> str:
    """sha256 over every ``*.py`` under ``src`` (path + bytes), so a
    record names the code it measured even outside a git checkout."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha(root: Path) -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def host_facts(root: Path) -> dict:
    import numpy as np

    return {
        "cpu_count": os.cpu_count(),
        "git_sha": git_sha(root),
        "src_sha256": source_digest(root / "src"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


@dataclass
class OpLog:
    """Per-op outcomes of one timed window.

    ``latencies`` holds seconds for completed ops and ``inf`` for a
    failed one: a failed or refused op misses every latency limit.
    """

    latencies: list[float] = field(default_factory=list)
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    started: float = 0.0
    finished: float = 0.0
    #: Window time spent between ops on re-seeding, not on the ops.
    paused: float = 0.0

    def record(self, seconds: float) -> None:
        self.latencies.append(seconds)

    def fail(self, exc: BaseException) -> None:
        self.latencies.append(math.inf)
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{type(exc).__name__}: {exc}")

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed


def latency_ms(values: list[float], q: float, cap_seconds: float) -> float:
    """A latency percentile in ms; an infinite (failed) one reads as
    ``cap_seconds``, the window length, so the result stays JSON."""
    value = statistics.median(values) if q == 50 else percentile(values, q)
    return (cap_seconds if math.isinf(value) else value) * 1000.0


def end_to_end(setup: list[float], ops: OpLog, rss_mb: float, seconds: float) -> dict:
    """The end-to-end metrics every workload reports."""
    wall = max(ops.finished - ops.started - ops.paused, 1e-9)
    return {
        "setup_s": statistics.median(setup),
        "op_p50_ms": latency_ms(ops.latencies, 50, seconds),
        "ops_per_s": ops.completed / wall,
        "peak_rss_mb": rss_mb,
    }


def trace_overhead(traced: list[float], untraced: list[float]) -> dict:
    """Traced vs untraced op p50 from interleaved ops of one run, both
    samples kept, as ``obs.*`` metrics."""
    traced_p50 = statistics.median(traced) * 1000.0
    untraced_p50 = statistics.median(untraced) * 1000.0
    return {
        "obs.traced_op_p50_ms": traced_p50,
        "obs.untraced_op_p50_ms": untraced_p50,
        "obs.trace_overhead_pct": (traced_p50 / untraced_p50 - 1.0) * 100.0,
    }


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def planner_picks(methods: list[str]) -> dict[str, int]:
    """``planner.picks.<config>`` counts, zero for every plannable
    config the planner never picked."""
    from repro.planner.registry import REGISTRY

    picks = {f"planner.picks.{spec.name}": 0 for spec in REGISTRY.plannable()}
    for method in methods:
        key = f"planner.picks.{method}"
        picks[key] = picks.get(key, 0) + 1
    return picks
