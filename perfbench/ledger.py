"""The layer ledger: where one op's wall time went, from its spans.

Input is the flat list of span dicts (``Span.to_dict()`` shape) that
one op produced: the spans the benchmark process collected itself plus,
on the served workload, the stitched gateway/backend trees fetched from
``GET /v1/traces/{id}``.  A span's *self* time is its duration minus
the durations of its direct children.  Every span's self time is
charged to a named layer; the sum over layers divided by the op's wall
time (measured by the benchmark) is the op's coverage, and the rest is
the unexplained gap: time the op spent outside every span.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

#: Span name → ledger layer.  ``http.request`` is the client layer when
#: the benchmark recorded it and the gateway's forward hop otherwise.
_LAYER_OF = {
    "gateway.request": "cluster.gateway_self_ms",
    "gateway.reregister": "cluster.reregister_self_ms",
    "server.request": "server.request_self_ms",
    "problem.register": "server.register_self_ms",
    "solve.execute": "server.solve_execute_self_ms",
    "cache.lookup": "server.cache_lookup_ms",
    "solve.coalesce": "server.coalesce_self_ms",
    "session.solve": "session.solve_self_ms",
    "session.apply": "session.apply_self_ms",
    "plan.resolve": "planner.resolve_ms",
    "index.lookup": "service.index_lookup_ms",
    "engine.solve": "engine.solve_self_ms",
    "api.from_sets": "api.from_sets_ms",
}


def layer_of(span: dict, local: bool) -> str:
    name = span["name"]
    if name == "http.request":
        return "client.request_self_ms" if local else "cluster.forward_ms"
    if name in _LAYER_OF:
        return _LAYER_OF[name]
    if name.startswith("engine."):
        return f"{name}_ms"
    return f"other.{name}_ms"


def self_times(spans: list[dict]) -> dict[str, float]:
    """span_id → self seconds (never below zero: children recorded by
    another process's clock may overrun their parent by a hair)."""
    child_total: dict[str, float] = defaultdict(float)
    for s in spans:
        parent = s.get("parent_id")
        if parent is not None:
            child_total[parent] += s.get("duration_seconds") or 0.0
    return {
        s["span_id"]: max(0.0, (s.get("duration_seconds") or 0.0) - child_total[s["span_id"]])
        for s in spans
    }


class Ledger:
    """Accumulates per-op layer self times and span durations."""

    def __init__(self) -> None:
        self.ops = 0
        self.walls: list[float] = []
        #: layer → per-op self seconds (one entry per op, 0 if absent)
        self.layers: dict[str, list[float]] = defaultdict(list)
        #: span name → per-op summed duration (only ops that had it)
        self.durations: dict[str, list[float]] = defaultdict(list)

    def add_op(self, wall: float, local: list[dict], remote: list[dict]) -> None:
        spans = local + remote
        own = self_times(spans)
        per_layer: dict[str, float] = defaultdict(float)
        per_name: dict[str, float] = defaultdict(float)
        local_ids = {s["span_id"] for s in local}
        for s in spans:
            per_layer[layer_of(s, s["span_id"] in local_ids)] += own[s["span_id"]]
            per_name[s["name"]] += s.get("duration_seconds") or 0.0
        for layer in set(self.layers) | set(per_layer):
            self.layers[layer].extend([0.0] * (self.ops - len(self.layers[layer])))
            self.layers[layer].append(per_layer.get(layer, 0.0))
        for name, seconds in per_name.items():
            self.durations[name].append(seconds)
        self.walls.append(wall)
        self.ops += 1

    def duration_ms(self, name: str) -> float | None:
        """Median per-op summed duration of spans called ``name``."""
        values = self.durations.get(name)
        return statistics.median(values) * 1000.0 if values else None

    def layer_ms(self, layer: str) -> float | None:
        values = self.layers.get(layer)
        return statistics.median(values) * 1000.0 if values else None

    def coverage(self) -> tuple[float, list[float]]:
        """(median per-op coverage %, per-op unexplained gap seconds)."""
        shares, gaps = [], []
        for i, wall in enumerate(self.walls):
            explained = sum(v[i] for v in self.layers.values() if i < len(v))
            shares.append(100.0 * explained / wall)
            gaps.append(wall - explained)
        return statistics.median(shares), gaps

    def table(self) -> list[dict]:
        """Per-layer rows, largest median self time first."""
        wall = statistics.median(self.walls)
        rows = [
            {
                "layer": layer,
                "self_p50_ms": statistics.median(values) * 1000.0,
                "share_of_p50_wall_pct": 100.0 * statistics.median(values) / wall,
            }
            for layer, values in self.layers.items()
        ]
        return sorted(rows, key=lambda r: -r["self_p50_ms"])
