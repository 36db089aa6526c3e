"""Result checks, run outside every timed region.

``blocking_pair`` answers the same question as
``repro.core.validate.find_blocking_pair`` (which ``Solution.verify``
calls) with the same canonical keys, but screens the |F|·|O| cells
with numpy first.  A cell can only block if its score is at least both
sides' worst-partner score (or a side has spare capacity); only those
cells get the exact key comparison.  The scores are summed left to
right in float64 exactly as ``repro.scoring.score`` does, so the
screen never drops a cell the exact check would flag.  At 200 × 10,000
the reference check takes seconds per solution, this one tens of
milliseconds, which is what lets every op of a run be checked.
"""

from __future__ import annotations

import numpy as np

from repro.ordering import function_key, object_key
from repro.scoring import score


def exact_scores(weights: np.ndarray, points: np.ndarray) -> np.ndarray:
    """|F| × |O| scores, summed in ``repro.scoring.score`` order."""
    total = np.zeros((weights.shape[0], points.shape[0]))
    term = np.empty_like(total)
    columns = np.ascontiguousarray(points.T)
    for d in range(weights.shape[1]):
        np.multiply(weights[:, d : d + 1], columns[d], out=term)
        total += term
    return total


def blocking_pair(pairs, functions, objects, point_matrix=None) -> str | None:
    """A description of what is wrong with ``pairs``, or ``None``.

    Checks capacities, every pair's reported score bits and stability.
    ``point_matrix`` is ``objects.points`` as a float64 array, for
    callers that check many cohorts against one catalogue.
    """
    weights = functions.all_effective_weights()
    points = objects.points
    f_partners: dict[int, list[int]] = {}
    o_partners: dict[int, list[int]] = {}
    for p in pairs:
        if score(weights[p.fid], points[p.oid]) != p.score:
            return f"pair ({p.fid}, {p.oid}) reports score {p.score!r}"
        f_partners.setdefault(p.fid, []).extend([p.oid] * p.count)
        o_partners.setdefault(p.oid, []).extend([p.fid] * p.count)
    for fid, got in f_partners.items():
        if len(got) > functions.capacity(fid):
            return f"function {fid} over capacity"
    for oid, got in o_partners.items():
        if len(got) > objects.capacity(oid):
            return f"object {oid} over capacity"

    n_f, n_o = len(functions), len(objects)
    f_worst_key: list = [None] * n_f
    o_worst_key: list = [None] * n_o
    f_floor = np.full(n_f, -np.inf)
    o_floor = np.full(n_o, -np.inf)
    for fid, got in f_partners.items():
        if len(got) == functions.capacity(fid):
            f_worst_key[fid] = max(
                object_key(score(weights[fid], points[o]), points[o], o) for o in got
            )
            f_floor[fid] = -f_worst_key[fid][0]
    for oid, got in o_partners.items():
        if len(got) == objects.capacity(oid):
            o_worst_key[oid] = max(
                function_key(score(weights[f], points[oid]), weights[f], f)
                for f in got
            )
            o_floor[oid] = -o_worst_key[oid][0]

    if point_matrix is None:
        point_matrix = np.asarray(points, dtype=np.float64)
    scores = exact_scores(np.asarray(weights, dtype=np.float64), point_matrix)
    candidates = np.argwhere(
        (scores >= f_floor[:, None]) & (scores >= o_floor[None, :])
    )
    for fid, oid in candidates.tolist():
        s = score(weights[fid], points[oid])
        f_wants = f_worst_key[fid] is None or object_key(s, points[oid], oid) < f_worst_key[fid]
        o_wants = o_worst_key[oid] is None or function_key(s, weights[fid], fid) < o_worst_key[oid]
        if f_wants and o_wants:
            return f"blocking pair ({fid}, {oid})"
    return None


def pair_bits(pairs, f_map=None, o_map=None) -> list[tuple]:
    """Order-free comparison form: (fid, oid, score hex, units)."""
    return sorted(
        (
            f_map[p.fid] if f_map else p.fid,
            o_map[p.oid] if o_map else p.oid,
            float(p.score).hex(),
            p.count,
        )
        for p in pairs
    )
