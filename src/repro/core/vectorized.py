"""Vectorized canonical argmax over a set of rows.

The BestPair step scans the (in-memory) skyline for each candidate
function — "find object f.obest ∈ Osky that maximizes f(o)" — and the
two-skyline variant scans Fsky per object.  Both are dot-product
argmaxes with canonical tie-breaking.  ``MatrixView`` computes the
scores with one numpy matmul, then resolves the winner *exactly*
(via :func:`repro.scoring.score` and the canonical tuple order) among
the rows inside a small tolerance band around the numpy maximum — the
band scales with the summed term magnitudes (max|coord|·sum|weight|)
and stays orders of magnitude wider than matmul's rounding error, so
the exact winner is always inside it and results are bit-identical to
the scalar scan.

The float64 matrix is the *canonical* representation: Python tuples
are derived from it lazily (and cached) only when a tolerance band
holds more than one row and exact tie-resolution has to compare
canonical keys.  The view is also incrementally editable —
:meth:`append` / :meth:`remove` (swap-remove into a doubling buffer)
and the diff-based :meth:`sync` — so the per-round skyline churn of
the engine's mutual-best rounds updates the matrix in place instead
of rebuilding it from scratch every round.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.ordering import neg
from repro.scoring import score, score_tolerance


class MatrixView:
    """``(id, vector)`` rows supporting canonical best-row queries.

    The canonical order used is ``(-score, neg(row), id)`` ascending —
    which equals :func:`repro.ordering.object_key` when rows are object
    points and :func:`repro.ordering.function_key` when rows are
    effective weight vectors (the two orders share one shape).

    Row order is maintenance-defined (removals swap the last row into
    the hole), which is irrelevant to ``best_for``: ties are resolved
    through the canonical key, never through row position.
    """

    def __init__(self, ids: Sequence[int], rows: Sequence[Sequence[float]]):
        if len(ids) != len(rows):
            raise ValueError("ids and rows must align")
        self.ids = list(ids)
        self._n = len(self.ids)
        self._buf = np.asarray(rows, dtype=np.float64)
        if self._n and self._buf.ndim != 2:
            raise ValueError("rows must share one dimensionality")
        self._pos = {ident: i for i, ident in enumerate(self.ids)}
        # Lazy canonical-tuple cache, aligned with the buffer rows.
        self._tuples: list[tuple[float, ...] | None] = [None] * self._n
        # Largest |coordinate| *ever seen*: the tolerance band in
        # :meth:`best_for` scales with the *term* magnitudes
        # (sum_i |w_i·x_i| ≤ max|x| · sum|w|), not with the final dot
        # product — cancellation can make |f(o)| tiny while rounding
        # error stays proportional to the huge intermediate terms.
        # Kept as a monotone upper bound across removals: a wider band
        # only adds rows to the exact-resolution pass, never changes
        # its winner.
        self._max_abs_coord = (
            float(np.abs(self._buf).max()) if self._n else 0.0
        )

    def __len__(self) -> int:
        return self._n

    @classmethod
    def from_dict(cls, mapping: Mapping[int, tuple[float, ...]]) -> "MatrixView":
        ids = sorted(mapping)
        return cls(ids, [mapping[i] for i in ids])

    @property
    def matrix(self) -> np.ndarray:
        """The canonical float64 row matrix (live rows only)."""
        return self._buf[: self._n]

    @property
    def rows(self) -> list[tuple[float, ...]]:
        """All rows as canonical tuples (diagnostics/tests only —
        ``best_for`` materializes tuples lazily per tolerance band)."""
        return [self._row_tuple(i) for i in range(self._n)]

    def _row_tuple(self, i: int) -> tuple[float, ...]:
        cached = self._tuples[i]
        if cached is None:
            cached = tuple(self._buf[i].tolist())
            self._tuples[i] = cached
        return cached

    # -- incremental maintenance -------------------------------------------

    def append(self, ident: int, row: Sequence[float]) -> None:
        """Add one row (amortized O(dims); the buffer doubles)."""
        if ident in self._pos:
            raise ValueError(f"id {ident} is already present")
        vec = np.asarray(row, dtype=np.float64)
        if self._n == 0 and self._buf.size == 0:
            self._buf = vec.reshape(1, -1).copy()
        elif self._n == len(self._buf):
            grown = np.empty(
                (max(2 * self._n, 4), self._buf.shape[1]), dtype=np.float64
            )
            grown[: self._n] = self._buf[: self._n]
            self._buf = grown
        if self._n < len(self._buf):
            self._buf[self._n] = vec
        self._pos[ident] = self._n
        self.ids.append(ident)
        self._tuples.append(None)
        self._n += 1
        mx = float(np.abs(vec).max()) if vec.size else 0.0
        if mx > self._max_abs_coord:
            self._max_abs_coord = mx

    def remove(self, ident: int) -> None:
        """Drop one row in O(dims) by swapping the last row into it."""
        i = self._pos.pop(ident)
        last = self._n - 1
        if i != last:
            self._buf[i] = self._buf[last]
            self.ids[i] = self.ids[last]
            self._tuples[i] = self._tuples[last]
            self._pos[self.ids[i]] = i
        self.ids.pop()
        self._tuples.pop()
        self._n = last

    def sync(self, mapping: Mapping[int, tuple[float, ...]]) -> None:
        """Diff the view against ``mapping`` — removals first, then
        appends — so steady-state churn costs O(changes), not O(rows)."""
        for ident in [i for i in self._pos if i not in mapping]:
            self.remove(ident)
        for ident, row in mapping.items():
            if ident not in self._pos:
                self.append(ident, row)

    # -- queries ------------------------------------------------------------

    def best_for(self, query: Sequence[float]) -> tuple[int, float]:
        """Canonically best ``(id, exact_score)`` for ``query``."""
        if not self._n:
            raise ValueError("best_for on an empty MatrixView")
        query_vector = np.asarray(query, dtype=np.float64)
        approx = self.matrix @ query_vector
        approx_max = float(approx.max())
        tolerance = score_tolerance(
            self._max_abs_coord, float(np.abs(query_vector).sum())
        )
        band = np.nonzero(approx >= approx_max - tolerance)[0]
        best_key = None
        best_i = -1
        for i in band:
            row = self._row_tuple(int(i))
            key = (-score(row, query), neg(row), self.ids[i])
            if best_key is None or key < best_key:
                best_key = key
                best_i = int(i)
        return self.ids[best_i], -best_key[0]
