"""Columnar incremental churn kernel — the vectorized twin of
:class:`repro.core.dynamic.DynamicStableMatching`'s rematch loop.

The interpreted dynamic maintainer re-runs a greedy pass over the
*suffix* participants of each event (sorted Python tuples, one
``score()`` per candidate pair).  This module re-expresses that suffix
rematch with the static kernels' machinery:

- a **mutable columnar instance** (:class:`MutableColumns` per side):
  preallocated float64 coordinate/weight matrices with amortized
  doubling growth and slot recycling, int64 residual-capacity vectors
  and alive masks, handles mapped to rows so arrays stay dense under
  arbitrary arrival/departure interleavings;
- the **mutual-best matmul round** of
  :class:`~repro.kernels.rounds.VectorizedMutualRound`: one
  ``free-functions × skyline`` score matrix per round answers both
  directions of the mutual-best test, with exact canonical
  tie-resolution inside summed-term-magnitude tolerance bands;
- the **reference-dominator skyline repair** of
  :class:`~repro.kernels.skyline.MaskSkyline`: exhausted objects leave
  the round skyline in O(orphans), not O(pool).

**Bit-identity discipline.**  The interpreted
``DynamicStableMatching`` stays the oracle: after every event the
emitted suffix — pair handles, float scores, units, and the canonical
pair-key order — is byte-equal to the interpreted rematch (and hence
to a from-scratch static re-solve).  Exactness comes from the PR 6
band rule: numpy argmaxes are trusted only when a single candidate
sits inside the rounding-error band; ambiguous bands (and every
emitted score) are resolved with scalar :func:`repro.scoring.score`
over the original Python tuples and the canonical orders of
:mod:`repro.ordering`.  Tolerance bands scale with *monotone running
maxima* of the absolute coordinates/weights ever admitted — an upper
bound of the live population's maxima, so departures can only widen
bands (more exact resolutions, never a wrong winner).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence

import numpy as np

from repro.kernels.skyline import MaskSkyline
from repro.ordering import PairKey, neg, pair_key
from repro.scoring import score, score_tolerance

#: Initial row allocation of a side's columnar arrays.
INITIAL_ROWS = 8


class MutableColumns:
    """One side's mutable columnar store: handle → recycled array row.

    Rows of departed handles go on a free stack and are reused by the
    next arrival; when no free row exists the arrays double (amortized
    O(1) per arrival, resident size O(peak live population)).
    """

    def __init__(self) -> None:
        self.dims: int | None = None
        self.data = np.zeros((0, 0), dtype=np.float64)
        self.caps = np.zeros(0, dtype=np.int64)
        self.alive = np.zeros(0, dtype=bool)
        #: row → handle for alive rows (-1 for free rows).
        self.handle_at = np.full(0, -1, dtype=np.int64)
        self.row_of: dict[int, int] = {}
        self._free: list[int] = []
        #: Monotone running max of |value| over every row ever added —
        #: the conservative scale of the exactness tolerance bands.
        self.max_abs = 0.0

    def __len__(self) -> int:
        return len(self.row_of)

    def _grow(self) -> None:
        old_rows = self.data.shape[0]
        new_rows = max(INITIAL_ROWS, 2 * old_rows)
        dims = self.dims if self.dims is not None else 0
        data = np.zeros((new_rows, dims), dtype=np.float64)
        data[:old_rows] = self.data
        self.data = data
        for name, fill in (("caps", 0), ("handle_at", -1)):
            old = getattr(self, name)
            arr = np.full(new_rows, fill, dtype=np.int64)
            arr[:old_rows] = old
            setattr(self, name, arr)
        alive = np.zeros(new_rows, dtype=bool)
        alive[:old_rows] = self.alive
        self.alive = alive
        self._free.extend(range(new_rows - 1, old_rows - 1, -1))

    def add(self, handle: int, values: Sequence[float], capacity: int) -> int:
        """Admit a handle; returns the row it occupies."""
        if handle in self.row_of:
            raise ValueError(f"handle {handle} already present")
        vals = np.asarray(values, dtype=np.float64)
        if self.dims is None:
            self.dims = int(vals.shape[0])
            self.data = np.zeros((self.data.shape[0], self.dims), dtype=np.float64)
        elif vals.shape[0] != self.dims:
            raise ValueError(
                f"expected {self.dims}-dimensional values, got {vals.shape[0]}"
            )
        if not self._free:
            self._grow()
        row = self._free.pop()
        self.data[row] = vals
        self.caps[row] = capacity
        self.alive[row] = True
        self.handle_at[row] = handle
        self.row_of[handle] = row
        if vals.size:
            self.max_abs = max(self.max_abs, float(np.abs(vals).max()))
        return row

    def remove(self, handle: int) -> None:
        row = self.row_of.pop(handle)
        self.alive[row] = False
        self.handle_at[row] = -1
        self._free.append(row)

    def live_rows(self) -> np.ndarray:
        """Rows of alive handles, ascending."""
        return np.nonzero(self.alive)[0]

    def rows_for(self, handles: Sequence[int]) -> np.ndarray:
        return np.asarray([self.row_of[h] for h in handles], dtype=np.intp)

    def nbytes(self) -> int:
        return int(
            self.data.nbytes
            + self.caps.nbytes
            + self.alive.nbytes
            + self.handle_at.nbytes
        )


class VectorizedChurnState:
    """The ``backend="vec"`` engine behind ``DynamicStableMatching``.

    Owns the two mutable columnar sides and runs the vectorized suffix
    rematch; the hosting ``DynamicStableMatching`` keeps the emitted
    pair log, position indexes and cut computation (shared with the
    interpreted backend), so the two backends differ *only* in how a
    suffix is re-matched and in how the event's best-key probe is
    evaluated.
    """

    def __init__(self) -> None:
        self.functions = MutableColumns()
        self.objects = MutableColumns()
        #: Cumulative score-matrix cells materialized by rematches and
        #: best-key probes (the churn analogue of the static kernels'
        #: ``kernel_score_cells`` counter).
        self.score_cells = 0
        #: Cumulative ambiguous tolerance bands resolved exactly.
        self.tie_resolutions = 0

    # -- event best-key probes -----------------------------------------

    def best_key_for_object(
        self, oid: int, exact_weights: Mapping[int, tuple[float, ...]]
    ) -> PairKey | None:
        """The best conceivable pair key of one object, over every live
        function — the arrival cut probe, one matvec instead of a
        Python loop."""
        rows = self.functions.live_rows()
        if rows.size == 0:
            return None
        point = self.objects.data[self.objects.row_of[oid]]
        scores = self.functions.data[rows] @ point
        self.score_cells += int(scores.size)
        tol = score_tolerance(self.functions.max_abs, float(np.abs(point).sum()))
        band = np.nonzero(scores >= scores.max() - tol)[0]
        if band.size > 1:
            self.tie_resolutions += 1
        exact_point = tuple(float(x) for x in point)
        best: PairKey | None = None
        for r in band:
            fid = int(self.functions.handle_at[rows[int(r)]])
            w = exact_weights[fid]
            key = pair_key(score(w, exact_point), w, fid, exact_point, oid)
            if best is None or key < best:
                best = key
        return best

    def best_key_for_function(
        self, fid: int, exact_points: Mapping[int, tuple[float, ...]]
    ) -> PairKey | None:
        """The best conceivable pair key of one function over every
        live object (the symmetric arrival probe)."""
        rows = self.objects.live_rows()
        if rows.size == 0:
            return None
        weights = self.functions.data[self.functions.row_of[fid]]
        scores = self.objects.data[rows] @ weights
        self.score_cells += int(scores.size)
        tol = score_tolerance(self.objects.max_abs, float(np.abs(weights).sum()))
        band = np.nonzero(scores >= scores.max() - tol)[0]
        if band.size > 1:
            self.tie_resolutions += 1
        exact_w = tuple(float(x) for x in weights)
        best: PairKey | None = None
        for r in band:
            oid = int(self.objects.handle_at[rows[int(r)]])
            p = exact_points[oid]
            key = pair_key(score(exact_w, p), exact_w, fid, p, oid)
            if best is None or key < best:
                best = key
        return best

    # -- the vectorized suffix rematch ---------------------------------

    def rematch(
        self,
        free_functions: Sequence[tuple[int, int]],
        free_objects: Sequence[tuple[int, int]],
        exact_weights: Mapping[int, tuple[float, ...]],
        exact_points: Mapping[int, tuple[float, ...]],
    ) -> list[tuple[PairKey, int, int, float, int]]:
        """Greedily re-match the suffix participants, vectorized.

        ``free_functions`` / ``free_objects`` are ``(handle, residual
        capacity)`` pairs with positive residuals.  Returns emitted
        ``(pair_key, fid, oid, score, units)`` tuples in ascending
        canonical pair order — byte-equal to the interpreted greedy
        over the same participants.
        """
        if not free_functions or not free_objects:
            return []
        fids = [h for h, _ in free_functions]
        oids = [h for h, _ in free_objects]
        fcap = np.asarray([c for _, c in free_functions], dtype=np.int64)
        ocap = np.asarray([c for _, c in free_objects], dtype=np.int64)
        weights = self.functions.data[self.functions.rows_for(fids)]
        points = self.objects.data[self.objects.rows_for(oids)]
        f_alive = fcap > 0
        sky = MaskSkyline(points)
        sky.compute_initial()
        max_abs_w = self.functions.max_abs
        max_abs_p = self.objects.max_abs

        emitted: list[tuple[int, int, float, int]] = []
        while True:
            alive_rows = np.nonzero(f_alive)[0]
            if alive_rows.size == 0:
                break
            sky_loc = sky.sky_indices()
            if sky_loc.size == 0:
                break
            sky_points = points[sky_loc]
            scores = weights[alive_rows] @ sky_points.T
            self.score_cells += int(scores.size)

            # -- fbest: canonically best free function per sky object.
            col_tol = score_tolerance(max_abs_w, np.abs(sky_points).sum(axis=1))
            col_band = scores >= (scores.max(axis=0) - col_tol)[None, :]
            fbest = alive_rows[scores.argmax(axis=0)]
            fbest_exact: dict[int, float] = {}
            for j in np.nonzero(col_band.sum(axis=0) > 1)[0]:
                j = int(j)
                cand = alive_rows[np.nonzero(col_band[:, j])[0]]
                floc, exact = self._resolve_function(
                    cand, fids, exact_weights, exact_points[oids[int(sky_loc[j])]]
                )
                fbest[j] = floc
                fbest_exact[j] = exact

            # -- obest: canonically best sky object per candidate.
            cand_rows = np.unique(fbest)
            cand_scores = scores[np.searchsorted(alive_rows, cand_rows)]
            row_tol = score_tolerance(max_abs_p, np.abs(weights[cand_rows]).sum(axis=1))
            row_band = cand_scores >= (cand_scores.max(axis=1) - row_tol)[:, None]
            obest = sky_loc[cand_scores.argmax(axis=1)]
            for t in np.nonzero(row_band.sum(axis=1) > 1)[0]:
                t = int(t)
                obest[t] = self._resolve_object(
                    sky_loc[np.nonzero(row_band[t])[0]],
                    oids,
                    exact_points,
                    exact_weights[fids[int(cand_rows[t])]],
                )

            # -- commit mutually-best pairs (vertex-disjoint within a
            #    round, so commit order cannot change the outcome).
            committed = False
            dead_objects: list[int] = []
            for t in range(len(cand_rows)):
                floc = int(cand_rows[t])
                oloc = int(obest[t])
                j = int(np.searchsorted(sky_loc, oloc))
                if int(fbest[j]) != floc:
                    continue
                fid = fids[floc]
                oid = oids[oloc]
                exact = fbest_exact.get(j)
                if exact is None:
                    exact = score(exact_weights[fid], exact_points[oid])
                units = int(min(fcap[floc], ocap[oloc]))
                fcap[floc] -= units
                ocap[oloc] -= units
                emitted.append((fid, oid, exact, units))
                committed = True
                if fcap[floc] == 0:
                    f_alive[floc] = False
                if ocap[oloc] == 0:
                    dead_objects.append(oloc)
            if dead_objects:
                sky.remove(np.asarray(dead_objects, dtype=np.intp))
            if not committed:
                # Unreachable: with both sides non-empty the globally
                # best pair is always mutual.  Guard the loop anyway.
                raise RuntimeError("vectorized rematch round made no progress")

        out = [
            (pair_key(s, exact_weights[fid], fid, exact_points[oid], oid),
             fid, oid, s, units)
            for fid, oid, s, units in emitted
        ]
        out.sort(key=lambda item: item[0])
        return out

    # -- exact canonical tie resolution --------------------------------

    def _resolve_function(
        self,
        cand_rows: np.ndarray,
        fids: list[int],
        exact_weights: Mapping[int, tuple[float, ...]],
        point: tuple[float, ...],
    ) -> tuple[int, float]:
        """Canonical winner of an fbest band (function_key order);
        returns the local row and its exact score."""
        self.tie_resolutions += 1
        best_key = None
        best_row = -1
        for r in cand_rows:
            r = int(r)
            w = exact_weights[fids[r]]
            key = (-score(w, point), neg(w), fids[r])
            if best_key is None or key < best_key:
                best_key = key
                best_row = r
        assert best_key is not None
        return best_row, -best_key[0]

    def _resolve_object(
        self,
        cand_locs: np.ndarray,
        oids: list[int],
        exact_points: Mapping[int, tuple[float, ...]],
        weights: tuple[float, ...],
    ) -> int:
        """Canonical winner of an obest band (object_key order)."""
        self.tie_resolutions += 1
        best_key = None
        best_loc = -1
        for loc in cand_locs:
            loc = int(loc)
            p = exact_points[oids[loc]]
            key = (-score(weights, p), neg(p), oids[loc])
            if best_key is None or key < best_key:
                best_key = key
                best_loc = loc
        return best_loc

    def nbytes(self) -> int:
        """Resident size of the mutable columnar arrays."""
        return self.functions.nbytes() + self.objects.nbytes()


__all__ = ["INITIAL_ROWS", "MutableColumns", "VectorizedChurnState"]
