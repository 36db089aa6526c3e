"""The vectorized mutual-best round.

One matmul per round scores every alive function against every
skyline object and answers *both* directions of Property 2 from the
same matrix: ``fbest`` (per skyline object, the canonically best
alive function — column argmax) and ``obest`` (per candidate
function, the canonically best skyline object — row argmax).  Their
intersection, emitted in ascending function-id order, is exactly what
:class:`repro.engine.rounds.MutualBestRound` produces from per-object
TA searches plus the MatrixView scan.

Exactness: numpy argmaxes are only trusted when a single row/column
sits inside the rounding-error tolerance band (scaled by the summed
term magnitudes, the PR 4 ``MatrixView`` discipline).  Bands with
more than one member are resolved with :func:`repro.scoring.score`
and the canonical tuple orders — so emitted pairs and their float
scores are bit-identical to the interpreted twin's.
"""

from __future__ import annotations

import numpy as np

from repro.engine.engine import EngineContext
from repro.engine.protocols import RoundStrategy, SkylineState, StablePair
from repro.kernels.skyline import VectorizedSkylineMaintenance
from repro.ordering import neg
from repro.scoring import score, score_tolerance


class VectorizedMutualRound(RoundStrategy):
    """fbest ∩ obest from one score matrix per round."""

    def __init__(self, ctx: EngineContext, maintenance: VectorizedSkylineMaintenance):
        self.ctx = ctx
        self.maint = maintenance
        self.col = maintenance.columnar
        # Capacities are >= 1 by construction, so every function
        # starts alive; commits flip entries off.
        self.f_alive = self.col.function_capacities > 0
        self.score_cells = 0
        self.tie_resolutions = 0

    def propose(self, skyline: SkylineState) -> list[StablePair] | None:
        col = self.col
        alive = np.nonzero(self.f_alive)[0]
        if alive.size == 0:
            return None  # no alive function left anywhere
        sky = self.maint.sky_indices()
        weights = col.weights[alive]
        points = col.points[sky]
        scores = weights @ points.T  # |alive| × |sky|
        self.score_cells += scores.size
        self.ctx.mem.set_gauge("score_matrix", scores.nbytes)

        # -- fbest: canonically best alive function per skyline object.
        col_tol = score_tolerance(col.max_abs_weight, np.abs(points).sum(axis=1))
        col_band = scores >= (scores.max(axis=0) - col_tol)[None, :]
        fbest_fid = alive[scores.argmax(axis=0)]
        fbest_exact: dict[int, float] = {}
        for j in np.nonzero(col_band.sum(axis=0) > 1)[0]:
            j = int(j)
            fid, exact = self._resolve_function(
                alive[np.nonzero(col_band[:, j])[0]], int(sky[j])
            )
            fbest_fid[j] = fid
            fbest_exact[j] = exact

        # -- obest: canonically best skyline object per candidate.
        candidate_fids = np.unique(fbest_fid)
        cand_rows = scores[np.searchsorted(alive, candidate_fids)]
        row_tol = score_tolerance(
            col.max_abs_point, np.abs(col.weights[candidate_fids]).sum(axis=1)
        )
        row_band = cand_rows >= (cand_rows.max(axis=1) - row_tol)[:, None]
        obest_oid = sky[cand_rows.argmax(axis=1)]
        for t in np.nonzero(row_band.sum(axis=1) > 1)[0]:
            t = int(t)
            obest_oid[t] = self._resolve_object(
                sky[np.nonzero(row_band[t])[0]], int(candidate_fids[t])
            )

        # -- mutually-best pairs (Property 2), ascending fid order.
        pairs: list[StablePair] = []
        for t in range(len(candidate_fids)):
            fid = int(candidate_fids[t])
            oid = int(obest_oid[t])
            j = int(np.searchsorted(sky, oid))
            if int(fbest_fid[j]) != fid:
                continue
            exact = fbest_exact.get(j)
            if exact is None:
                exact = score(
                    self.ctx.functions.effective_weights(fid),
                    self.ctx.objects.points[oid],
                )
            pairs.append(StablePair(fid, oid, exact))
        return pairs

    # -- exact canonical tie resolution -------------------------------------

    def _resolve_function(self, band_fids: np.ndarray, oid: int) -> tuple[int, float]:
        """Canonical winner of a fbest tolerance band (function_key)."""
        self.tie_resolutions += 1
        point = self.ctx.objects.points[oid]
        best_key = None
        for fid in band_fids:
            fid = int(fid)
            w = self.ctx.functions.effective_weights(fid)
            key = (-score(w, point), neg(w), fid)
            if best_key is None or key < best_key:
                best_key = key
        return best_key[2], -best_key[0]

    def _resolve_object(self, band_oids: np.ndarray, fid: int) -> int:
        """Canonical winner of an obest tolerance band (object_key)."""
        self.tie_resolutions += 1
        w = self.ctx.functions.effective_weights(fid)
        best_key = None
        for oid in band_oids:
            oid = int(oid)
            p = self.ctx.objects.points[oid]
            key = (-score(p, w), neg(p), oid)
            if best_key is None or key < best_key:
                best_key = key
        return best_key[2]

    # -- engine hooks --------------------------------------------------------

    def on_pair_committed(
        self, fid: int, oid: int, units: int, f_died: bool, o_died: bool
    ) -> None:
        if f_died:
            self.f_alive[fid] = False

    def finalize(self, stats, skyline) -> None:
        stats.counters["skyline_final_size"] = len(skyline)
        stats.counters["kernel_score_cells"] = self.score_cells
        stats.counters["kernel_tie_resolutions"] = self.tie_resolutions
