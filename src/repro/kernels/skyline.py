"""Columnar skyline-membership maintenance.

The engine's maintenance seam (``compute_initial`` / ``remove``) over
flat arrays: membership is a boolean mask over the object matrix and
the initial skyline is one batch Pareto pass.

Removals are repaired with *reference dominators*: every alive
non-skyline object carries the index of one skyline member currently
dominating it (``ref``).  When members are removed, only the objects
whose reference died can possibly surface — everything referencing a
survivor is still dominated — so a round repairs the mask by

1. collecting the orphans (``ref`` ∈ removed);
2. re-homing the orphans a *surviving* member still dominates
   (one small ``orphans × survivors`` dominance pass);
3. Pareto-filtering the remainder: the winners are promoted into the
   skyline, the losers are re-homed onto the promoted member that
   dominates them.

The produced skyline *set* is exactly the one UpdateSkyline and
DeltaSky maintain — the skyline of the alive objects is unique — so
the vectorized configs stay pair-identical to their interpreted twins
regardless of maintenance algorithm.  I/O is 0 by construction: no
page is ever read.

:class:`MaskSkyline` is the context-free core (used both by the
static solve twin below and by the incremental churn kernel in
:mod:`repro.kernels.dynamic`); :class:`VectorizedSkylineMaintenance`
adapts it to the engine's maintenance seam (``SkylineState`` dicts,
memory gauges, member validation).
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.engine.engine import EngineContext
from repro.engine.protocols import SkylineState
from repro.kernels.columnar import ColumnarInstance
from repro.kernels.pareto import dense_ranks, rank_dominator_index, rank_pareto


class MaskSkyline:
    """Mask-based skyline with reference-dominator incremental repair.

    Pure array state over one ``n × D`` coordinate matrix: no engine
    context, no id remapping — callers work in local row indices.
    The matrix is rank-encoded once (:func:`~repro.kernels.pareto.dense_ranks`)
    and every dominance test runs on row subsets of those ranks.
    """

    def __init__(self, points: np.ndarray) -> None:
        self.points = points
        n = points.shape[0]
        self.alive = np.ones(n, dtype=bool)
        self.sky_mask = np.zeros(n, dtype=bool)
        #: Index of one skyline member dominating each alive
        #: non-skyline row; ``-1`` for members and dead rows.
        self.ref = np.full(n, -1, dtype=np.intp)
        #: Per-column dense ranks of ``points``, set by
        #: :meth:`compute_initial`.
        self.ranks = np.zeros((0, points.shape[1]), dtype=np.intp)
        self.computed = False

    def sky_indices(self) -> np.ndarray:
        """Current skyline member rows, ascending."""
        return np.nonzero(self.sky_mask)[0]

    def nbytes(self) -> int:
        return int(self.alive.nbytes + self.sky_mask.nbytes + self.ref.nbytes)

    def compute_initial(self) -> np.ndarray:
        """One batch Pareto pass; returns the member rows."""
        if self.computed:
            raise RuntimeError("initial skyline already computed")
        self.computed = True
        self.ranks = dense_ranks(self.points)
        self.sky_mask, self.ref = rank_pareto(self.ranks)
        return self.sky_indices()

    def remove(self, removed_idx: np.ndarray) -> np.ndarray:
        """Retire member rows; returns the rows promoted to replace
        them (the reference-dominator repair of the module docstring).
        """
        if not self.computed:
            raise RuntimeError("call compute_initial() first")
        self.alive[removed_idx] = False
        self.sky_mask[removed_idx] = False

        ranks = self.ranks
        # (1) orphans: alive rows whose reference dominator died.  The
        #     extra last slot stays False, so ``ref == -1`` (members and
        #     dead rows) cannot alias the last row.
        died = np.zeros(self.ref.size + 1, dtype=bool)
        died[removed_idx] = True
        orphan_idx = np.nonzero(self.alive & died[self.ref])[0]
        if not orphan_idx.size:
            return orphan_idx
        # (2) re-home orphans a surviving member still dominates.
        survivors = self.sky_indices()
        if survivors.size:
            witness = rank_dominator_index(ranks[orphan_idx], ranks[survivors])
            found = witness >= 0
            self.ref[orphan_idx[found]] = survivors[witness[found]]
            orphan_idx = orphan_idx[~found]
        if not orphan_idx.size:
            return orphan_idx
        # (3) orphan-vs-orphan Pareto pass; losers re-home onto the
        #     promoted member that dominates them.
        promoted_local, witness = rank_pareto(ranks[orphan_idx])
        losers = ~promoted_local
        promoted = orphan_idx[promoted_local]
        self.sky_mask[promoted] = True
        self.ref[promoted] = -1
        self.ref[orphan_idx[losers]] = orphan_idx[witness[losers]]
        return promoted


class VectorizedSkylineMaintenance:
    """The engine-facing adapter over :class:`MaskSkyline`."""

    def __init__(self, ctx: EngineContext, columnar: ColumnarInstance) -> None:
        self.columnar = columnar
        self._objects = ctx.objects
        self._mem = ctx.mem
        self._core = MaskSkyline(columnar.points)
        self._skyline: SkylineState = {}
        self._mem.set_gauge(
            "columnar_arrays", columnar.nbytes() + self._core.nbytes()
        )

    @property
    def skyline(self) -> SkylineState:
        return self._skyline

    def sky_indices(self) -> np.ndarray:
        """Current skyline member ids, ascending."""
        return self._core.sky_indices()

    def compute_initial(self) -> SkylineState:
        sky_idx = self._core.compute_initial()
        self._skyline = {int(i): self._objects.points[int(i)] for i in sky_idx}
        return self._skyline

    def remove(self, oids: Iterable[int]) -> SkylineState:
        removed = list(oids)
        if not self._core.computed:
            raise RuntimeError("call compute_initial() first")
        for oid in removed:
            if not self._core.sky_mask[oid]:
                raise KeyError(f"object {oid} is not a current skyline member")
        for oid in removed:
            del self._skyline[oid]
        promoted = self._core.remove(np.asarray(removed, dtype=np.intp))
        for i in promoted:
            self._skyline[int(i)] = self._objects.points[int(i)]
        return self._skyline
