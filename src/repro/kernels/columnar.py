"""The columnar instance representation the kernels operate on.

Built once per solve: the object coordinate matrix (the frozen
catalogue's memoized :meth:`~repro.data.instances.ObjectSet.point_matrix`,
so a catalogue is converted once, not per solve), the (γ-scaled)
function weight matrix, the two capacity vectors, and the absolute
coordinate maxima that scale every exact-winner tolerance band (the
PR 4 ``MatrixView`` discipline: rounding error of a dot product is
proportional to the summed *term* magnitudes, max|coord|·sum|weight|,
not to the final — possibly cancelled — score).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.data.instances import FunctionSet, ObjectSet


def _capacity_vector(capacities: Sequence[int] | None, n: int) -> np.ndarray:
    if capacities is None:
        return np.ones(n, dtype=np.int64)
    return np.asarray(capacities, dtype=np.int64)


class ColumnarInstance:
    """Flat float64/int64 views of one ``(functions, objects)`` pair."""

    def __init__(self, functions: FunctionSet, objects: ObjectSet):
        #: |O| × D object coordinates (row i == ``objects.points[i]``),
        #: read-only and shared when the catalogue is frozen.
        self.points = objects.point_matrix()
        #: |F| × D *effective* (γ-scaled) weights (Section 6.2).
        self.weights = np.asarray(functions.all_effective_weights(), dtype=np.float64)
        #: Remaining-capacity seeds (Section 6.1); the engine's
        #: CapacityTracker owns the per-pair decrements, these vectors
        #: seed the kernels' alive masks and size estimates.
        self.object_capacities = _capacity_vector(objects.capacities, len(objects))
        self.function_capacities = _capacity_vector(
            functions.capacities, len(functions)
        )
        self.max_abs_point = (
            float(np.abs(self.points).max()) if self.points.size else 0.0
        )
        self.max_abs_weight = (
            float(np.abs(self.weights).max()) if self.weights.size else 0.0
        )

    @property
    def num_objects(self) -> int:
        return self.points.shape[0]

    @property
    def num_functions(self) -> int:
        return self.weights.shape[0]

    def nbytes(self) -> int:
        """Resident size of the columnar arrays (memory gauge)."""
        return int(
            self.points.nbytes
            + self.weights.nbytes
            + self.object_capacities.nbytes
            + self.function_capacities.nbytes
        )
