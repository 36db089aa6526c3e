"""The one true scoring function.

Every algorithm in this repository computes ``f(o)`` through
:func:`score` so that floating-point results are bit-identical across
the seven solver implementations — the cross-validation tests compare
matchings exactly, which requires a single summation order.

``score`` implements the paper's Equation 1 (and Equation 2 when the
weights passed in are the γ-scaled *effective* weights of
:meth:`repro.data.instances.FunctionSet.effective_weights`).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


#: Safety margin for comparing a score against an *upper bound that was
#: computed with a different summation order* (the fractional-knapsack
#: threshold ranks dimensions by the object's values, so its rounding
#: differs from :func:`score`'s left-to-right order by a few ULPs).
#: Terminating a search only when the incumbent exceeds the bound by
#: more than this margin is conservative: it can only cause extra
#: scanning, never a wrong result.  Comparisons between two values both
#: produced by :func:`score` (or by the same left-to-right dot product)
#: are monotone in floating point and need no margin.
SCORE_EPS = 1e-9


def score_tolerance(max_abs: float, abs_sums: float | np.ndarray) -> float | np.ndarray:
    """The band below a matmul maximum that may still hold the exact
    winner: ``SCORE_EPS * maximum(1.0, max_abs * abs_sums)``.

    Matmul rounding error is relative to the summed *term* magnitudes
    (~dims ulps of ``sum|w_i·x_i|``), which cancellation can leave
    orders of magnitude above the final score — a band scaled by the
    score itself (or a fixed one) silently drops the exact winner on
    high-magnitude mixed-sign rows.  The terms are bounded by
    ``max|coord| · sum|w|`` (``max_abs`` on one side, ``abs_sums`` the
    other side's L1 norms, a scalar or one per row); the floor of 1.0
    keeps the absolute margin for small instances.  Candidates inside
    the band are re-scored exactly with :func:`score`; every vectorized
    tie band uses this one rule.
    """
    return SCORE_EPS * np.maximum(1.0, max_abs * abs_sums)


def score(weights: Sequence[float], point: Sequence[float]) -> float:
    """``sum_i weights[i] * point[i]`` in left-to-right order."""
    total = 0.0
    for w, x in zip(weights, point):
        total += w * x
    return total
