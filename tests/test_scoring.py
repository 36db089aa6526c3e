"""The scoring contract: one summation order, monotone comparisons."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scoring import SCORE_EPS, score, score_tolerance


def test_empty():
    assert score((), ()) == 0.0


def test_left_to_right_order():
    # The value must equal the naive running sum, term by term.
    w = (0.1, 0.2, 0.7)
    p = (0.3, 0.9, 0.5)
    expected = 0.0
    for a, b in zip(w, p):
        expected += a * b
    assert score(w, p) == expected


def test_commutes_with_swapped_arguments():
    # IEEE multiplication commutes per term, so score(w, p) and
    # score(p, w) are bit-identical — MatrixView relies on this.
    w = (0.123456, 0.376544, 0.5)
    p = (0.71, 0.29, 0.456)
    assert score(w, p) == score(p, w)


vec = st.lists(
    st.floats(0, 1, allow_nan=False, width=32), min_size=1, max_size=6
)


@given(vec, st.data())
@settings(max_examples=80, deadline=None)
def test_float_monotone_under_componentwise_dominance(w, data):
    """If p <= q componentwise then score(w, p) <= score(w, q) holds
    *exactly* in floating point (left-to-right summation is monotone).
    This is why BRS/BBS node-vs-point comparisons need no epsilon."""
    q = [data.draw(st.floats(x, 1, allow_nan=False)) for x in
         [min(v, 1.0) for v in w]]
    # Build p <= q.
    p = [data.draw(st.floats(0, x, allow_nan=False)) for x in q]
    weights = data.draw(
        st.lists(st.floats(0, 1, allow_nan=False),
                 min_size=len(q), max_size=len(q))
    )
    assert score(weights, p) <= score(weights, q)


def test_eps_is_tiny_but_not_zero():
    # Sanity on the guard constant's order of magnitude: far above
    # ULP noise at score scale (~1e-16), far below any meaningful
    # score difference the generators produce.
    assert 0 < SCORE_EPS <= 1e-6
    assert SCORE_EPS >= 1e-12


def test_score_tolerance_is_one_rule_for_scalars_and_rows():
    """The tie band: SCORE_EPS, scaled up by the term bound
    ``max_abs * abs_sum`` once that exceeds 1."""
    sums = np.array([0.0, 0.25, 3.0e6])
    expected = [SCORE_EPS * max(1.0, 2.0 * float(x)) for x in sums]
    assert score_tolerance(2.0, sums).tolist() == expected
    assert score_tolerance(2.0, 3.0e6) == expected[2]
