"""The process-wide catalogue intern table of :mod:`repro.api.problem`.

Every :class:`Problem` over one catalogue shares one validated record:
the read-only float64 matrix, the point tuples, the frozen
``ObjectSet`` and the canonical ``"objects"`` text.  Interning must be
invisible in every value: the bytes, the digests and the fingerprint
are those of the per-element path and of the plain canonical encoder.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import Problem
from repro.api import problem as problem_module
from repro.api.problem import CATALOGUE_SLOTS, _point_tuple
from repro.api.serde import to_canonical_json
from repro.data.instances import ObjectSet
from repro.server import Client, ServerConfig, serve_in_thread
from repro.service import object_set_fingerprint

_SPECIAL = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1.0])
_COORDINATE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    _SPECIAL,
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.integers(min_value=-(2**70), max_value=2**70),
)


@st.composite
def catalogues(draw):
    """``(points, capacities)`` as a client might pass them: lists or
    tuples of Python floats and ints, or a numpy array."""
    dims = draw(st.integers(1, 4))
    n = draw(st.integers(1, 12))
    points = draw(
        st.lists(
            st.lists(_COORDINATE, min_size=dims, max_size=dims),
            min_size=n,
            max_size=n,
        )
    )
    shape = draw(st.sampled_from(["lists", "tuples", "array"]))
    if shape == "tuples":
        points = tuple(tuple(row) for row in points)
    elif shape == "array":
        try:
            points = np.array(points, dtype=np.float64)
        except OverflowError:
            pass
    capacities = draw(
        st.none() | st.lists(st.integers(1, 3), min_size=n, max_size=n)
    )
    return points, capacities


def _bits(rows) -> list[list[str]]:
    return [[float(x).hex() for x in row] for row in rows]


def _problem(points, capacities=None, **kwargs) -> Problem:
    dims = len(points[0])
    return Problem(
        objects=points,
        functions=((1.0,) + (0.0,) * (dims - 1),),
        object_capacities=capacities,
        **kwargs,
    )


def _oracle_body(problem: Problem) -> bytes:
    return to_canonical_json(problem.to_dict()).encode("utf-8")


@settings(max_examples=150, deadline=None)
@given(catalogues())
def test_interned_body_and_tuples_equal_the_per_element_oracle(catalogue):
    points, capacities = catalogue
    problem = _problem(points, capacities)
    expected = tuple(_point_tuple(row) for row in points)
    assert _bits(problem.objects) == _bits(expected)
    assert _bits(problem.object_set.points) == _bits(expected)
    body = problem.canonical_body()
    assert body == _oracle_body(problem)
    assert json.loads(body)["objects"]["points"] == [list(row) for row in expected]
    assert problem.digest() == hashlib.sha256(body).hexdigest()
    # A decode of the body is an intern hit and encodes the same bytes.
    again = Problem.from_json(body)
    assert again.objects is problem.objects
    assert again.canonical_body() == body


@settings(max_examples=60, deadline=None)
@given(catalogues())
def test_v1_payloads_intern_like_v2(catalogue):
    points, capacities = catalogue
    problem = _problem(points, capacities, method="chain")
    payload = problem.to_dict()
    payload["schema"] = "repro.problem/v1"
    decoded = Problem.from_dict(json.loads(json.dumps(payload)))
    assert decoded.objects is problem.objects
    assert decoded.canonical_body() == problem.canonical_body() == _oracle_body(decoded)


def test_per_element_inputs_share_the_vector_path_record():
    """Strings and bools take the per-element path; the values, and so
    the record, are those of the float input."""
    floats = _problem([[0.5, 0.25], [1.0, 0.0]])
    strings = _problem([["0.5", "0.25"], ["1", "0"]])
    bools = _problem([[0.5, 0.25], [True, False]])
    assert strings.objects is floats.objects
    assert bools.objects is floats.objects
    assert strings.digest() == floats.digest()


def test_eviction_storm_keeps_values_and_bounds_the_table():
    rng = np.random.default_rng(15)
    catalogues = [rng.random((6, 3)).tolist() for _ in range(3 * CATALOGUE_SLOTS)]
    first = [_problem(points) for points in catalogues]
    bodies = [p.canonical_body() for p in first]
    assert len(problem_module._CATALOGUES) <= CATALOGUE_SLOTS
    for points, old, body in zip(catalogues, first, bodies):
        fresh = _problem(points)
        assert fresh == old
        assert fresh.canonical_body() == body == _oracle_body(fresh)
        assert fresh.digest() == old.digest()
    # The most recently used catalogues are still interned.
    for points in catalogues[-CATALOGUE_SLOTS:]:
        assert _problem(points).objects is _problem(points).objects
    assert len(problem_module._CATALOGUES) <= CATALOGUE_SLOTS


def test_concurrent_construction_shares_one_record():
    rng = np.random.default_rng(16)
    # Large enough that the four first decodes all miss and build.
    payloads = [
        _problem(rng.random((5000, 4)).tolist()).to_dict() for _ in range(3)
    ]
    texts = [json.dumps(p) for p in payloads]
    barrier = threading.Barrier(4)
    built: list[list[Problem]] = [[] for _ in range(4)]
    errors: list[BaseException] = []

    def worker(slot: int) -> None:
        try:
            barrier.wait()
            for _ in range(2):
                for text in texts:
                    problem = Problem.from_json(text)
                    problem.canonical_body()
                    built[slot].append(problem)
        except BaseException as exc:  # surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    problems = [p for per_thread in built for p in per_thread]
    for k in range(3):
        over_k = problems[k::3]
        assert len({id(p.objects) for p in over_k}) == 1
        assert len({id(p.object_set) for p in over_k}) == 1
        assert {p.canonical_body() for p in over_k} == {_oracle_body(over_k[0])}


def test_racing_misses_resolve_to_the_first_stored_record(monkeypatch):
    """Four threads miss on one new catalogue at once and all build it;
    every one of them gets the one record the table stored."""
    builders = threading.Barrier(4)

    class RacingCatalogue(problem_module.Catalogue):
        def __init__(self, *args):
            builders.wait(timeout=30)
            super().__init__(*args)

    monkeypatch.setattr(problem_module, "Catalogue", RacingCatalogue)
    payload = {
        "schema": "repro.problem/v2",
        "objects": {"points": np.random.default_rng(18).random((50, 3)).tolist()},
        "functions": {"weights": [[1.0, 0.0, 0.0]]},
        "solver": {"method": "sb"},
    }
    built: list[Problem] = []
    threads = [
        threading.Thread(target=lambda: built.append(Problem.from_dict(payload)))
        for _ in range(4)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert len(built) == 4
    assert len({id(p.objects) for p in built}) == 1
    assert len({id(p.object_set) for p in built}) == 1


def test_derivations_and_decodes_share_the_catalogue():
    base = _problem([[0.1, 0.9], [0.5, 0.5], [0.9, 0.125]], method="sb")
    derived = [
        base.with_method("chain"),
        base.with_options(multi_pair=False),
        base.with_functions([(0.25, 0.75), (0.5, 0.5)], priorities=[2.0, 1.0]),
    ]
    decoded = [Problem.from_dict(json.loads(base.to_json())) for _ in range(2)]
    for other in derived + decoded:
        assert other.objects is base.objects
        assert other.object_set is base.object_set
    moved = base.with_objects([(0.3, 0.3), (0.6, 0.2)])
    assert moved.objects is not base.objects
    assert moved.functions == base.functions


def test_server_holds_one_copy_of_a_catalogue_across_cohorts():
    rng = np.random.default_rng(17)
    points = rng.random((300, 3)).tolist()
    with serve_in_thread(ServerConfig(port=0)) as handle:
        with Client(handle.base_url) as client:
            ids = [
                client.register(
                    Problem(
                        objects=points,
                        functions=[[w, 1.0 - w, 0.0]],
                        method="chain",
                    )
                )
                for w in (0.1, 0.2, 0.3, 0.4, 0.5)
            ]
        registered = [handle.app._problems[pid] for pid in ids]
    assert len(set(ids)) == 5
    assert len({id(p.objects) for p in registered}) == 1
    assert len({id(p.object_set) for p in registered}) == 1


_GOLDEN_POINTS = [(0.1, 0.9), (0.5, 0.5), (-0.0, 5e-324), (1e308, 0.25)]


@pytest.mark.parametrize(
    "capacities, expected",
    [
        (None, "4ac420e916519d538a5a8217d0aeeec35202b2c823da39cdf0f60dfe0d48f5f7"),
        (
            (2, 1, 3, 1),
            "a19a28739942e6a54f0d57a11bccb3c724bc2ce6126a45662fde3e1597c1c20e",
        ),
    ],
)
def test_interned_fingerprint_is_the_index_cache_fingerprint(capacities, expected):
    """Pinned values from the definition that predates interning
    (SHA-256 over the shape, the float64 bytes and int64 capacities)."""
    problem = _problem(_GOLDEN_POINTS, capacities)
    assert object_set_fingerprint(problem.object_set) == expected
    plain = ObjectSet(list(_GOLDEN_POINTS), capacities=capacities and list(capacities))
    assert object_set_fingerprint(plain) == expected


def test_interned_columns_are_read_only_and_shared():
    problem = _problem([[0.1, 0.9], [0.5, 0.5]])
    matrix = problem.object_set.point_matrix()
    assert matrix.dtype == np.float64 and not matrix.flags.writeable
    assert problem.with_method("chain").object_set.point_matrix() is matrix
    with pytest.raises(ValueError):
        matrix[0, 0] = 1.0
