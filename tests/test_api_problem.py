"""The :class:`repro.api.Problem` value object: builder, validation,
normalization, derivation."""

import dataclasses

import pytest

import repro.api.problem as problem_module
from repro.api import (
    InvalidProblemError,
    InvalidSolverOptionError,
    Problem,
    ReproError,
    UnknownSolverError,
)
from repro.data.instances import FunctionSet, ObjectSet

from .conftest import random_instance

OBJECTS = [(0.5, 0.6), (0.2, 0.7), (0.8, 0.2), (0.4, 0.4)]
FUNCTIONS = [(0.8, 0.2), (0.2, 0.8), (0.5, 0.5)]


def figure1_problem(**kwargs) -> Problem:
    return Problem(objects=tuple(OBJECTS), functions=tuple(FUNCTIONS), **kwargs)


def test_builder_equals_direct_construction():
    built = (
        Problem.builder()
        .add_objects(OBJECTS)
        .add_functions(FUNCTIONS)
        .solver("sb")
        .build()
    )
    assert built == figure1_problem()


def test_builder_incremental_with_capacities_and_priorities():
    built = (
        Problem.builder()
        .add_object((0.5, 0.6), capacity=2)
        .add_object((0.8, 0.2))
        .add_function((0.8, 0.2), capacity=3, priority=2.0)
        .add_function((0.5, 0.5))
        .solver("sb", omega_fraction=0.1)
        .page_size(1024)
        .build()
    )
    assert built.object_capacities == (2, 1)
    assert built.function_capacities == (3, 1)
    assert built.priorities == (2.0, 1.0)
    assert dict(built.options) == {"omega_fraction": 0.1}
    assert built.page_size == 1024


def test_all_one_capacities_and_priorities_normalize_to_none():
    p = figure1_problem(
        object_capacities=(1, 1, 1, 1),
        function_capacities=(1, 1, 1),
        priorities=(1.0, 1.0, 1.0),
    )
    assert p.object_capacities is None
    assert p.function_capacities is None
    assert p.priorities is None
    assert p == figure1_problem()


def test_from_sets_round_trips_instance_containers():
    fs, os_ = random_instance(5, 9, 3, seed=3, capacities=True, priorities=True)
    p = Problem.from_sets(os_, fs, method="sb-two-skylines")
    assert p.object_set.points == tuple(os_.points)
    assert p.function_set.gammas == list(fs.gammas)
    assert p.method == "sb-two-skylines"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"objects": ()},
        {"functions": ()},
        {"objects": ((0.5, 0.5), (0.1,))},  # ragged dims
        {"functions": ((0.9, 0.2),)},  # weights don't sum to 1
        {"functions": ((-0.2, 1.2),)},  # negative weight
        {"objects": ((0.5, 0.5, 0.5),)},  # dims mismatch vs functions
        {"object_capacities": (1, 2)},  # misaligned
        {"object_capacities": (0, 1, 1, 1)},  # capacity < 1
        {"priorities": (1.0, -2.0, 1.0)},  # non-positive priority
        {"page_size": 0},
        {"buffer_fraction": 0.0},
        {"buffer_fraction": 1.5},
        {"options": {"omega_fraction": [1, 2]}},  # non-scalar option
    ],
)
def test_invalid_problems_rejected(kwargs):
    base = dict(objects=tuple(OBJECTS), functions=tuple(FUNCTIONS))
    base.update(kwargs)
    with pytest.raises(InvalidProblemError):
        Problem(**base)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize(
    "where",
    ["object point", "object point (per-element path)", "weight", "priority"],
)
def test_non_finite_values_are_rejected(where, bad):
    objects = [list(p) for p in OBJECTS]
    functions = [list(w) for w in FUNCTIONS]
    priorities = None
    if where == "object point":
        objects[2][1] = bad
    elif where == "object point (per-element path)":
        objects[2] = ["0.8", str(bad)]
    elif where == "weight":
        functions[1] = [bad, 0.5]
    else:
        priorities = [1.0, bad, 1.0]
    with pytest.raises(InvalidProblemError, match="finite"):
        Problem(objects=objects, functions=functions, priorities=priorities)


def test_a_nan_token_in_a_payload_is_rejected():
    """``json`` reads the non-standard ``NaN`` token as a float; the
    problem built from it is refused, not solved to a crash."""
    body = figure1_problem().to_json().replace("0.6", "NaN", 1)
    with pytest.raises(InvalidProblemError, match="finite"):
        Problem.from_json(body)


def test_unknown_solver_and_option_are_typed_errors():
    with pytest.raises(UnknownSolverError):
        figure1_problem(method="no-such-solver")
    with pytest.raises(InvalidSolverOptionError) as exc:
        figure1_problem(method="chain", options={"omega_fraction": 0.1})
    assert "disk_function_tree" in str(exc.value)
    # Both are ReproError and keep builtin compatibility.
    assert issubclass(UnknownSolverError, (ReproError, ValueError))
    assert issubclass(InvalidSolverOptionError, (ReproError, TypeError))


def test_problem_is_immutable():
    p = figure1_problem()
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.method = "chain"
    assert p.object_set.is_frozen
    with pytest.raises(TypeError):
        p.options["omega_fraction"] = 1.0


def test_with_method_and_with_functions_derive_new_instances():
    p = figure1_problem(options={"omega_fraction": 0.1})
    q = p.with_method("chain")
    assert q.method == "chain" and dict(q.options) == {}
    assert p.method == "sb"  # original untouched
    r = p.with_functions([(1.0, 0.0)], priorities=[3.0])
    assert r.functions == ((1.0, 0.0),) and r.priorities == (3.0,)
    assert r.objects == p.objects
    merged = p.with_options(multi_pair=False)
    assert dict(merged.options) == {"omega_fraction": 0.1, "multi_pair": False}


def test_validated_sets_are_exposed():
    p = figure1_problem()
    assert isinstance(p.object_set, ObjectSet)
    assert isinstance(p.function_set, FunctionSet)
    assert p.dims == 2 and p.num_objects == 4 and p.num_functions == 3


def test_problem_is_hashable_value_object():
    p = figure1_problem(options={"omega_fraction": 0.1})
    q = figure1_problem(options={"omega_fraction": 0.1})
    assert hash(p) == hash(q) and len({p, q}) == 1
    assert hash(p) != hash(p.with_method("chain"))


def test_derived_problems_share_validated_sets():
    """with_method/with_options keep the frozen ObjectSet instance, so
    the batch cache's memoized fingerprint is computed once."""
    p = figure1_problem()
    v = p.with_method("chain")
    assert v.object_set is p.object_set
    assert v.function_set is p.function_set
    w = p.with_functions([(1.0, 0.0)])
    assert w.object_set is p.object_set
    assert w.function_set is not p.function_set


def test_solver_derivation_shares_instance_without_revalidating(monkeypatch):
    """with_method/with_options are O(1): the validated tuples and
    containers are shared, and no instance container is rebuilt."""
    p = figure1_problem(priorities=(2.0, 1.0, 1.0))
    p.instance_digest()

    def no_rebuild(*args, **kwargs):
        raise AssertionError("instance re-validated on a solver derivation")

    monkeypatch.setattr(problem_module, "ObjectSet", no_rebuild)
    monkeypatch.setattr(problem_module, "FunctionSet", no_rebuild)
    for derived in (p.with_method("chain"), p.with_options(multi_pair=True)):
        assert derived.objects is p.objects
        assert derived.functions is p.functions
        assert derived.priorities is p.priorities
        assert derived.object_set is p.object_set
        assert derived.function_set is p.function_set
        assert derived.instance_digest() == p.instance_digest()


def test_solver_derivation_still_validates_the_solver_section():
    p = figure1_problem()
    with pytest.raises(UnknownSolverError):
        p.with_method("no-such-solver")
    with pytest.raises(InvalidSolverOptionError):
        p.with_method("chain", omega_fraction=0.1)
    with pytest.raises(InvalidSolverOptionError):
        p.with_options(bogus=1)
    with pytest.raises(InvalidProblemError):
        p.with_options(omega_fraction=[1, 2])


@pytest.mark.parametrize("memoize_first", [False, True])
def test_derived_digest_equals_a_fresh_build(memoize_first):
    """A derivation keeps the instance digest but never the base's full
    digest or plan: both depend on the solver section."""
    p = figure1_problem(method="auto")
    if memoize_first:
        p.digest()
        p.plan()
    for derived, fresh in (
        (p.with_method("chain"), figure1_problem(method="chain")),
        (
            p.with_method("sb", omega_fraction=0.2),
            figure1_problem(method="sb", options={"omega_fraction": 0.2}),
        ),
        (
            p.with_method("sb").with_options(multi_pair=False),
            figure1_problem(options={"multi_pair": False}),
        ),
    ):
        assert derived == fresh
        assert derived.digest() == fresh.digest() != p.digest()
        assert derived.instance_digest() == fresh.instance_digest()
        assert derived.plan() == fresh.plan()
        assert derived.resolved_method == fresh.method
