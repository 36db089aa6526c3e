"""Golden pins for ``Problem.digest()`` / ``instance_digest()``.

Digests are problem ids, ring keys and result-cache keys, so their
*values* are a wire contract: a faster encoder may change how they are
computed, never what they are.  The hex constants below were produced
by the original definition (SHA-256 of ``to_canonical_json(to_dict())``,
with the ``solver`` section dropped for the instance digest); the
property test re-derives them from that definition for random problems.
"""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import given, settings

from repro.api import Problem

from .test_api_serde import problems

_OBJECTS = ((0.1, 0.9), (0.5, 0.5), (0.9, 0.125), (1.0 / 3.0, 2.0 / 3.0))
_FUNCTIONS = ((0.25, 0.75), (0.6, 0.4), (0.5, 0.5))

_V1_PAYLOAD = {
    "schema": "repro.problem/v1",
    "objects": {"points": [[0.2, 0.8], [0.7, 0.3], [0.45, 0.45]], "capacities": None},
    "functions": {
        "weights": [[0.3, 0.7], [0.9, 0.1]],
        "priorities": None,
        "capacities": None,
    },
    "solver": {"method": "chain", "options": {"disk_function_tree": False}},
    "index": {"page_size": 1024, "memory": None, "buffer_fraction": 0.05},
}


def _fixed_problems() -> dict[str, Problem]:
    return {
        "v1-payload": Problem.from_dict(_V1_PAYLOAD),
        "capacities": Problem(
            objects=_OBJECTS,
            functions=_FUNCTIONS,
            object_capacities=(2, 1, 3, 1),
            function_capacities=(1, 2, 2),
        ),
        "priorities": Problem(
            objects=_OBJECTS,
            functions=_FUNCTIONS,
            priorities=(2.0, 1.0, 3.5),
            method="sb-two-skylines",
        ),
        "auto": Problem(objects=_OBJECTS, functions=_FUNCTIONS, method="auto"),
        "options": Problem(
            objects=_OBJECTS,
            functions=_FUNCTIONS,
            method="sb",
            options={
                "variant": "größe-✓",
                "multi_pair": True,
                "omega_fraction": 0.05,
                "maintenance": None,
            },
        ),
        "memory-none": Problem(
            objects=_OBJECTS, functions=_FUNCTIONS, memory_index=None
        ),
        "memory-true": Problem(
            objects=_OBJECTS,
            functions=_FUNCTIONS,
            method="sb-alt",
            memory_index=True,
            page_size=512,
            buffer_fraction=0.5,
        ),
    }


#: name -> (digest, instance_digest), computed by the original definition.
GOLDEN = {
    "v1-payload": (
        "6949bf6a9999df9f69fcf026b03dd03be53d382fa93303d9cf6fb2edb5e3ae24",
        "e583ca2bd27e0861c369f42bbed48585d5ab9bac2e046eccbbdec8868ae845c6",
    ),
    "capacities": (
        "016ad08abe0b9815a33b4000d456c2fd4c07493c2ff86e4e9edde062d69ca9c2",
        "788ab1af1c8a9b57179f55925d184837357112a4e970da7a3a3d01557bfe64fd",
    ),
    "priorities": (
        "b0bee16d647cb0264d5e8fe8e1522abba92ce9f01f78e0c858da42225ef994d1",
        "2311f5fff27dc4e7f4e907064b4c20f746c862451bf344de481332d2bbba6587",
    ),
    "auto": (
        "2f803e5ce54c14b9a9676a4a30692de173bcc3c3b24495eac15b4b80c7264a03",
        "4665bbd313d97f5cf3b3f0d452058e0f238641e2afa7151b5051de65cb341b83",
    ),
    "options": (
        "7f1c1291b3a831c7efeab84be1217f08c342e832a2ada94f47fd5d1f227caa1c",
        "4665bbd313d97f5cf3b3f0d452058e0f238641e2afa7151b5051de65cb341b83",
    ),
    "memory-none": (
        "8c2ece4ce5591ea1fd4667844611b69dba8bca5170bb676cdf48cd53ecd612d8",
        "4665bbd313d97f5cf3b3f0d452058e0f238641e2afa7151b5051de65cb341b83",
    ),
    "memory-true": (
        "1620c5d11e4db1f4c29cba08e9b7d673650e1e11004f79e151de72519ed25ce2",
        "6a4e0c49ba64a373eb7dac9a755af4a00b0dc6af2fa82caa2c6fd9eba0cc2d67",
    ),
}


def _oracle(payload: dict) -> str:
    """The original digest definition, inlined."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_digest_matches_golden_constant(name):
    problem = _fixed_problems()[name]
    assert (problem.digest(), problem.instance_digest()) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_instance_digest_first_matches_golden_constant(name):
    """Either digest may be asked for first; both come out the same."""
    problem = _fixed_problems()[name]
    assert problem.instance_digest() == GOLDEN[name][1]
    assert problem.digest() == GOLDEN[name][0]


@settings(max_examples=80, deadline=None)
@given(problems())
def test_digests_match_original_definition(problem):
    payload = problem.to_dict()
    assert problem.digest() == _oracle(payload)
    del payload["solver"]
    assert problem.instance_digest() == _oracle(payload)


@settings(max_examples=60, deadline=None)
@given(problems())
def test_canonical_body_round_trips(problem):
    body = problem.canonical_body()
    assert isinstance(body, bytes)
    assert body == problem.to_json().encode("utf-8")
    restored = Problem.from_json(body)
    assert restored == problem
    assert restored.digest() == problem.digest()
    assert restored.instance_digest() == problem.instance_digest()


def test_canonical_body_is_not_kept_on_the_problem():
    problem = _fixed_problems()["options"]
    body = problem.canonical_body()
    assert not any(
        isinstance(value, (bytes, str)) and len(value) >= len(body)
        for value in vars(problem).values()
    )
