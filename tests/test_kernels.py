"""The columnar kernels of :mod:`repro.kernels`.

Three layers of coverage:

- **batch Pareto kernels vs the scalar oracle** — hypothesis property
  tests check :func:`~repro.kernels.pareto.pareto_mask`,
  :func:`~repro.kernels.pareto.dominated_mask` and
  :func:`~repro.kernels.pareto.dominator_index` against
  :func:`repro.skyline.reference.naive_skyline` /
  :func:`repro.rtree.geometry.dominates` on mixed-sign coordinates,
  exact float ties and duplicate points;
- **bit-identity against the interpreted twins** — ``sb-vec`` must
  reproduce ``sb`` (and ``sb-deltasky-vec`` must reproduce
  ``sb-deltasky``) pair for pair: same (fid, oid, score, units)
  sequence, same loop count, on plain / tie-heavy / capacitated /
  prioritized instances and through the batch solver on both
  executors;
- **stability certificates** — the vectorized solvers' matchings pass
  :meth:`repro.api.Solution.verify` (no blocking pair);
- **packed-word and block boundaries** — point and dominator sets past
  64 and 128 rows (a second and third ``uint64`` word), duplicates
  split across the ``BLOCK`` edge of the Pareto pass and ``-0.0``
  next to ``0.0``, checked against the scalar oracle down to the
  first-dominator witness; plus row-permutation invariance of
  ``pareto_mask`` and of ``MaskSkyline`` repair.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import AssignmentSession, Problem
from repro.core import build_object_index, solve
from repro.kernels import (
    ColumnarInstance,
    MaskSkyline,
    VectorizedSkylineMaintenance,
    dominated_mask,
    pareto_mask,
)
from repro.kernels import pareto
from repro.kernels.pareto import (
    BLOCK,
    dense_ranks,
    dominator_index,
    rank_pareto,
    sky_order,
)
from repro.rtree.geometry import dominates
from repro.service import BatchSolver, SolveJob
from repro.skyline.reference import naive_skyline

from .conftest import random_instance

# ---------------------------------------------------------------------------
# Batch Pareto kernels vs the scalar oracle
# ---------------------------------------------------------------------------

# Mixed signs, exact-tie magnets (including negative ones) and full
# floats: maximizes duplicate rows, tied sums and tied coordinates.
mixed_coord = st.one_of(
    st.sampled_from([-1.0, -0.5, 0.0, 0.25, 0.5, 1.0]),
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, width=32),
)


def mixed_points(dims: int, max_size: int = 60):
    return st.lists(
        st.tuples(*([mixed_coord] * dims)), min_size=0, max_size=max_size
    ).map(lambda pts: (dims, pts))


def as_matrix(dims: int, points: list) -> np.ndarray:
    return np.asarray(points, dtype=np.float64).reshape(len(points), dims)


@given(st.integers(2, 5).flatmap(mixed_points))
@settings(max_examples=120, deadline=None)
def test_pareto_mask_matches_naive_skyline(case):
    dims, points = case
    mask = pareto_mask(as_matrix(dims, points))
    expected = naive_skyline(list(enumerate(points)))
    assert set(np.nonzero(mask)[0]) == set(expected)


@given(st.integers(2, 4).flatmap(lambda d: st.tuples(
    mixed_points(d, max_size=25), mixed_points(d, max_size=25),
)))
@settings(max_examples=100, deadline=None)
def test_dominated_mask_matches_scalar_dominates(pair):
    (dims, points), (_, dominators) = pair
    p = as_matrix(dims, points)
    w = as_matrix(dims, dominators)
    mask = dominated_mask(p, w)
    witness = dominator_index(p, w)
    for i, point in enumerate(points):
        expected = any(dominates(d, point) for d in dominators)
        assert mask[i] == expected
        assert (witness[i] >= 0) == expected
        if expected:
            assert dominates(dominators[witness[i]], point)


@given(st.integers(2, 4).flatmap(lambda d: mixed_points(d, max_size=40)))
@settings(max_examples=60, deadline=None)
def test_duplicates_are_all_skyline_members(case):
    # Duplicating every row must not evict anyone: coincident points
    # never dominate each other (Section 2.2).
    dims, points = case
    doubled = points + points
    mask = pareto_mask(as_matrix(dims, doubled))
    half = len(points)
    assert (mask[:half] == mask[half:]).all()
    expected = naive_skyline(list(enumerate(doubled)))
    assert set(np.nonzero(mask)[0]) == set(expected)


def test_empty_and_single_point_edges():
    empty = np.zeros((0, 3))
    assert pareto_mask(empty).shape == (0,)
    assert dominated_mask(empty, np.ones((2, 3))).shape == (0,)
    assert dominated_mask(np.ones((2, 3)), empty).tolist() == [False, False]
    assert dominator_index(np.ones((2, 3)), empty).tolist() == [-1, -1]
    one = np.asarray([[0.5, 0.5]])
    assert pareto_mask(one).tolist() == [True]


# ---------------------------------------------------------------------------
# Incremental mask repair vs recompute-from-scratch
# ---------------------------------------------------------------------------


class _Ctx:
    """Minimal stand-in for EngineContext (maintenance only reads
    ``objects`` and ``mem``)."""

    def __init__(self, objects):
        from repro.storage.stats import MemoryTracker

        self.objects = objects
        self.mem = MemoryTracker()


@pytest.mark.parametrize("seed", range(5))
def test_incremental_removal_matches_recompute(seed):
    functions, objects = random_instance(4, 120, 3, seed=seed, tie_heavy=seed % 2 == 0)
    maintenance = VectorizedSkylineMaintenance(
        _Ctx(objects), ColumnarInstance(functions, objects)
    )
    skyline = maintenance.compute_initial()
    alive = dict(enumerate(objects.points))
    assert skyline == naive_skyline(list(alive.items()))
    rng = np.random.default_rng(seed)
    while len(skyline) > 1:
        members = sorted(skyline)
        take = int(rng.integers(1, min(3, len(members)) + 1))
        removed = list(rng.choice(members, size=take, replace=False))
        skyline = maintenance.remove([int(o) for o in removed])
        for oid in removed:
            del alive[int(oid)]
        assert skyline == naive_skyline(list(alive.items()))


def test_remove_nonmember_raises():
    functions, objects = random_instance(3, 20, 2, seed=9)
    maintenance = VectorizedSkylineMaintenance(
        _Ctx(objects), ColumnarInstance(functions, objects)
    )
    with pytest.raises(RuntimeError):
        maintenance.remove([0])  # before compute_initial
    skyline = maintenance.compute_initial()
    non_member = next(i for i in range(len(objects)) if i not in skyline)
    with pytest.raises(KeyError):
        maintenance.remove([non_member])


# ---------------------------------------------------------------------------
# Bit-identity: vectorized configs vs their interpreted twins
# ---------------------------------------------------------------------------

TWINS = [("sb", "sb-vec"), ("sb-deltasky", "sb-deltasky-vec")]

FAMILIES = [
    dict(),
    dict(tie_heavy=True),
    dict(capacities=True),
    dict(priorities=True),
    dict(capacities=True, priorities=True, tie_heavy=True),
]


def run_signature(functions, objects, method):
    result = solve(
        functions, build_object_index(objects, page_size=512), method=method
    )
    return (
        [(p.fid, p.oid, p.score, p.count) for p in result.matching.pairs],
        result.stats.loops,
    )


@pytest.mark.parametrize("scalar,vectorized", TWINS)
@pytest.mark.parametrize("family", range(len(FAMILIES)))
def test_vectorized_twin_is_pair_identical(scalar, vectorized, family):
    functions, objects = random_instance(
        11, 40, 3, seed=family * 7 + 1, **FAMILIES[family]
    )
    assert run_signature(functions, objects, scalar) == run_signature(
        functions, objects, vectorized
    ), f"{vectorized} diverged from {scalar}"


@pytest.mark.parametrize("scalar,vectorized", TWINS)
def test_vectorized_twin_identity_sweep(scalar, vectorized):
    for seed in range(8):
        functions, objects = random_instance(
            5 + seed, 10 + 5 * seed, 2 + seed % 4, seed=100 + seed,
            capacities=seed % 2 == 0, tie_heavy=seed % 3 == 0,
        )
        assert run_signature(functions, objects, scalar) == run_signature(
            functions, objects, vectorized
        ), f"{vectorized} diverged from {scalar} at seed {100 + seed}"


@pytest.mark.parametrize("executor", ["thread", "process"])
def test_vectorized_twins_identical_through_batch_solver(executor):
    functions, objects = random_instance(9, 35, 3, seed=55, capacities=True)
    with BatchSolver(executor=executor, max_workers=2) as solver:
        for scalar, vectorized in TWINS:
            jobs = [
                SolveJob(functions=functions, objects=objects, method=m)
                for m in (scalar, vectorized)
            ]
            got_scalar, got_vec = solver.solve_many(jobs)
            assert [
                (p.fid, p.oid, p.score, p.count)
                for p in got_scalar.result.matching.pairs
            ] == [
                (p.fid, p.oid, p.score, p.count)
                for p in got_vec.result.matching.pairs
            ], (executor, vectorized)


# ---------------------------------------------------------------------------
# Stability certificates
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("method", ["sb-vec", "sb-deltasky-vec"])
@pytest.mark.parametrize("family", range(len(FAMILIES)))
def test_vectorized_solutions_certify_stable(method, family):
    functions, objects = random_instance(
        8, 30, 3, seed=family * 13 + 3, **FAMILIES[family]
    )
    problem = Problem.from_sets(objects, functions, method=method)
    with AssignmentSession(problem) as session:
        session.solve().verify()  # raises on any blocking pair


# ---------------------------------------------------------------------------
# Packed-word and block boundaries
# ---------------------------------------------------------------------------

CLOUD_KINDS = ("anti", "grid", "uniform")


def cloud(rng: np.random.Generator, n: int, dims: int, kind: str) -> np.ndarray:
    """``anti``: near a simplex, so most rows are skyline members;
    ``grid``: few signed values, ``-0.0`` included, so exact ties and
    duplicates abound; ``uniform``: generic floats."""
    if kind == "anti":
        base = rng.dirichlet(np.ones(dims), size=n)
        return base * rng.uniform(0.9, 1.0, size=(n, 1))
    if kind == "grid":
        return rng.choice([-1.0, -0.0, 0.0, 0.5, 1.0], size=(n, dims))
    return rng.uniform(-1.0, 1.0, size=(n, dims))


def first_dominator(point: list, dominators: list) -> int:
    return next((j for j, w in enumerate(dominators) if dominates(w, point)), -1)


def assert_kernels_match_oracle(points: np.ndarray, dominators: np.ndarray) -> None:
    rows = points.tolist()
    mask = pareto_mask(points)
    expected = naive_skyline(list(enumerate(rows)))
    assert set(np.nonzero(mask)[0].tolist()) == set(expected)
    # The Pareto pass's witnesses are skyline members that dominate.
    _, member = rank_pareto(dense_ranks(points))
    assert (member[mask] == -1).all()
    for i in np.nonzero(~mask)[0]:
        assert mask[member[i]] and dominates(rows[member[i]], rows[i])
    doms = dominators.tolist()
    witness = [first_dominator(p, doms) for p in rows]
    assert dominator_index(points, dominators).tolist() == witness
    assert dominated_mask(points, dominators).tolist() == [w >= 0 for w in witness]


def with_late_dominators(
    rng: np.random.Generator, points: np.ndarray, weak: int, strong: int
) -> np.ndarray:
    """``weak`` rows below every point, then ``strong`` rows lifted
    off random points: every witness lies past row ``weak``."""
    floor = points.min(axis=0) - 1.0
    lifted = points[rng.integers(0, points.shape[0], size=strong)]
    lifted = lifted + rng.choice([0.0, 0.5], size=lifted.shape)
    return np.concatenate([np.tile(floor, (weak, 1)), lifted])


@pytest.mark.parametrize("kind", CLOUD_KINDS)
@pytest.mark.parametrize(
    "n,dims,weak", [(65, 2, 64), (200, 3, 129), (600, 4, 130), (BLOCK + 300, 3, 200)]
)
def test_kernels_cross_word_boundaries(kind, n, dims, weak):
    rng = np.random.default_rng(n * 10 + dims)
    points = cloud(rng, n, dims, kind)
    if kind == "anti" and n > 128:
        assert pareto_mask(points).sum() > 128  # multi-word member tables
    dominators = with_late_dominators(rng, points, weak, strong=70)
    assert_kernels_match_oracle(points, dominators)


@given(
    st.integers(0, 2**32 - 1),
    st.integers(65, 600),
    st.integers(2, 5),
    st.sampled_from(CLOUD_KINDS),
    st.integers(65, 200),
)
@settings(max_examples=25, deadline=None)
def test_kernels_cross_word_boundaries_property(seed, n, dims, kind, weak):
    rng = np.random.default_rng(seed)
    points = cloud(rng, n, dims, kind)
    strong = int(rng.integers(1, 80))
    dominators = with_late_dominators(rng, points, weak, strong)
    assert_kernels_match_oracle(points, dominators)


@given(st.integers(2, 4).flatmap(lambda d: st.lists(
    st.tuples(*([st.sampled_from([-0.0, 0.0, -1.0, 1.0, 0.5]) | mixed_coord] * d)),
    min_size=65, max_size=300,
).map(lambda pts: (d, pts))))
@settings(max_examples=15, deadline=None)
def test_large_mixed_sets_match_oracle(case):
    dims, points = case
    matrix = as_matrix(dims, points)
    assert_kernels_match_oracle(matrix, matrix[::-1])


@pytest.mark.parametrize("kind", CLOUD_KINDS)
def test_word_budget_chunks_and_blocks_match_oracle(monkeypatch, kind):
    # A one-word budget cuts dominators into 64-row chunks and
    # candidates into 64-row blocks: the first dominator must still
    # be found across chunk edges.
    monkeypatch.setattr(pareto, "WORD_BUDGET", 64)
    rng = np.random.default_rng(17)
    points = cloud(rng, 300, 3, kind)
    dominators = with_late_dominators(rng, points, weak=100, strong=150)
    assert_kernels_match_oracle(points, dominators)


def assert_straddles_block_edge(points: np.ndarray, i: int, j: int) -> None:
    """Rows ``i`` and ``j`` coincide and the Pareto pass visits them
    in different blocks."""
    assert (points[i] == points[j]).all()
    position = np.argsort(sky_order(dense_ranks(points)))
    assert (position[i] < BLOCK) != (position[j] < BLOCK)


def test_member_duplicates_split_across_block_edge():
    # An antichain with equal rank sums, then its copies: the last
    # duplicate pair sits on both sides of the first block edge.
    # Coincident rows never dominate each other.
    size = BLOCK * 3 // 4
    chain = np.stack([np.arange(size), size - 1.0 - np.arange(size)], axis=1)
    points = np.concatenate([chain, chain])
    assert_straddles_block_edge(points, size - 1, 2 * size - 1)
    assert pareto_mask(points).all()
    assert_kernels_match_oracle(points, points[::7])


@pytest.mark.parametrize("dims", [2, 3])
def test_dominated_duplicates_split_across_block_edge(dims):
    # BLOCK - 1 antichain rows sort first; a dominated pair of
    # duplicates lands on positions BLOCK - 1 and BLOCK.
    k = BLOCK - 1
    chain = np.zeros((k, dims))
    chain[:, 0] = np.arange(k)
    chain[:, 1] = 300.0 - np.arange(k)
    loser = chain[100] - 0.5
    points = np.concatenate([chain, [loser, loser], chain[:10] - 2.0])
    assert_straddles_block_edge(points, k, k + 1)
    mask = pareto_mask(points)
    assert not mask[k] and not mask[k + 1]
    assert_kernels_match_oracle(points, points)


def test_signed_zero_ties_with_zero():
    ranks = dense_ranks(np.asarray([[0.0, -0.0], [-0.0, 0.0], [-1.0, 1.0]]))
    assert ranks[0].tolist() == ranks[1].tolist()
    coincident = np.asarray([[0.0, 1.0], [-0.0, 1.0]])
    assert pareto_mask(coincident).tolist() == [True, True]
    assert dominator_index(coincident, coincident[::-1]).tolist() == [-1, -1]
    below = np.asarray([[-0.0, 0.5], [0.0, -0.0]])
    assert dominator_index(below, coincident).tolist() == [0, 0]
    rng = np.random.default_rng(11)
    signed = rng.choice([-0.0, 0.0, -1.0, 1.0], size=(300, 3))
    assert_kernels_match_oracle(signed, signed[rng.permutation(300)][:150])


# ---------------------------------------------------------------------------
# MaskSkyline repair
# ---------------------------------------------------------------------------


def test_remove_highest_index_member_promotes_only_new_rows():
    # ref == -1 marks members and dead rows; it must not read as a
    # reference to the last row when that row is removed.
    points = np.asarray(
        [[0.2, 0.9], [0.9, 0.2], [0.5, 0.5], [0.4, 0.4], [0.6, 0.6]]
    )
    sky = MaskSkyline(points)
    assert sky.compute_initial().tolist() == [0, 1, 4]
    assert sky.remove(np.asarray([4])).tolist() == [2]
    assert sky.sky_indices().tolist() == [0, 1, 2]


@pytest.mark.parametrize("kind", CLOUD_KINDS)
def test_removing_the_last_member_repeatedly_matches_recompute(kind):
    rng = np.random.default_rng(5)
    points = cloud(rng, 200, 3, kind)
    sky = MaskSkyline(points)
    members = set(sky.compute_initial().tolist())
    alive = dict(enumerate(points.tolist()))
    while members:
        last = max(members)
        promoted = sky.remove(np.asarray([last])).tolist()
        del alive[last]
        expected = set(naive_skyline(list(alive.items())))
        assert set(promoted) == expected - (members - {last})
        assert len(promoted) == len(set(promoted))
        members = set(sky.sky_indices().tolist())
        assert members == expected


# ---------------------------------------------------------------------------
# Reordering invariance
# ---------------------------------------------------------------------------


@given(
    st.integers(0, 2**32 - 1),
    st.integers(0, 400),
    st.integers(1, 5),
    st.sampled_from(CLOUD_KINDS),
)
@settings(max_examples=40, deadline=None)
def test_pareto_mask_is_invariant_under_row_permutation(seed, n, dims, kind):
    rng = np.random.default_rng(seed)
    points = cloud(rng, n, dims, kind)
    perm = rng.permutation(n)
    assert (pareto_mask(points[perm]) == pareto_mask(points)[perm]).all()


@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 300),
    st.integers(2, 4),
    st.sampled_from(CLOUD_KINDS),
)
@settings(max_examples=30, deadline=None)
def test_mask_skyline_repair_is_invariant_under_row_permutation(seed, n, dims, kind):
    rng = np.random.default_rng(seed)
    points = cloud(rng, n, dims, kind)
    perm = rng.permutation(n)
    position = np.argsort(perm)  # row i of points is row position[i]
    plain, permuted = MaskSkyline(points), MaskSkyline(points[perm])
    plain.compute_initial()
    permuted.compute_initial()
    while True:
        assert (permuted.sky_mask[position] == plain.sky_mask).all()
        members = plain.sky_indices()
        if not members.size:
            break
        take = int(rng.integers(1, min(4, members.size) + 1))
        removed = rng.choice(members, size=take, replace=False)
        plain.remove(removed)
        permuted.remove(position[removed])
