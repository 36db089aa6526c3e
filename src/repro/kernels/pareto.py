"""Batch dominance tests and Pareto (skyline) filtering, bit-sliced.

Dominance follows the paper's Section 2.2 exactly (see
:func:`repro.rtree.geometry.dominates`): ``p`` dominates ``q`` iff
``p >= q`` in every dimension and the points do not coincide —
coincident duplicates never dominate each other, so they are all
skyline members.  The scalar oracle is
:func:`repro.skyline.reference.naive_skyline`; the hypothesis suite
checks these kernels against it on mixed-sign coordinates, exact
float ties, signed zeros and duplicate points.

**Rank encoding.**  :func:`dense_ranks` replaces every coordinate by
its dense rank within its column: equal floats share a rank and a
larger float gets a larger rank.  The step between two sorted
neighbours is float ``!=``, so ``-0.0`` and ``0.0`` (which compare
equal) share a rank, and coincident points share their whole rank
vector.  Dominance then reads off integers with no tolerance:
``w >= p`` is ``rank(w) >= rank(p)`` and ``w > p`` is
``rank(w) >= rank(p) + 1``.  Ranks compare only within one encoded
matrix: the float entry points (:func:`pareto_mask`,
:func:`dominated_mask`, :func:`dominator_index`) encode candidates
and dominators jointly, and
:class:`~repro.kernels.skyline.MaskSkyline` encodes its point matrix
once and hands row subsets of it to the ``rank_*`` kernels.

**Bit slices.**  Sorting a dominator set's ranks in one dimension
turns "dominators with rank ``>= t``" into a suffix of the sorted
order.  :func:`_chunk_tables` packs every suffix as a ``uint64``
bitset over the dominator *rows* (row ``j`` is bit ``j % 64`` of word
``j // 64``).  One ``searchsorted`` per dimension finds a candidate's
``>=`` suffix (its left insertion point); the ``>`` suffix starts
there too, or past the run of dominators that tie the candidate.  A
candidate is dominated iff

    (AND over D of the ``>=`` words) & (OR over D of the ``>`` words)

has a bit set: ``>=`` everywhere and ``>`` somewhere, which for
``>=``-everywhere vectors is the same as "does not coincide".  Exact
ties are ``>=`` but not ``>``, so duplicates never dominate each
other.  The lowest set bit is the first dominator in row order,
which is the witness :func:`dominator_index` reports.

**Transitivity.**  :func:`sky_order` visits rows by descending rank
sum; a dominator is ``>=`` everywhere and ``>`` somewhere in integer
ranks, so its sum is strictly larger and it is visited strictly
earlier.  If a row is dominated at all, a skyline member dominates
it (follow dominators upward; the order is finite), and that member
sits either in an earlier block — already accepted — or in the row's
own block.  So :func:`rank_pareto` needs per block of :data:`BLOCK`
rows just one test against the accepted members and one test of the
block's remaining rows against each other, with no sequential pass.
It also returns a member witness per non-member: the member hit, or
the first in-block dominator in visiting order, which is itself new.

**Word budget.**  :data:`WORD_BUDGET` bounds each transient packed
array: dominators are cut into chunks whose ``D`` suffix tables fit
it together, and candidates into blocks whose ``block × chunk`` word
plane fits it.  Chunks are visited in row order, so the first chunk
with a hit holds the first dominator.
"""

from __future__ import annotations

import math

import numpy as np

#: Size bound of one transient packed array, in ``uint64`` words
#: (512 KiB): a dominator chunk's suffix tables, or one
#: ``candidates × chunk`` word plane.
WORD_BUDGET = 1 << 16

#: Rows per :func:`rank_pareto` block.
BLOCK = 1024

_ONE = np.uint64(1)


def dense_ranks(points: np.ndarray) -> np.ndarray:
    """Per-column dense ranks of an ``n × D`` float matrix.

    ``ranks[i, d] < ranks[j, d]`` iff ``points[i, d] < points[j, d]``;
    equal values (``-0.0`` and ``0.0`` included) share a rank.
    """
    # Any sort works: ties get one rank whatever their order.
    order = np.argsort(points, axis=0)
    ordered = np.take_along_axis(points, order, axis=0)
    steps = np.zeros(points.shape, dtype=np.intp)
    steps[1:] = ordered[1:] != ordered[:-1]
    np.cumsum(steps, axis=0, out=steps)
    ranks = np.empty_like(steps)
    np.put_along_axis(ranks, order, steps, axis=0)
    return ranks


def _chunk_rows(dims: int) -> int:
    """Dominator rows per chunk: ``dims`` suffix tables of about
    ``64·w × w`` words (``w`` words per bitset) fit :data:`WORD_BUDGET`."""
    return 64 * max(1, math.isqrt(WORD_BUDGET // (64 * max(1, dims))))


#: One dominator chunk's ``(sorted_ranks, above, tables)``; see
#: :func:`_chunk_tables`.
_Chunk = tuple[np.ndarray, np.ndarray, np.ndarray]


def _chunk_tables(dominators: np.ndarray) -> _Chunk:
    """Sorted ranks, tie runs and packed suffix bitsets of one chunk.

    Per dimension ``d`` of an ``m``-row chunk: ``sorted_ranks[d]`` is
    the ranks in ascending order plus a ``-1`` sentinel;
    ``above[d, k]`` is the first sorted position whose rank exceeds
    position ``k``'s (the end of its run of ties); ``tables[d, k]``
    packs the rows at sorted positions ``>= k``, and ``tables[d, m]``
    is empty.
    """
    m, dims = dominators.shape
    columns = dominators.T
    order = np.argsort(columns, axis=1)
    dim = np.arange(dims)[:, None]
    sorted_ranks = np.full((dims, m + 1), -1, dtype=np.intp)
    sorted_ranks[:, :m] = columns[dim, order]
    above = np.full((dims, m + 1), m, dtype=np.intp)
    for d in range(dims):
        row = sorted_ranks[d, :m]
        above[d, :m] = row.searchsorted(row, "right")
    tables = np.zeros((dims, m + 1, (m + 63) >> 6), dtype=np.uint64)
    bits = _ONE << (order & 63).astype(np.uint64)
    tables[dim, np.arange(m), order >> 6] = bits
    tables = np.bitwise_or.accumulate(tables[:, ::-1], axis=1)[:, ::-1]
    return sorted_ranks, above, tables


def _suffixes(
    candidates: np.ndarray, chunk: _Chunk, d: int
) -> tuple[np.ndarray, np.ndarray]:
    """Dimension ``d``'s ``>=`` and ``>`` words of every candidate.

    The ``>=`` suffix starts at the candidate's left insertion point;
    so does the ``>`` suffix, unless a dominator ties the candidate,
    in which case it starts past that run of ties.
    """
    sorted_ranks, above, tables = chunk
    ranks, col = candidates[d], sorted_ranks[d]
    start = col[:-1].searchsorted(ranks, "left")
    past = np.where(col[start] == ranks, above[d, start], start)
    return tables[d].take(start, axis=0), tables[d].take(past, axis=0)


def _hit_words(candidates: np.ndarray, chunk: _Chunk) -> np.ndarray:
    """Packed ``candidates × chunk`` plane: bit ``j`` of row ``i`` is
    set iff chunk row ``j`` dominates candidate ``i``.  ``candidates``
    is ``D × rows`` (one rank column per dimension)."""
    all_ge, any_gt = _suffixes(candidates, chunk, 0)
    for d in range(1, candidates.shape[0]):
        ge, gt = _suffixes(candidates, chunk, d)
        all_ge &= ge
        any_gt |= gt
    all_ge &= any_gt
    return all_ge


def _first_bits(words: np.ndarray) -> np.ndarray:
    """Index of the lowest set bit of each row's packed words, or -1."""
    nonzero = words != 0
    word = nonzero.argmax(axis=1)
    low = words[np.arange(words.shape[0]), word]
    low &= ~low + _ONE
    # A power of two converts to float64 exactly, so frexp is exact.
    bit = np.frexp(low.astype(np.float64))[1] - 1
    return np.where(nonzero.any(axis=1), 64 * word + bit, -1)


def rank_dominator_index(candidates: np.ndarray, dominators: np.ndarray) -> np.ndarray:
    """:func:`dominator_index` over rank rows of one encoded matrix."""
    out = np.full(candidates.shape[0], -1, dtype=np.intp)
    step = _chunk_rows(candidates.shape[1])
    columns = np.ascontiguousarray(candidates.T)
    for start in range(0, dominators.shape[0], step):
        open_rows = np.nonzero(out < 0)[0]
        if not open_rows.size:
            break
        chunk = _chunk_tables(dominators[start : start + step])
        block = max(1, WORD_BUDGET // chunk[2].shape[2])
        for lo in range(0, open_rows.size, block):
            rows = open_rows[lo : lo + block]
            first = _first_bits(_hit_words(columns[:, rows], chunk))
            found = first >= 0
            out[rows[found]] = start + first[found]
    return out


def sky_order(ranks: np.ndarray) -> np.ndarray:
    """Row indices by descending rank sum (stable on ties): every
    dominator comes strictly before the rows it dominates."""
    return np.argsort(-ranks.sum(axis=1), kind="stable")


def rank_pareto(ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Skyline mask of a rank matrix, with a member witness per row.

    ``witness[i]`` is a skyline member row dominating row ``i``, or
    ``-1`` for members.  One blocked pass in :func:`sky_order`; see
    the module docstring for why two tests per block are exact.
    """
    n = ranks.shape[0]
    mask = np.zeros(n, dtype=bool)
    witness = np.full(n, -1, dtype=np.intp)
    members = np.empty(n, dtype=np.intp)
    count = 0
    order = sky_order(ranks)
    for start in range(0, n, BLOCK):
        idx = order[start : start + BLOCK]
        # Rows an accepted member dominates.
        earlier = rank_dominator_index(ranks[idx], ranks[members[:count]])
        hit = earlier >= 0
        witness[idx[hit]] = members[earlier[hit]]
        # Rows a row of their own block dominates.  Such a dominator
        # is not dominated by an accepted member either (it would pass
        # that on by transitivity), so the open rows suffice.
        open_idx = idx[~hit]
        inner = rank_dominator_index(ranks[open_idx], ranks[open_idx])
        fresh = inner < 0
        fresh_idx = open_idx[fresh]
        mask[fresh_idx] = True
        members[count : count + fresh_idx.size] = fresh_idx
        count += fresh_idx.size
        # The first in-block dominator (in visiting order) is fresh:
        # whatever dominated it would dominate this row too and be
        # visited earlier.
        witness[open_idx[~fresh]] = open_idx[inner[~fresh]]
    return mask, witness


def _joint_ranks(
    points: np.ndarray, dominators: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    ranks = dense_ranks(np.concatenate([points, dominators]))
    return ranks[: points.shape[0]], ranks[points.shape[0] :]


def dominated_mask(points: np.ndarray, dominators: np.ndarray) -> np.ndarray:
    """``mask[i]`` — is ``points[i]`` dominated by any dominator row?"""
    return dominator_index(points, dominators) >= 0


def dominator_index(points: np.ndarray, dominators: np.ndarray) -> np.ndarray:
    """Index of the first dominating row per point, or ``-1`` if none.

    Over ranks (:func:`rank_dominator_index`) the same witness backs
    the reference-dominator bookkeeping of
    :class:`~repro.kernels.skyline.MaskSkyline`: which dominator is
    reported does not matter there, only that it currently dominates
    the point.
    """
    return rank_dominator_index(*_joint_ranks(points, dominators))


def pareto_mask(points: np.ndarray) -> np.ndarray:
    """Skyline membership mask of an ``n × D`` coordinate matrix."""
    return rank_pareto(dense_ranks(points))[0]
