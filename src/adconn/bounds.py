"""Trace and Rayleigh-quotient machinery behind the connectivity bounds:
the vertex-star projection (the stars are the rows of the incidence matrix),
the top-n eigenvalue sum, the 4-point gap witness, and the rank-one circle
form circle_identity_matrices, whose hypotheses framework.require_centered_unit
checks.

Both the top-n eigenvalue sum and the circle form are computed for many
placements at once, and their hypotheses checked on stacks, not placement by
placement.  top_eigenvalue_sums takes a bare (k, n, d) stack of points: per
spectral.stack_chunks chunk, one framework._stiffness_geometry stack, whose
edge lengths show a repeated point, and one unchecked eigvalsh call;
top_eigenvalue_sum_checks hands it the placements of each shape as one
stack, and verify's kyfan sweep its draw records of each shape.  The circle
form of a list of n-point placements is one (k, 2n, 2n) stack, whose
hypotheses one framework.require_centered_unit call checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .framework import Placement, _stiffness_geometry, edge_lengths, require_centered_unit, stack_member_bytes
from .graphs import complete_graph
from .seeding import as_count
from .spectral import stack_chunks


def vertex_star_projection(n: int) -> np.ndarray:
    """Orthogonal projection of edge space onto the span of all vertex stars.

    Entries depend only on how two edges of K_n intersect: 2/(n-1) on the
    diagonal, (n-3)/((n-1)(n-2)) for edges sharing one vertex, and
    -1/C(n-1, 2) for disjoint edges.  Idempotent, symmetric, trace n.
    """
    n = as_count(n, "n", 3)
    B = complete_graph(n).incidence
    adj = (n - 3) / ((n - 1) * (n - 2))
    disj = -1.0 / math.comb(n - 1, 2)
    P = np.where(B.T @ B == 1.0, adj, disj)  # B^t B counts the vertices two edges share
    np.fill_diagonal(P, 2.0 / (n - 1))
    return P


@dataclass(frozen=True)
class TopSumCheck:
    total: float
    bound: float

    @property
    def margin(self) -> float:
        return self.total - self.bound


def top_eigenvalue_sum_check(p: Placement) -> TopSumCheck:
    """Sum of the n largest stiffness eigenvalues of K_n at an injective
    placement of n >= 3 points, against the guaranteed floor n^2/3 + n."""
    return top_eigenvalue_sum_checks([p])[0]


def top_eigenvalue_sum_checks(placements) -> list[TopSumCheck]:
    """top_eigenvalue_sum_check of each placement, in order: the placements
    of each shape (n, d) as one top_eigenvalue_sums stack, with the same bits
    as one placement at a time.  A placement of fewer than 3 points, or one
    with a repeated point, is refused: the first in order, for the first of
    the two, before any stack is solved when a placement has fewer than 3
    points, and otherwise as top_eigenvalue_sums refuses its stack.
    """
    placements = list(placements)
    few = next((i for i, p in enumerate(placements) if p.n < 3), len(placements))
    if few < len(placements):
        if not all(p.is_injective() for p in placements[:few]):
            raise ValueError("placement must be injective")
        as_count(placements[few].n, "n", 3)  # the floor holds from 3 points on
    groups: dict[tuple[int, int], list[int]] = {}
    for i, p in enumerate(placements):
        groups.setdefault(p.points.shape, []).append(i)
    checks: list = [None] * len(placements)
    for (n, _), members in groups.items():
        bound = n * n / 3.0 + n
        totals = top_eigenvalue_sums(np.array([placements[i].points for i in members]))
        for i, total in zip(members, totals.tolist()):
            checks[i] = TopSumCheck(total=total, bound=bound)
    return checks


def top_eigenvalue_sums(points) -> np.ndarray:
    """The sum of the n largest stiffness eigenvalues of K_n at each
    placement of a (k, n, d) stack of finite, injective placements of n >= 3
    points, with the bits of top_eigenvalue_sum_check of that placement
    alone.  The stack's stiffness matrices are assembled in stack_chunks
    chunks, one framework._stiffness_geometry call each, solved by one
    np.linalg.eigvalsh call and summed by one np.add.reduce.  Fewer than 3
    points are refused first, then a non-finite coordinate anywhere in the
    stack (one reduction), then a repeated point, found as an edge of length
    0 in a chunk's assembly (framework._edge_geometry gives length 0 to
    exactly the edges whose endpoints coincide) before that chunk is solved.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 3:
        raise ValueError(f"points must be a (k, n, d) stack of placements, got shape {points.shape}")
    k, n, d = points.shape
    as_count(n, "n", 3)  # the floor holds from 3 points on
    if not np.logical_and.reduce(np.isfinite(points), axis=None):
        raise ValueError("points must be finite")
    g = complete_graph(n)
    sums = np.empty(k)
    for chunk in stack_chunks(range(k), stack_member_bytes(g, d)):
        # the matrices and edge lengths; the edge directions are freed here
        L, lengths = _stiffness_geometry(g, points[chunk.start:chunk.stop])[::2]
        if np.logical_or.reduce(lengths == 0.0, axis=None):
            raise ValueError("placement must be injective")
        sums[chunk.start:chunk.stop] = np.add.reduce(np.linalg.eigvalsh(L)[:, -n:], axis=1)
        del L  # before the next chunk is assembled
    return sums


# the three pairings of K_4 into opposite edges, as positions in its canonical
# edge order (0,1), (0,2), (0,3), (1,2), (1,3), (2,3)
_OPPOSITE_PAIRINGS = ((0, 5), (1, 4), (2, 3))


def k4_gap_upper_bound(p: Placement) -> float:
    """Rayleigh-quotient witness bounding the spectral gap of a 4-point
    framework in R^3.

    Over the three pairings of K_4 into opposite edges, the pairing with the
    smallest squared-length sum is dropped and the signed-lengths vector on the
    other two pairings gives a quotient that always lies in [gap, 1].
    """
    if p.n != 4 or p.d != 3:
        raise ValueError(f"need 4 points in R^3, got n={p.n}, d={p.d}")
    if not p.is_injective():
        raise ValueError("placement must be injective")
    # lengths relative to the longest edge, so that their squares neither
    # overflow nor underflow to zero whatever the scale of the placement
    lengths = edge_lengths(complete_graph(4), p)
    lengths = lengths / lengths.max()
    sq = {pair: float(lengths[pair[0]] ** 2 + lengths[pair[1]] ** 2) for pair in _OPPOSITE_PAIRINGS}
    dropped = min(_OPPOSITE_PAIRINGS, key=lambda pair: (sq[pair], pair))
    others = [pair for pair in _OPPOSITE_PAIRINGS if pair != dropped]
    return 2.0 * sq[dropped] / (sq[others[0]] + sq[others[1]])


def circle_identity_matrices(placements) -> np.ndarray:
    """(n/2) I + (p p^t - x x^t - y y^t - r r^t) / 2 for each placement p of
    a nonempty list of n-point placements, as a (k, 2n, 2n) stack.  It equals
    the stiffness matrix of K_n at an injective unit-circle placement with
    zero sum, where x and y indicate the two coordinates and r is the
    quarter-turn rotation of p.  A placement outside those hypotheses is a
    ValueError: the first one in order, for the first hypothesis it fails,
    d = 2 before those of framework.require_centered_unit, which checks all
    the placements in R^2 before it at once.  The stack is formed in one pass
    over all members, each entry by the same operations in the same order as
    for that placement alone."""
    placements = list(placements)
    if not placements:
        raise ValueError("circle_identity_matrices needs at least one placement, got none")
    planar = next((i for i, p in enumerate(placements) if p.d != 2), len(placements))
    require_centered_unit(placements[:planar])
    if planar < len(placements):
        raise ValueError(f"identity requires d=2, got d={placements[planar].d}")
    points = np.stack([p.points for p in placements])
    k, n = points.shape[:2]
    pvec = points.reshape(k, -1)
    x = np.tile([1.0, 0.0], n)
    y = np.tile([0.0, 1.0], n)
    r = np.stack((-points[..., 1], points[..., 0]), axis=-1).reshape(k, -1)
    return (n / 2.0) * np.eye(2 * n) + 0.5 * (
        pvec[:, :, None] * pvec[:, None, :] - np.outer(x, x) - np.outer(y, y) - r[:, :, None] * r[:, None, :]
    )
