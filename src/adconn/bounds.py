"""Trace and Rayleigh-quotient machinery behind the connectivity bounds:
the vertex-star projection (the stars are the rows of the incidence matrix),
the top-n eigenvalue sum, the 4-point gap witness, and the rank-one circle
form circle_identity_matrices, whose hypotheses Placement.require_centered_unit
checks.

Both the top-n eigenvalue sum and the circle form are computed for many
placements at once: the sum's placements of one shape share, per
spectral.stack_chunks chunk, one framework._stiffness_geometry stack and one
eigensolve, and the circle form of a list of n-point placements is one
(k, 2n, 2n) stack.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .framework import Placement, _stiffness_geometry, edge_lengths
from .graphs import complete_graph
from .spectral import stack_chunks, symmetric_eigenvalues


def vertex_star_projection(n: int) -> np.ndarray:
    """Orthogonal projection of edge space onto the span of all vertex stars.

    Entries depend only on how two edges of K_n intersect: 2/(n-1) on the
    diagonal, (n-3)/((n-1)(n-2)) for edges sharing one vertex, and
    -1/C(n-1, 2) for disjoint edges.  Idempotent, symmetric, trace n.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
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
    placement, against the guaranteed floor n^2/3 + n."""
    return top_eigenvalue_sum_checks([p])[0]


def top_eigenvalue_sum_checks(placements) -> list[TopSumCheck]:
    """top_eigenvalue_sum_check of each placement, in order.

    The placements are grouped by shape (n, d); each group's stiffness
    matrices are assembled as one stack per stack_chunks chunk and solved by
    one symmetric_eigenvalues call, and the top-n sums of the chunk's
    eigenvalues taken by one np.add.reduce, with the same bits as one
    placement at a time.
    """
    placements = list(placements)
    groups: dict[tuple[int, int], list[int]] = {}
    for i, p in enumerate(placements):
        if not p.is_injective():
            raise ValueError("placement must be injective")
        groups.setdefault(p.points.shape, []).append(i)
    checks: list = [None] * len(placements)
    for (n, d), members in groups.items():
        g = complete_graph(n)
        bound = n * n / 3.0 + n
        for chunk in stack_chunks(members, (n * d) ** 2 * 8):  # one float matrix of side dn
            points = np.stack([placements[i].points for i in chunk])
            eigs = symmetric_eigenvalues(_stiffness_geometry(g, points)[0])
            for i, total in zip(chunk, np.add.reduce(eigs[:, -n:], axis=1).tolist()):
                checks[i] = TopSumCheck(total=total, bound=bound)
    return checks


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
    a list of n-point placements, as a (k, 2n, 2n) stack.  It equals the
    stiffness matrix of K_n at an injective unit-circle placement with zero
    sum, where x and y indicate the two coordinates and r is the quarter-turn
    rotation of p.  A placement outside those hypotheses is a ValueError.
    The stack is formed in one pass over all members, each entry by the same
    operations in the same order as for that placement alone."""
    for p in placements:
        if p.d != 2:
            raise ValueError(f"identity requires d=2, got d={p.d}")
        p.require_centered_unit(p.n)
    points = np.stack([p.points for p in placements])
    k, n = points.shape[:2]
    pvec = points.reshape(k, -1)
    x = np.tile([1.0, 0.0], n)
    y = np.tile([0.0, 1.0], n)
    r = np.stack((-points[..., 1], points[..., 0]), axis=-1).reshape(k, -1)
    return (n / 2.0) * np.eye(2 * n) + 0.5 * (
        pvec[:, :, None] * pvec[:, None, :] - np.outer(x, x) - np.outer(y, y) - r[:, :, None] * r[:, None, :]
    )
