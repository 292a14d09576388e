"""Trace and Rayleigh-quotient machinery behind the connectivity bounds:
the vertex-star projection, the top-n eigenvalue sum, triangle cosine sums,
the 4-point gap witness, and the planar rank-one stiffness identity.

The top-n eigenvalue sum is checked for many placements at once: those of one
shape share one stacked assembly and one eigensolve (top_eigenvalue_sum_checks).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .framework import Placement, _edge_geometry, _rigidity_from_directions, stiffness
from .graphs import Graph, complete_graph
from .spectral import symmetric_eigenvalues


def vertex_star_vector(n: int, i: int) -> np.ndarray:
    """Indicator over the edges of K_n of the star at vertex i."""
    if not 0 <= i < n:
        raise ValueError(f"vertex {i} out of range 0..{n - 1}")
    return complete_graph(n).incidence[i].copy()


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
    matrices R R^t are assembled as one stack and solved by one
    symmetric_eigenvalues call, with the same bits as one placement at a time.
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
        points = np.stack([placements[i].points for i in members])
        eigs = symmetric_eigenvalues(_stiffness_stack(g, points))
        bound = n * n / 3.0 + n
        for i, row in zip(members, eigs):
            checks[i] = TopSumCheck(total=float(np.sum(row[-n:])), bound=bound)
    return checks


def _stiffness_stack(g: Graph, points: np.ndarray) -> np.ndarray:
    """R R^t of each placement of a (k, n, d) stack, as a (k, dn, dn) array;
    the stack of rigidity matrices is freed before the caller's eigensolve."""
    R = _rigidity_from_directions(g, _edge_geometry(g, points)[0])
    return R @ R.swapaxes(-1, -2)


def triangle_cosine_sum(p: Placement, i: int, j: int, k: int) -> float:
    """Sum of the cosines of the three angles of the (possibly flat) placed
    triangle i, j, k; always at least 1."""
    if len({i, j, k}) != 3:
        raise ValueError(f"vertices must be distinct, got {(i, j, k)}")
    pts = p.points
    for a, b in ((i, j), (i, k), (j, k)):
        if np.all(pts[a] == pts[b]):
            raise ValueError(f"points of vertices {a} and {b} coincide")

    def cos_at(apex, x, y):
        ax = pts[x] - pts[apex]
        ay = pts[y] - pts[apex]
        return float(ax @ ay) / (np.linalg.norm(ax) * np.linalg.norm(ay))

    return cos_at(i, j, k) + cos_at(j, i, k) + cos_at(k, i, j)


_OPPOSITE_PAIRINGS = (((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))


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
    sq = {}
    for pair in _OPPOSITE_PAIRINGS:
        (a, b), (c, e) = pair
        sq[pair] = float(
            np.sum((p.points[a] - p.points[b]) ** 2) + np.sum((p.points[c] - p.points[e]) ** 2)
        )
    dropped = min(_OPPOSITE_PAIRINGS, key=lambda pair: (sq[pair], pair))
    others = [pair for pair in _OPPOSITE_PAIRINGS if pair != dropped]
    return 2.0 * sq[dropped] / (sq[others[0]] + sq[others[1]])


def circle_identity_residual(p: Placement) -> float:
    """Max-norm residual of the planar rank-one identity
    L = (n/2) I + (p p^t - x x^t - y y^t - r r^t) / 2
    for injective unit-circle placements with zero sum, where x and y indicate
    the two coordinates and r is the quarter-turn rotation of p."""
    if p.d != 2:
        raise ValueError(f"identity requires d=2, got d={p.d}")
    norms = np.linalg.norm(p.points, axis=1)
    if np.max(np.abs(norms - 1.0)) > 1e-9:
        raise ValueError("hypothesis violated: points must have unit norm")
    if np.linalg.norm(p.points.sum(axis=0)) > 1e-9:
        raise ValueError("hypothesis violated: points must sum to zero")
    if not p.is_injective():
        raise ValueError("hypothesis violated: placement must be injective")
    n = p.n
    L = stiffness(complete_graph(n), p)
    pvec = p.points.reshape(-1)
    x = np.tile([1.0, 0.0], n)
    y = np.tile([0.0, 1.0], n)
    r = np.column_stack([-p.points[:, 1], p.points[:, 0]]).reshape(-1)
    M = (n / 2.0) * np.eye(2 * n) + 0.5 * (
        np.outer(pvec, pvec) - np.outer(x, x) - np.outer(y, y) - np.outer(r, r)
    )
    return float(np.max(np.abs(L - M)))
