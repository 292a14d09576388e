"""Explicit eigenvector families of the edge-basis stiffness matrix.

Each family is a set of combinatorially defined edge vectors that are exact
eigenvectors for the canonical Turán simplex / crosspolytope placements, with
deterministic index sets whose sizes equal the predicted multiplicities, which
each family carries as its expected count.  The two builders fill the families
column of those closedform.CANONICAL rows.  The weighted-length vectors refuse,
through Placement.require_centered_unit, a placement that is not centered unit.
The sufficient-condition checker verifies eigenvector candidates directly
from the entry rule, without an eigensolve, and eigen_residual checks a
whole family, or a set of weighted-length vectors, in one stacked product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .framework import Placement, edge_lengths, lower_stiffness_direct
from .graphs import Graph, TuranPartition, complete_graph, turan_graph


def eigen_residual(M: np.ndarray, vecs: np.ndarray, eigenvalue: float) -> float:
    """Max-norm residual of the eigen relation M v = eigenvalue v for one
    vector v, or the largest over the rows v of a (k, m) stack, 0.0 when
    there are none.  A stack is one product np.matmul(M, vecs[..., None]),
    which numpy forms row by row as M @ v, so each row keeps its bits."""
    if not vecs.size:
        return 0.0
    return float(np.abs(np.matmul(M, vecs[..., None])[..., 0] - eigenvalue * vecs).max())


# ---------------------------------------------------------------------------
# Eigenvectors of K_n frameworks


def weighted_length_vector(p: Placement, f) -> np.ndarray:
    """Edge vector (f_u + f_v) * length(u, v) over the complete graph on p.

    For unit-norm, zero-sum placements with image size >= 3 and any zero-sum
    weight vector f, this is an eigenvector of the edge-basis stiffness matrix
    with eigenvalue n/2.
    """
    return weighted_length_vectors(p, [f])[0]


def weighted_length_vectors(p: Placement, weights) -> np.ndarray:
    """weighted_length_vector(p, f) for each f in weights, as the rows of one
    (k, m) array, with the hypotheses on p checked and the edge lengths of p
    taken once."""
    weights = [np.asarray(f, dtype=float) for f in weights]
    for f in weights:
        if f.shape != (p.n,):
            raise ValueError(f"weights must have shape ({p.n},), got {f.shape}")
    F = np.array(weights).reshape(len(weights), p.n)
    sums = np.add.reduce(F, axis=1)
    off = np.flatnonzero(np.abs(sums) > 1e-12)
    if off.size:
        raise ValueError(f"weights must sum to zero, got {sums[off[0]]:.3e}")
    p.require_centered_unit(3)
    g = complete_graph(p.n)
    lengths = edge_lengths(g, p)
    u, v = g.endpoints.T
    return (F[:, u] + F[:, v]) * lengths


def edge_length_eigenvector(p: Placement) -> np.ndarray:
    """The placed edge lengths of K_n: an eigenvector of the edge-basis
    stiffness matrix with eigenvalue n, for every nonconstant placement."""
    if p.is_constant():
        raise ValueError("placement must not be constant")
    return edge_lengths(complete_graph(p.n), p)


# ---------------------------------------------------------------------------
# Sufficient conditions for an edge vector to be an eigenvector


@dataclass(frozen=True)
class EigenvectorConditionReport:
    """Per-condition outcome of the eigenvector sufficiency check."""

    off_support_cosines_ok: bool
    vertex_sums_ok: bool
    eigen_relation_ok: bool
    max_cosine_spread: float
    max_vertex_sum: float
    max_eigen_residual: float

    @property
    def all_ok(self) -> bool:
        return self.off_support_cosines_ok and self.vertex_sums_ok and self.eigen_relation_ok


def eigenvector_condition_check(
    g: Graph,
    p: Placement,
    vec: np.ndarray,
    eigenvalue: float,
    tol: float = 1e-9,
) -> EigenvectorConditionReport:
    """Check the three conditions under which an edge vector with support S is
    an eigenvector of the edge-basis stiffness matrix:

    1. every off-support edge sees equal cosines toward all its S-neighbors,
    2. the vector sums to zero around every vertex,
    3. on S, the cosine-weighted neighbor sum equals (eigenvalue - 2) * vec.

    Requires every edge to have distinct endpoint images.
    """
    vec = np.asarray(vec, dtype=float)
    if vec.shape != (g.m,):
        raise ValueError(f"vector must have shape ({g.m},), got {vec.shape}")
    if np.any(edge_lengths(g, p) == 0.0):
        raise ValueError("every edge must have distinct endpoint images")
    C = lower_stiffness_direct(g, p)
    B = g.incidence
    shared = B.T @ B
    adjacent = shared == 1.0

    support_tol = 1e-12 * max(1.0, float(np.max(np.abs(vec))) if vec.size else 0.0)
    supp = np.abs(vec) > support_tol

    max_spread = 0.0
    for e in np.flatnonzero(~supp):
        cosines = C[e, supp & adjacent[e]]
        if cosines.size >= 2:
            max_spread = max(max_spread, float(cosines.max() - cosines.min()))

    vertex_sums = B @ vec
    max_vertex_sum = float(np.max(np.abs(vertex_sums))) if vertex_sums.size else 0.0

    # diagonal of C is exactly 2 here, so (C vec - eigenvalue vec) on the
    # support equals the neighbor sum minus (eigenvalue - 2) vec
    resid = C @ vec - eigenvalue * vec
    max_resid = float(np.max(np.abs(resid[supp]))) if supp.any() else 0.0

    return EigenvectorConditionReport(
        off_support_cosines_ok=max_spread <= tol,
        vertex_sums_ok=max_vertex_sum <= tol,
        eigen_relation_ok=max_resid <= tol,
        max_cosine_spread=max_spread,
        max_vertex_sum=max_vertex_sum,
        max_eigen_residual=max_resid,
    )


# ---------------------------------------------------------------------------
# Combinatorial family vectors over a balanced partition


def _part_pair_vector(g: Graph, partition: TuranPartition, signs: dict) -> np.ndarray:
    """Edge vector carrying signs[(a, b)] on every edge between parts a and b, either way round,
    and 0 on the edges between parts that name no pair."""
    table = np.zeros((partition.r, partition.r))
    for (a, b), sign in signs.items():
        table[a, b] = table[b, a] = sign
    parts = np.asarray(partition.part_of)[g.endpoints]
    return table[parts[:, 0], parts[:, 1]]


def part_quad_vector(g: Graph, partition: TuranPartition, quad: tuple[int, int, int, int]) -> np.ndarray:
    """+1 on edges between parts (q1, q2) and (q3, q4), -1 on (q2, q3) and (q1, q4)."""
    q1, q2, q3, q4 = quad
    if len({q1, q2, q3, q4}) != 4:
        raise ValueError(f"quad indices must be distinct, got {quad}")
    signs = {(q1, q2): 1.0, (q3, q4): 1.0, (q2, q3): -1.0, (q1, q4): -1.0}
    return _part_pair_vector(g, partition, signs)


def star_difference_vector(
    g: Graph, partition: TuranPartition, u: int, v: int, j: int, k: int
) -> np.ndarray:
    """Difference of the u- and v-stars into part j, reversed into part k.

    u and v must lie in a common part distinct from parts j != k.
    """
    part_of = partition.part_of
    i = part_of[u]
    if part_of[v] != i or u == v:
        raise ValueError("u and v must be distinct vertices of a common part")
    if j == k or i in (j, k):
        raise ValueError("parts j and k must be distinct and different from the part of u, v")
    B = g.incidence
    in_j, in_k = B[list(partition.parts[j])].sum(axis=0), B[list(partition.parts[k])].sum(axis=0)
    if (B[u] + B[v]) @ (in_j + in_k) != 2 * (len(partition.parts[j]) + len(partition.parts[k])):
        raise ValueError("g must join u and v to every vertex of parts j and k")
    return (B[u] - B[v]) * (in_j - in_k)


@dataclass(frozen=True, eq=False)
class EigenvectorFamily:
    """Stacked family vectors (rows) sharing one eigenvalue, and the predicted count."""

    eigenvalue: float
    vectors: np.ndarray
    expected: int

    @property
    def count(self) -> int:
        return self.vectors.shape[0]


def _family(eigenvalue: float, expected: int, g: Graph, labels: list, vector) -> EigenvectorFamily:
    """The rows vector(label) over labels, shaped (0, m) when labels is empty."""
    vectors = np.array([vector(label) for label in labels]).reshape(len(labels), g.m)
    return EigenvectorFamily(eigenvalue, vectors, expected)


def turan_simplex_families(n: int, d: int) -> tuple[EigenvectorFamily, ...]:
    """The quad and star-difference families: deterministic index sets
    realizing the two nontrivial multiplicities of the simplex placement of
    the balanced (d+1)-partite graph.  Quads need four distinct parts, so they
    are empty for d < 3."""
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    g, partition = turan_graph(n, d + 1)
    r = d + 1

    quad_labels: list[tuple[int, int, int, int]] = []
    for k in range(3, r):
        quad_labels.append((0, 1, 2, k))
        quad_labels.append((0, 2, 1, k))
    for j in range(3, r):
        for k in range(j + 1, r):
            quad_labels.append((1, 2, j, k))

    star_labels: list[tuple[int, int, int, int]] = []
    for i in range(r):
        anchor = partition.parts[i][0]
        j_i = 0 if i != 0 else 1
        for v in partition.parts[i][1:]:
            for k in range(r):
                if k not in (i, j_i):
                    star_labels.append((anchor, v, j_i, k))

    return (
        _family(n / (d + 1), (d - 2) * (d + 1) // 2, g, quad_labels, lambda q: part_quad_vector(g, partition, q)),
        _family(
            n / (2 * (d + 1)),
            (n - d - 1) * (d - 1),
            g,
            star_labels,
            lambda s: star_difference_vector(g, partition, *s),
        ),
    )


# ---------------------------------------------------------------------------
# Crosspolytope families: parts are (axis, sign) blocks, part index 2*axis + (sign < 0)


def _axis_parts(axis: int) -> tuple[int, int]:
    return 2 * axis, 2 * axis + 1


def axis_quad_vector(g: Graph, partition: TuranPartition, i: int, j: int) -> np.ndarray:
    """+1 between equal-sign blocks of axes i and j, -1 between opposite-sign blocks."""
    ip, im = _axis_parts(i)
    jp, jm = _axis_parts(j)
    return part_quad_vector(g, partition, (ip, jp, im, jm))


def block_sign_vector(g: Graph, partition: TuranPartition, i: int, j: int) -> np.ndarray:
    """+1 on edges from axis i into the positive block of axis j, -1 into the negative."""
    if i == j:
        raise ValueError("axes must be distinct")
    ip, im = _axis_parts(i)
    jp, jm = _axis_parts(j)
    signs = {(ip, jp): 1.0, (im, jp): 1.0, (ip, jm): -1.0, (im, jm): -1.0}
    return _part_pair_vector(g, partition, signs)


def sign_split_vector(g: Graph, partition: TuranPartition, i: int, j: int, k: int) -> np.ndarray:
    """Difference of two block sign vectors into axis j, sourced at axes i and k."""
    if len({i, j, k}) != 3:
        raise ValueError(f"axes must be distinct, got {(i, j, k)}")
    return block_sign_vector(g, partition, i, j) - block_sign_vector(g, partition, k, j)


def vertex_shift_vector(g: Graph, partition: TuranPartition, u: int, v: int, j: int) -> np.ndarray:
    """Star difference of two same-block vertices into axis j, sign-split by block.

    +1 on u-edges and -1 on v-edges into the positive block of axis j, reversed
    into the negative block.
    """
    return star_difference_vector(g, partition, u, v, *_axis_parts(j))


def crosspolytope_families(n: int, d: int) -> tuple[EigenvectorFamily, ...]:
    """The axis-quad, sign-split and vertex-shift families: deterministic index
    sets realizing the two nontrivial multiplicities of the crosspolytope
    placement; sign splits and vertex shifts are jointly independent and
    share the eigenvalue n/(2d)."""
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    g, partition = turan_graph(n, 2 * d)

    quad_labels = [(i, j) for i in range(d) for j in range(i + 1, d)]

    split_labels = []
    for j in range(d):
        i_j = 0 if j != 0 else 1
        for k in range(d):
            if k not in (j, i_j):
                split_labels.append((i_j, j, k))

    shift_labels = []
    for part, members in enumerate(partition.parts):
        axis = part // 2
        anchor = members[0]
        for j in range(d):
            if j != axis:
                for v in members[1:]:
                    shift_labels.append((anchor, v, j))

    return (
        _family(n / d, d * (d - 1) // 2, g, quad_labels, lambda lab: axis_quad_vector(g, partition, *lab)),
        _family(n / (2 * d), d * (d - 2), g, split_labels, lambda lab: sign_split_vector(g, partition, *lab)),
        _family(
            n / (2 * d),
            2 * d * (d - 1) * (n // (2 * d) - 1),
            g,
            shift_labels,
            lambda lab: vertex_shift_vector(g, partition, *lab),
        ),
    )
