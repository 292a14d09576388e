"""Explicit eigenvector families of the edge-basis stiffness matrix.

Each family is a set of combinatorially defined edge vectors that are exact
eigenvectors for the canonical Turán simplex / crosspolytope placements, with
deterministic index sets whose sizes equal the predicted multiplicities, which
each family carries as its expected count.  The two builders fill the families
column of those closedform.CANONICAL rows, each family with one batched
builder (part_quad_vectors, star_difference_vectors, sign_split_vectors): one
array expression over all of the family's labels, described above the
combinatorial builders below.  The one-label builders are one-row calls of
them.  The weighted-length vectors refuse, through
framework.require_centered_unit, a placement that is not centered unit.
The sufficient-condition checker verifies eigenvector candidates directly
from the entry rule, without an eigensolve, and eigen_residual checks a
whole family, or a set of weighted-length vectors, in one stacked product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .framework import Placement, edge_lengths, lower_stiffness_direct, require_centered_unit
from .graphs import Graph, TuranPartition, complete_graph, turan_graph
from .seeding import as_count


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
    require_centered_unit([p], 3)
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
#
# A family is built as one array expression over its labels.  A quad, block
# sign or sign split vector carries a sign on the edges between two parts:
# one (k, r, r) stack of sign tables, a table per label, is read at the parts
# of every edge's endpoints.  A star difference takes its rows of the
# incidence matrix and of the (r, m) matrix whose row a counts each edge's
# endpoints in part a.  Every entry is a small integer formed by the same
# operations as for one label alone, so a row has the bits of the one-label
# builder, signed zeros included; the one-label builders are one-row calls of
# the batched ones.


def _labels(labels, width: int) -> np.ndarray:
    """labels as a (k, width) index array; no labels give shape (0, width)."""
    return np.asarray(labels, dtype=np.intp).reshape(-1, width)


def _part_pair_vectors(g: Graph, partition: TuranPartition, k: int, signs) -> np.ndarray:
    """The (k, m) edge vectors whose row s carries sign on every edge between
    parts a[s] and b[s], either way round, for each (a, b, sign) of signs, and
    0 on the edges between parts that no pair names: one lookup in a stack of
    k sign tables, written in the order of signs."""
    tables = np.zeros((k, partition.r, partition.r))
    rows = np.arange(k)
    for a, b, sign in signs:
        tables[rows, a, b] = tables[rows, b, a] = sign
    parts = np.asarray(partition.part_of)[g.endpoints]
    return tables[:, parts[:, 0], parts[:, 1]]


def part_quad_vectors(g: Graph, partition: TuranPartition, quads) -> np.ndarray:
    """part_quad_vector of each quad, as the rows of one (k, m) array.  The
    first quad whose indices repeat is refused."""
    q = _labels(quads, 4)
    ordered = np.sort(q, axis=1)
    repeats = np.flatnonzero((ordered[:, 1:] == ordered[:, :-1]).any(axis=1))
    if repeats.size:
        raise ValueError(f"quad indices must be distinct, got {tuple(q[repeats[0]].tolist())}")
    q1, q2, q3, q4 = q.T
    return _part_pair_vectors(g, partition, len(q), [(q1, q2, 1.0), (q3, q4, 1.0), (q2, q3, -1.0), (q1, q4, -1.0)])


def part_quad_vector(g: Graph, partition: TuranPartition, quad: tuple[int, int, int, int]) -> np.ndarray:
    """+1 on edges between parts (q1, q2) and (q3, q4), -1 on (q2, q3) and (q1, q4)."""
    return part_quad_vectors(g, partition, [quad])[0]


def star_difference_vectors(g: Graph, partition: TuranPartition, labels) -> np.ndarray:
    """star_difference_vector of each label (u, v, j, k), as the rows of one
    (k, m) array: (B[u] - B[v]) * (E[j] - E[k]), with B the incidence matrix
    of g and E[a] the count of each edge's endpoints in part a.  The first
    label that breaks a hypothesis is refused, with the message of the first
    hypothesis it breaks."""
    labels = _labels(labels, 4)
    u, v, j, k = labels.T
    part_of = np.asarray(partition.part_of)
    i = part_of[u]
    common = (part_of[v] == i) & (u != v)
    broken = np.flatnonzero(~common | (j == k) | (j == i) | (k == i))
    valid = broken[0] if broken.size else len(labels)  # the labels before it pass both part rules
    parts = part_of[g.endpoints]
    # (r, m): row a counts the endpoints of each edge that lie in part a
    into = np.add.reduce(parts.T[:, None] == np.arange(partition.r)[:, None], axis=0, dtype=float)
    B = g.incidence
    reached = np.add.reduce((B[u[:valid]] + B[v[:valid]]) * (into[j[:valid]] + into[k[:valid]]), axis=1)
    if np.any(reached != 4 * (partition.n // partition.r)):  # u and v each joined to both parts
        raise ValueError("g must join u and v to every vertex of parts j and k")
    if broken.size and not common[valid]:
        raise ValueError("u and v must be distinct vertices of a common part")
    if broken.size:
        raise ValueError("parts j and k must be distinct and different from the part of u, v")
    return (B[u] - B[v]) * (into[j] - into[k])


def star_difference_vector(
    g: Graph, partition: TuranPartition, u: int, v: int, j: int, k: int
) -> np.ndarray:
    """Difference of the u- and v-stars into part j, reversed into part k.

    u and v must lie in a common part distinct from parts j != k, and g must
    join each of them to every vertex of parts j and k.
    """
    return star_difference_vectors(g, partition, [(u, v, j, k)])[0]


@dataclass(frozen=True, eq=False)
class EigenvectorFamily:
    """Stacked family vectors (rows) sharing one eigenvalue, and the predicted count."""

    eigenvalue: float
    vectors: np.ndarray
    expected: int

    @property
    def count(self) -> int:
        return self.vectors.shape[0]


def turan_simplex_families(n: int, d: int) -> tuple[EigenvectorFamily, ...]:
    """The quad and star-difference families: deterministic index sets
    realizing the two nontrivial multiplicities of the simplex placement of
    the balanced (d+1)-partite graph, each family built by one batched
    builder.  Quads need four distinct parts, so they are empty for d < 3."""
    d = as_count(d, "d", 2)
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
        EigenvectorFamily(n / (d + 1), part_quad_vectors(g, partition, quad_labels), (d - 2) * (d + 1) // 2),
        EigenvectorFamily(
            n / (2 * (d + 1)), star_difference_vectors(g, partition, star_labels), (n - d - 1) * (d - 1)
        ),
    )


# ---------------------------------------------------------------------------
# Crosspolytope families: parts are (axis, sign) blocks, part index 2*axis + (sign < 0)


def _axis_parts(axis):
    """The positive and negative blocks of an axis, or of an array of axes."""
    return 2 * axis, 2 * axis + 1


def _block_signs(i, j, sign: float) -> list:
    """The sign-table pairs of sign times block_sign_vector(i, j)."""
    ip, im = _axis_parts(i)
    jp, jm = _axis_parts(j)
    return [(ip, jp, sign), (im, jp, sign), (ip, jm, -sign), (im, jm, -sign)]


def axis_quad_vector(g: Graph, partition: TuranPartition, i: int, j: int) -> np.ndarray:
    """+1 between equal-sign blocks of axes i and j, -1 between opposite-sign blocks."""
    ip, im = _axis_parts(i)
    jp, jm = _axis_parts(j)
    return part_quad_vector(g, partition, (ip, jp, im, jm))


def block_sign_vector(g: Graph, partition: TuranPartition, i: int, j: int) -> np.ndarray:
    """+1 on edges from axis i into the positive block of axis j, -1 into the negative."""
    if i == j:
        raise ValueError("axes must be distinct")
    return _part_pair_vectors(g, partition, 1, _block_signs(i, j, 1.0))[0]


def sign_split_vectors(g: Graph, partition: TuranPartition, labels) -> np.ndarray:
    """sign_split_vector of each label (i, j, k), as the rows of one (k, m)
    array from one sign-table lookup: the block signs from axis i into axis
    j, and their negatives from axis k.  The first label whose axes repeat is
    refused."""
    labels = _labels(labels, 3)
    i, j, k = labels.T
    repeats = np.flatnonzero((i == j) | (j == k) | (i == k))
    if repeats.size:
        raise ValueError(f"axes must be distinct, got {tuple(labels[repeats[0]].tolist())}")
    return _part_pair_vectors(g, partition, len(labels), _block_signs(i, j, 1.0) + _block_signs(k, j, -1.0))


def sign_split_vector(g: Graph, partition: TuranPartition, i: int, j: int, k: int) -> np.ndarray:
    """Difference of two block sign vectors into axis j, sourced at axes i and k."""
    return sign_split_vectors(g, partition, [(i, j, k)])[0]


def vertex_shift_vector(g: Graph, partition: TuranPartition, u: int, v: int, j: int) -> np.ndarray:
    """Star difference of two same-block vertices into axis j, sign-split by block.

    +1 on u-edges and -1 on v-edges into the positive block of axis j, reversed
    into the negative block.
    """
    return star_difference_vector(g, partition, u, v, *_axis_parts(j))


def crosspolytope_families(n: int, d: int) -> tuple[EigenvectorFamily, ...]:
    """The axis-quad, sign-split and vertex-shift families: deterministic index
    sets realizing the two nontrivial multiplicities of the crosspolytope
    placement, each family built by one batched builder; sign splits and
    vertex shifts are jointly independent and share the eigenvalue n/(2d)."""
    d = as_count(d, "d", 2)
    g, partition = turan_graph(n, 2 * d)

    quad_labels = [(2 * i, 2 * j, 2 * i + 1, 2 * j + 1) for i in range(d) for j in range(i + 1, d)]

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
                    shift_labels.append((anchor, v, *_axis_parts(j)))

    return (
        EigenvectorFamily(n / d, part_quad_vectors(g, partition, quad_labels), d * (d - 1) // 2),
        EigenvectorFamily(n / (2 * d), sign_split_vectors(g, partition, split_labels), d * (d - 2)),
        EigenvectorFamily(
            n / (2 * d),
            star_difference_vectors(g, partition, shift_labels),
            2 * d * (d - 1) * (n // (2 * d) - 1),
        ),
    )
