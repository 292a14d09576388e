import itertools
import math
import re

import numpy as np
import pytest

from adconn.closedform import CANONICAL
from adconn.families import (
    axis_quad_vector,
    block_sign_vector,
    crosspolytope_families,
    edge_length_eigenvector,
    eigen_residual,
    eigenvector_condition_check,
    part_quad_vector,
    part_quad_vectors,
    sign_split_vector,
    sign_split_vectors,
    star_difference_vector,
    star_difference_vectors,
    turan_simplex_families,
    vertex_shift_vector,
    weighted_length_vector,
    weighted_length_vectors,
)
from adconn.framework import Placement, lower_stiffness_direct
from adconn.graphs import complete_graph, turan_graph
from adconn.placements import (
    unit_circle_placement,
    centered_sphere_points,
    crosspolytope_placement,
    regular_simplex,
    turan_simplex_placement,
)
from adconn.seeding import rng_stream
from adconn.spectral import numeric_rank
from adconn.verify import GRIDS

from conftest import random_placement, without_edge

RESIDUAL_TOL = 1e-10


def centered(rng, n):
    f = rng.standard_normal(n)
    return f - f.mean()


def test_weighted_length_vector_on_simplex():
    p = regular_simplex(3)
    C = lower_stiffness_direct(complete_graph(4), p)
    f = np.array([1.0, -1.0, 0.0, 0.0])
    phi = weighted_length_vector(p, f)
    assert eigen_residual(C, phi, 2.0) <= RESIDUAL_TOL  # eigenvalue n/2 = 2


def test_weighted_length_vector_zero_weights():
    phi = weighted_length_vector(regular_simplex(3), np.zeros(4))
    np.testing.assert_array_equal(phi, np.zeros(6))


def test_weighted_length_vector_crosspolytope(rng):
    p = crosspolytope_placement(6, 3)
    C = lower_stiffness_direct(complete_graph(6), p)
    for _ in range(5):
        phi = weighted_length_vector(p, centered(rng, 6))
        assert eigen_residual(C, phi, 3.0) <= RESIDUAL_TOL


def test_weighted_length_vector_random_spherical(rng):
    for n, d in ((6, 3), (9, 2), (10, 4)):
        p = centered_sphere_points(n, d, rng)
        C = lower_stiffness_direct(complete_graph(n), p)
        for _ in range(20):
            phi = weighted_length_vector(p, centered(rng, n))
            assert eigen_residual(C, phi, n / 2) <= RESIDUAL_TOL


def test_weighted_length_vector_rejects_bad_hypotheses(rng):
    with pytest.raises(ValueError, match="sum to zero"):
        weighted_length_vector(regular_simplex(3), np.ones(4))
    with pytest.raises(ValueError, match="unit-norm"):
        weighted_length_vector(Placement(2.0 * regular_simplex(3).points), centered(rng, 4))
    off_center = unit_circle_placement([0.0, 0.5, 1.0, 1.5]).placement
    with pytest.raises(ValueError, match="sum to zero"):
        weighted_length_vector(off_center, centered(rng, 4))
    two_image = Placement(np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]]))
    with pytest.raises(ValueError, match="distinct"):
        weighted_length_vector(two_image, centered(rng, 4))


def test_weighted_length_vectors_equal_one_call_per_weight_vector(rng):
    for p in (crosspolytope_placement(12, 3), centered_sphere_points(9, 2, rng)):
        weights = [centered(rng, p.n) for _ in range(7)]
        got = weighted_length_vectors(p, weights)
        assert len(got) == len(weights)
        for f, vec in zip(weights, got):
            assert vec.tobytes() == weighted_length_vector(p, f).tobytes()
    assert weighted_length_vectors(regular_simplex(3), []).shape == (0, 6)


def test_weighted_length_vectors_reject_what_one_call_rejects(rng):
    p = regular_simplex(3)
    with pytest.raises(ValueError, match="sum to zero"):
        weighted_length_vectors(p, [centered(rng, 4), np.ones(4)])
    with pytest.raises(ValueError, match=r"shape \(4,\)"):
        weighted_length_vectors(p, [centered(rng, 4), np.zeros(5)])
    with pytest.raises(ValueError, match="unit-norm"):
        weighted_length_vectors(Placement(2.0 * p.points), [centered(rng, 4)])


def one_residual(M, v, eigenvalue):
    """The residual of one vector from its own product M @ v: the reference
    for the stacked product of eigen_residual."""
    return float(np.max(np.abs(M @ v - eigenvalue * v)))


def test_a_stacked_eigen_residual_equals_the_largest_row_residual_bit_for_bit(rng):
    for m in (1, 3, 10, 28, 66, 276):
        M = rng.standard_normal((m, m))
        M = M + M.T
        eigenvalue = float(rng.standard_normal())
        for k in (1, 2, 9):
            V = rng.standard_normal((k, m))
            assert eigen_residual(M, V, eigenvalue) == max(one_residual(M, v, eigenvalue) for v in V)
        v = rng.standard_normal(m)
        assert eigen_residual(M, v, eigenvalue) == one_residual(M, v, eigenvalue)
        assert eigen_residual(M, np.zeros((0, m)), eigenvalue) == 0.0
    for family in crosspolytope_families(12, 3):
        C = lower_stiffness_direct(turan_graph(12, 6)[0], crosspolytope_placement(12, 3))
        want = max(one_residual(C, v, family.eigenvalue) for v in family.vectors)
        assert eigen_residual(C, family.vectors, family.eigenvalue) == want


def test_edge_length_eigenvector(rng):
    for n, d, expected in ((3, 2, 3.0), (4, 3, 4.0), (7, 3, 7.0)):
        p = regular_simplex(d) if n == d + 1 else random_placement(rng, n, d)
        C = lower_stiffness_direct(complete_graph(n), p)
        vec = edge_length_eigenvector(p)
        assert eigen_residual(C, vec, expected) <= 1e-9
    with pytest.raises(ValueError):
        edge_length_eigenvector(Placement(np.ones((4, 2))))


def test_edge_length_eigenvector_constant_on_simplex():
    vec = edge_length_eigenvector(regular_simplex(3))
    np.testing.assert_allclose(vec, vec[0])


def test_condition_check_accepts_family_vector():
    n, d = 8, 3
    g, _ = turan_graph(n, d + 1)
    p = turan_simplex_placement(n, d)
    for family in turan_simplex_families(n, d):
        for v in family.vectors:
            assert eigenvector_condition_check(g, p, v, family.eigenvalue).all_ok


def test_condition_check_zero_vector_vacuous(rng):
    g, _ = turan_graph(8, 4)
    p = turan_simplex_placement(8, 3)
    assert eigenvector_condition_check(g, p, np.zeros(g.m), 123.0).all_ok


def test_condition_check_flags_corruption():
    n, d = 8, 3
    g, _ = turan_graph(n, d + 1)
    quads, _ = turan_simplex_families(n, d)
    p = turan_simplex_placement(n, d)
    vec = quads.vectors[0].copy()
    vec[np.flatnonzero(vec)[0]] *= -1.0
    report = eigenvector_condition_check(g, p, vec, quads.eigenvalue)
    assert not (report.vertex_sums_ok and report.eigen_relation_ok)


def test_condition_check_rejects_coincident_edges():
    g, _ = turan_graph(4, 2)
    p = Placement(np.zeros((4, 2)))
    with pytest.raises(ValueError, match="distinct"):
        eigenvector_condition_check(g, p, np.zeros(g.m), 1.0)


@pytest.mark.parametrize("n,d", [(8, 3), (12, 3), (12, 5), (10, 4)])
def test_turan_simplex_family_counts_residuals_rank(n, d):
    quads, stars = turan_simplex_families(n, d)
    p = turan_simplex_placement(n, d)
    C = lower_stiffness_direct(turan_graph(n, d + 1)[0], p)
    assert quads.count == quads.expected == (d - 2) * (d + 1) // 2
    assert stars.count == stars.expected == (n - d - 1) * (d - 1)
    assert quads.eigenvalue == pytest.approx(n / (d + 1))
    assert stars.eigenvalue == pytest.approx(n / (2 * (d + 1)))
    for family in (quads, stars):
        for v in family.vectors:
            assert eigen_residual(C, v, family.eigenvalue) <= RESIDUAL_TOL
        if family.count:
            gram = family.vectors @ family.vectors.T
            assert numeric_rank(gram) == family.count
    stacked = np.vstack([quads.vectors, stars.vectors])
    assert numeric_rank(stacked) == quads.count + stars.count


def test_turan_simplex_quads_empty_for_d2():
    quads, stars = turan_simplex_families(6, 2)
    assert quads.count == quads.expected == 0
    assert quads.vectors.shape == (0, turan_graph(6, 3)[0].m)
    assert stars.count == (6 - 3) * 1


def test_quad_vector_identity():
    # swapping the middle pair relates three quad vectors
    g, partition = turan_graph(10, 5)
    for k in (3, 4):
        lhs = part_quad_vector(g, partition, (0, 1, 2, k)) - part_quad_vector(
            g, partition, (0, 2, 1, k)
        )
        rhs = part_quad_vector(g, partition, (0, 1, k, 2))
        np.testing.assert_array_equal(lhs, rhs)


def test_star_difference_needs_every_star_edge():
    g, partition = turan_graph(12, 4)
    star_difference_vector(g, partition, 0, 1, 1, 3)
    for missing in ((0, 4), (1, 11)):
        with pytest.raises(ValueError, match="every vertex of parts j and k"):
            star_difference_vector(without_edge(g, missing), partition, 0, 1, 1, 3)


def test_star_difference_vertex_sums_vanish():
    g, partition = turan_graph(12, 4)
    vec = star_difference_vector(g, partition, 0, 1, 1, 3)
    B = np.zeros((g.n, g.m))
    for k, (u, v) in enumerate(g.edges):
        B[u, k] = B[v, k] = 1.0
    np.testing.assert_array_equal(B @ vec, np.zeros(g.n))


@pytest.mark.parametrize("n,d", [(12, 3), (8, 2), (16, 4), (6, 3)])
def test_crosspolytope_family_counts_residuals_rank(n, d):
    axis_quads, sign_splits, vertex_shifts = crosspolytope_families(n, d)
    p = crosspolytope_placement(n, d)
    C = lower_stiffness_direct(turan_graph(n, 2 * d)[0], p)
    size = n // (2 * d)
    assert axis_quads.count == axis_quads.expected == d * (d - 1) // 2
    assert sign_splits.count == sign_splits.expected == d * (d - 2)
    assert vertex_shifts.count == vertex_shifts.expected == 2 * d * (d - 1) * (size - 1)
    assert axis_quads.eigenvalue == pytest.approx(n / d)
    assert sign_splits.eigenvalue == vertex_shifts.eigenvalue == pytest.approx(n / (2 * d))
    for family in (axis_quads, sign_splits, vertex_shifts):
        for v in family.vectors:
            assert eigen_residual(C, v, family.eigenvalue) <= RESIDUAL_TOL
    joint = np.vstack([sign_splits.vectors, vertex_shifts.vectors])
    assert numeric_rank(joint) == n * (d - 1) - d * d
    if axis_quads.count:
        assert numeric_rank(axis_quads.vectors) == axis_quads.count


def per_edge(g, rule):
    """Oracle: the edge vector whose entry at edge (u, v) is rule(u, v)."""
    return np.array([float(rule(u, v)) for u, v in g.edges])


def star_rule(part_of, a, b, j, k):
    """+1 on a-edges and -1 on b-edges into part j, reversed into part k."""
    def rule(u, v):
        return sum(
            ((x == a) - (x == b)) * ((part_of[y] == j) - (part_of[y] == k))
            for x, y in ((u, v), (v, u))
        )
    return rule


def block_rule(part_of, i, j):
    """+1 on edges from axis i into the positive block of axis j, -1 into the negative."""
    def rule(u, v):
        for x, y in ((u, v), (v, u)):
            if part_of[x] // 2 == i and part_of[y] // 2 == j:
                return 1 if part_of[y] % 2 == 0 else -1
        return 0
    return rule


def same_part_pairs(partition):
    return [(a, b) for part in partition.parts for a in part for b in part if a != b]


@pytest.mark.parametrize("n,r", [(6, 3), (8, 4), (10, 5), (12, 4)])
def test_turan_vector_builders_match_per_edge_rules(n, r):
    g, partition = turan_graph(n, r)
    part_of = partition.part_of
    for q1, q2, q3, q4 in itertools.permutations(range(r), 4):
        plus, minus = ({q1, q2}, {q3, q4}), ({q2, q3}, {q1, q4})

        def quad_rule(u, v):
            key = {part_of[u], part_of[v]}
            return 1 if key in plus else -1 if key in minus else 0

        expected = per_edge(g, quad_rule)
        np.testing.assert_array_equal(part_quad_vector(g, partition, (q1, q2, q3, q4)), expected)
    for a, b in same_part_pairs(partition):
        for j, k in itertools.permutations(set(range(r)) - {part_of[a]}, 2):
            expected = per_edge(g, star_rule(part_of, a, b, j, k))
            np.testing.assert_array_equal(star_difference_vector(g, partition, a, b, j, k), expected)


@pytest.mark.parametrize("n,d", [(4, 2), (8, 2), (6, 3), (12, 3), (8, 4)])
def test_crosspolytope_vector_builders_match_per_edge_rules(n, d):
    g, partition = turan_graph(n, 2 * d)
    part_of = partition.part_of
    for i, j in itertools.permutations(range(d), 2):

        def axis_rule(u, v):
            if {part_of[u] // 2, part_of[v] // 2} != {i, j}:
                return 0
            return 1 if part_of[u] % 2 == part_of[v] % 2 else -1

        np.testing.assert_array_equal(axis_quad_vector(g, partition, i, j), per_edge(g, axis_rule))
        expected = per_edge(g, block_rule(part_of, i, j))
        np.testing.assert_array_equal(block_sign_vector(g, partition, i, j), expected)
    for i, j, k in itertools.permutations(range(d), 3):
        into_j = block_rule(part_of, i, j), block_rule(part_of, k, j)
        expected = per_edge(g, lambda u, v: into_j[0](u, v) - into_j[1](u, v))
        np.testing.assert_array_equal(sign_split_vector(g, partition, i, j, k), expected)
    for a, b in same_part_pairs(partition):
        for j in set(range(d)) - {part_of[a] // 2}:
            expected = per_edge(g, star_rule(part_of, a, b, 2 * j, 2 * j + 1))
            np.testing.assert_array_equal(vertex_shift_vector(g, partition, a, b, j), expected)


def test_crosspolytope_minimal_has_no_vertex_shifts():
    _, sign_splits, vertex_shifts = crosspolytope_families(6, 3)
    assert vertex_shifts.count == 0
    assert sign_splits.count == 3 * (3 - 2)


def test_block_sign_vectors_orthogonal():
    g, partition = turan_graph(12, 6)
    for i in range(3):
        for j in range(3):
            if i != j:
                psi_ij = block_sign_vector(g, partition, i, j)
                psi_ji = block_sign_vector(g, partition, j, i)
                assert float(psi_ij @ psi_ji) == 0.0


def test_axis_quads_have_disjoint_supports():
    g, partition = turan_graph(12, 6)
    supports = [
        set(np.flatnonzero(axis_quad_vector(g, partition, i, j)))
        for i in range(3)
        for j in range(i + 1, 3)
    ]
    for a in range(len(supports)):
        for b in range(a + 1, len(supports)):
            assert not (supports[a] & supports[b])


def test_half_n_cluster_multiplicity_floor(rng):
    # spherical centered placements put multiplicity >= n-1 worth of family
    # vectors at n/2: check the span dimension directly
    n = 7
    p = centered_sphere_points(n, 3, rng_stream(11, "half-n"))
    vecs = np.array([weighted_length_vector(p, centered(rng, n)) for _ in range(n + 3)])
    assert numeric_rank(vecs) == n - 1


@pytest.mark.parametrize("d", range(2, 7))
@pytest.mark.parametrize("row", ["turan-simplex", "crosspolytope"])
def test_family_counts_are_the_closed_form_multiplicities(row, d):
    # The paper's multiplicities are stated twice, as EigenvectorFamily.expected
    # and in the closed form.  At each family eigenvalue the expected counts sum
    # to the closed-form multiplicity there; only where the closed form merges
    # a family eigenvalue into its n/2 cluster (the crosspolytope at d = 2,
    # where n/d = n/2) do they fall short of it.
    canonical = CANONICAL[row]
    merged = 0
    for n in range(1, 61):
        if not canonical.admits(n, d):
            continue
        clusters = canonical.spectrum(n, d).clusters
        expected = {}
        for family in canonical.families(n, d):
            expected[family.eigenvalue] = expected.get(family.eigenvalue, 0) + family.expected
        for value, count in expected.items():
            mult = sum(m for v, m in clusters if math.isclose(v, value, rel_tol=1e-12))
            if math.isclose(value, n / 2, rel_tol=1e-12):
                assert count <= mult
                merged += 1
            else:
                assert count == mult, (n, value)
    assert merged == (15 if (row, d) == ("crosspolytope", 2) else 0)


def reference_sign_vector(g, partition, signs):
    """One label's vector from its own (r, r) sign table, the pairs written in order."""
    table = np.zeros((partition.r, partition.r))
    for (a, b), sign in signs:
        table[a, b] = table[b, a] = sign
    parts = np.asarray(partition.part_of)[g.endpoints]
    return table[parts[:, 0], parts[:, 1]]


def reference_block_sign(g, partition, i, j):
    """+1 from axis i into the positive block of axis j, -1 into the negative, from one sign table."""
    signs = [((2 * i, 2 * j), 1.0), ((2 * i + 1, 2 * j), 1.0), ((2 * i, 2 * j + 1), -1.0), ((2 * i + 1, 2 * j + 1), -1.0)]
    return reference_sign_vector(g, partition, signs)


def reference_star_difference(g, partition, u, v, j, k):
    """One label's star difference from rows of the incidence matrix."""
    B = g.incidence
    into_j, into_k = B[list(partition.parts[j])].sum(axis=0), B[list(partition.parts[k])].sum(axis=0)
    return (B[u] - B[v]) * (into_j - into_k)


GRID_PARTITIONS = [("turan-simplex", d, n, d + 1) for d, n in GRIDS["turan-simplex"]]
GRID_PARTITIONS += [("crosspolytope", d, n, 2 * d) for d, n in GRIDS["crosspolytope"]]


def assert_rows_are(rows, vectors):
    assert rows.shape == (len(vectors), rows.shape[1])
    for row, vec in zip(rows, vectors):
        assert row.tobytes() == vec.tobytes()  # signed zeros included


@pytest.mark.parametrize("row,d,n,r", GRID_PARTITIONS, ids=[f"{row}-{n},{d}" for row, d, n, _ in GRID_PARTITIONS])
def test_batched_builders_equal_the_per_label_vectors_bit_for_bit(row, d, n, r):
    # every label a builder admits on the partitions of verify's grids, d = 2
    # among them, against one label at a time from its own table or incidence rows
    g, partition = turan_graph(n, r)
    quads = list(itertools.permutations(range(r), 4))  # none at r = 3 (the Turan rows at d = 2)
    expected = [
        reference_sign_vector(g, partition, [((q1, q2), 1.0), ((q3, q4), 1.0), ((q2, q3), -1.0), ((q1, q4), -1.0)])
        for q1, q2, q3, q4 in quads
    ]
    assert_rows_are(part_quad_vectors(g, partition, quads), expected)
    assert_rows_are(part_quad_vectors(g, partition, quads), [part_quad_vector(g, partition, q) for q in quads])
    stars = [
        (a, b, j, k)
        for a, b in same_part_pairs(partition)
        for j, k in itertools.permutations(set(range(r)) - {partition.part_of[a]}, 2)
    ]
    expected = [reference_star_difference(g, partition, *label) for label in stars]
    assert_rows_are(star_difference_vectors(g, partition, stars), expected)
    assert_rows_are(star_difference_vectors(g, partition, stars), [star_difference_vector(g, partition, *s) for s in stars])
    if row == "crosspolytope":
        splits = list(itertools.permutations(range(d), 3))  # none at d = 2
        expected = [reference_block_sign(g, partition, i, j) - reference_block_sign(g, partition, k, j) for i, j, k in splits]
        assert_rows_are(sign_split_vectors(g, partition, splits), expected)
        assert_rows_are(sign_split_vectors(g, partition, splits), [sign_split_vector(g, partition, *s) for s in splits])
    for builder in (part_quad_vectors, star_difference_vectors, sign_split_vectors):
        assert builder(g, partition, []).shape == (0, g.m)


STAR_REFUSALS = [
    ((0, 0, 1, 2), "u and v must be distinct vertices of a common part"),
    ((0, 3, 1, 2), "u and v must be distinct vertices of a common part"),
    ((0, 1, 2, 2), "parts j and k must be distinct and different from the part of u, v"),
    ((0, 1, 0, 2), "parts j and k must be distinct and different from the part of u, v"),
]


@pytest.mark.parametrize("at", ["first", "middle", "last", "alone"])
def test_batched_builders_refuse_each_invalid_label_with_the_one_label_message(at):
    g, partition = turan_graph(12, 4)  # parts of 3 vertices
    crosspolytope = turan_graph(12, 6)
    # (graph, partition, builder, a valid label, an invalid one, its message)
    cases = [(g, partition, star_difference_vectors, (0, 1, 1, 3), *refusal) for refusal in STAR_REFUSALS]
    cases += [
        # the graph misses the edge from 0 into part 1
        (without_edge(g, (0, 4)), partition, star_difference_vectors, (3, 5, 0, 2), (0, 1, 1, 3),
         "g must join u and v to every vertex of parts j and k"),
        (g, partition, part_quad_vectors, (0, 1, 2, 3), (0, 1, 2, 0), "quad indices must be distinct, got (0, 1, 2, 0)"),
        (*crosspolytope, sign_split_vectors, (0, 1, 2), (1, 1, 2), "axes must be distinct, got (1, 1, 2)"),
    ]
    for graph, parts, builder, valid, invalid, message in cases:
        labels = {
            "first": [invalid, valid, valid],
            "middle": [valid, invalid, valid],
            "last": [valid, valid, invalid],
            "alone": [invalid],
        }[at]
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            builder(graph, parts, labels)


def test_a_batched_builder_reports_the_first_invalid_label():
    g, partition = turan_graph(12, 4)
    missing = without_edge(g, (0, 4))
    # the join fails for the first label, a part rule for the second
    with pytest.raises(ValueError, match="^g must join u and v"):
        star_difference_vectors(missing, partition, [(0, 1, 1, 3), (0, 1, 2, 2)])
    with pytest.raises(ValueError, match="^parts j and k must be distinct"):
        star_difference_vectors(missing, partition, [(0, 1, 2, 2), (0, 1, 1, 3)])
    with pytest.raises(ValueError, match="^u and v must be distinct"):
        star_difference_vectors(g, partition, [(0, 1, 1, 3), (0, 0, 2, 2), (0, 1, 2, 2)])
    with pytest.raises(ValueError, match=r"got \(1, 1, 2, 3\)$"):
        part_quad_vectors(g, partition, [(0, 1, 2, 3), (1, 1, 2, 3), (2, 2, 0, 1)])
