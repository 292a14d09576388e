import itertools
import math

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
    sign_split_vector,
    star_difference_vector,
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
