import math

import numpy as np
import pytest

from adconn.bounds import (
    circle_identity_residual,
    k4_gap_upper_bound,
    top_eigenvalue_sum_check,
    top_eigenvalue_sum_checks,
    triangle_cosine_sum,
    vertex_star_projection,
    vertex_star_vector,
)
from adconn.framework import Placement, lower_stiffness_direct, stiffness
from adconn.graphs import complete_graph
from adconn.placements import (
    antipodal_pair_angles,
    regular_simplex,
    roots_of_unity_angles,
    unit_circle_placement,
)
from adconn.spectral import spectral_gap, symmetric_eigenvalues

from conftest import random_placement


def test_vertex_star_projection_small_cases():
    np.testing.assert_allclose(vertex_star_projection(3), np.eye(3), atol=1e-15)
    P4 = vertex_star_projection(4)
    g = complete_graph(4)
    e01, e23 = g.index_of(0, 1), g.index_of(2, 3)
    e02 = g.index_of(0, 2)
    assert P4[e01, e01] == pytest.approx(2 / 3)
    assert P4[e01, e02] == pytest.approx(1 / 6)
    assert P4[e01, e23] == pytest.approx(-1 / 3)
    assert np.max(np.abs(P4 @ P4 - P4)) <= 1e-12
    with pytest.raises(ValueError):
        vertex_star_projection(2)


@pytest.mark.parametrize("n", range(3, 21))
def test_vertex_star_projection_properties(n):
    P = vertex_star_projection(n)
    # entries are exactly the constant of how the two edges meet
    E = np.array(complete_graph(n).edges)
    shared = sum((E[:, None, a] == E[None, :, b]).astype(int) for a in (0, 1) for b in (0, 1))
    constants = [-1.0 / math.comb(n - 1, 2), (n - 3) / ((n - 1) * (n - 2)), 2.0 / (n - 1)]
    np.testing.assert_array_equal(P, np.choose(shared, constants))
    assert np.max(np.abs(P - P.T)) == 0.0
    assert np.max(np.abs(P @ P - P)) <= 1e-12
    assert np.trace(P) == pytest.approx(n, abs=1e-10)
    for i in range(n):
        v = vertex_star_vector(n, i)
        assert np.max(np.abs(P @ v - v)) <= 1e-12


def test_vertex_star_projection_trace_formula():
    # trace = |E| * 2/(n-1) = n
    for n in (5, 9, 14, 20):
        assert math.comb(n, 2) * 2 / (n - 1) == pytest.approx(n)


def test_top_sum_equilateral_triangle_equality():
    check = top_eigenvalue_sum_check(regular_simplex(2))
    assert check.total == pytest.approx(6.0, abs=1e-12)
    assert check.bound == pytest.approx(6.0, abs=1e-12)
    assert check.margin == pytest.approx(0.0, abs=1e-12)


def test_top_sum_regular_tetrahedron():
    check = top_eigenvalue_sum_check(regular_simplex(3))
    assert check.total == pytest.approx(10.0, abs=1e-9)  # 4 + 2 + 2 + 2
    assert check.bound == pytest.approx(16 / 3 + 4, abs=1e-12)
    assert check.margin >= -1e-9


def test_top_sum_random_sweep(rng):
    for _ in range(100):
        n = int(rng.integers(3, 13))
        d = int(rng.integers(1, 5))
        p = random_placement(rng, n, d)
        assert top_eigenvalue_sum_check(p).margin >= -1e-9


def test_top_sum_rejects_non_injective():
    with pytest.raises(ValueError):
        top_eigenvalue_sum_check(Placement(np.zeros((4, 2))))


def _top_sum_oracle(p):
    """The top-n sum from one 2-D assembly and eigensolve."""
    eigs = symmetric_eigenvalues(stiffness(complete_graph(p.n), p))
    return float(np.sum(eigs[-p.n:]))


def test_batched_top_sums_on_mixed_shapes_in_shuffled_order_equal_single_calls(rng):
    shapes = [(n, d) for n in (3, 4, 7, 12) for d in (1, 2, 3, 4)] * 3 + [(27, 5), (27, 5)]
    placements = []
    for k in rng.permutation(len(shapes)):
        n, d = shapes[k]
        pts = rng.standard_normal((n, d)) * 10.0 ** rng.choice([-200, 0, 200])
        placements.append(Placement(pts))
    checks = top_eigenvalue_sum_checks(placements)
    assert len(checks) == len(placements)
    for p, check in zip(placements, checks):
        assert repr(check.total) == repr(_top_sum_oracle(p))
        assert check == top_eigenvalue_sum_check(p)
        assert check.bound == p.n * p.n / 3.0 + p.n


def test_batched_top_sums_refuse_any_non_injective_member(rng):
    assert top_eigenvalue_sum_checks([]) == []
    good = random_placement(rng, 4, 2)
    with pytest.raises(ValueError, match="^placement must be injective$"):
        top_eigenvalue_sum_checks([good, Placement(np.zeros((5, 3))), good])


def test_triangle_cosine_sum_cases():
    assert triangle_cosine_sum(regular_simplex(2), 0, 1, 2) == pytest.approx(1.5, abs=1e-12)
    collinear = Placement([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    assert triangle_cosine_sum(collinear, 0, 1, 2) == pytest.approx(1.0, abs=1e-12)
    right_isoceles = Placement([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert triangle_cosine_sum(right_isoceles, 0, 1, 2) == pytest.approx(math.sqrt(2), abs=1e-12)


def test_triangle_cosine_sum_matches_lower_stiffness_entries(rng):
    p = random_placement(rng, 5, 3)
    g = complete_graph(5)
    C = lower_stiffness_direct(g, p)
    i, j, k = 0, 2, 4
    expected = (
        C[g.index_of(i, j), g.index_of(i, k)]
        + C[g.index_of(j, i), g.index_of(j, k)]
        + C[g.index_of(k, i), g.index_of(k, j)]
    )
    assert triangle_cosine_sum(p, i, j, k) == pytest.approx(expected, abs=1e-12)


def test_triangle_cosine_sum_floor(rng):
    for _ in range(200):
        p = random_placement(rng, 3, int(rng.integers(1, 5)))
        assert triangle_cosine_sum(p, 0, 1, 2) >= 1.0 - 1e-12


def test_triangle_cosine_sum_rejects_coincident():
    p = Placement([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        triangle_cosine_sum(p, 0, 1, 2)


def test_k4_bound_tight_at_regular_tetrahedron():
    p = regular_simplex(3)
    bound = k4_gap_upper_bound(p)
    assert bound == pytest.approx(1.0, abs=1e-12)
    assert spectral_gap(complete_graph(4), p) == pytest.approx(1.0, abs=1e-9)


def test_k4_bound_random_sweep(rng):
    g = complete_graph(4)
    for _ in range(1000):
        p = random_placement(rng, 4, 3)
        bound = k4_gap_upper_bound(p)
        gap = spectral_gap(g, p)
        assert bound <= 1.0 + 1e-12
        assert bound >= gap - 1e-9


def test_k4_bound_near_coplanar(rng):
    g = complete_graph(4)
    for _ in range(50):
        pts = rng.standard_normal((4, 3))
        pts[:, 2] *= 1e-6
        p = Placement(pts)
        gap = spectral_gap(g, p)
        assert gap <= 1e-3
        assert k4_gap_upper_bound(p) >= gap - 1e-9


def test_k4_bound_rejects_bad_inputs():
    with pytest.raises(ValueError):
        k4_gap_upper_bound(regular_simplex(2))
    with pytest.raises(ValueError):
        k4_gap_upper_bound(Placement(np.zeros((4, 3))))


def test_circle_identity_roots_of_unity():
    p = unit_circle_placement(roots_of_unity_angles(5)).placement
    assert circle_identity_residual(p) <= 1e-12


def test_circle_identity_antipodal_pairs():
    p = unit_circle_placement(antipodal_pair_angles([0.3, 1.1])).placement
    assert circle_identity_residual(p) <= 1e-12


def test_circle_identity_rejects_violations():
    with pytest.raises(ValueError, match="unit norm"):
        circle_identity_residual(Placement(2 * unit_circle_placement(roots_of_unity_angles(5)).placement.points))
    with pytest.raises(ValueError, match="sum to zero"):
        circle_identity_residual(Placement(unit_circle_placement([0.0, 0.1, 0.2]).placement.points))
    with pytest.raises(ValueError, match="injective"):
        circle_identity_residual(
            Placement(np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]]))
        )
    with pytest.raises(ValueError, match="d=2"):
        circle_identity_residual(regular_simplex(3))


def test_dimension_reduction_gap_comparison(rng):
    # with the first d points in a coordinate hyperplane, the gap of the full
    # (d+1)-point framework is at most the gap of the restricted d-point one
    for d in (3, 4, 5):
        t_full = math.comb(d + 1, 2)
        t_small = math.comb(d, 2)
        for _ in range(10):
            pts = rng.standard_normal((d + 1, d))
            pts[:d, d - 1] = 0.0
            big = symmetric_eigenvalues(stiffness(complete_graph(d + 1), Placement(pts)))
            small = symmetric_eigenvalues(
                stiffness(complete_graph(d), Placement(pts[:d, : d - 1]))
            )
            assert big[t_full] <= small[t_small] + 1e-9
