import math
import warnings

import numpy as np
import pytest

from adconn.bounds import (
    circle_identity_matrices,
    k4_gap_upper_bound,
    top_eigenvalue_sum_check,
    top_eigenvalue_sum_checks,
    vertex_star_projection,
)
from adconn.families import weighted_length_vectors
from adconn.framework import Placement, lower_stiffness_direct, stiffness
from adconn.graphs import complete_graph
from adconn.placements import (
    centered_sphere_points,
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
    for v in complete_graph(n).incidence:
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
    # the totals of a shape's stack are one np.add.reduce, which sums past 8
    # and past 128 terms in blocks, as np.sum of one row does: n = 130 has both
    shapes = [(n, d) for n in (3, 4, 7, 12) for d in (1, 2, 3, 4)] * 3 + [(27, 5), (27, 5), (130, 1), (130, 1)]
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


def triangle_cosine_sum(p: Placement) -> float:
    """Sum of the three off-diagonal entries of the edge-basis stiffness
    matrix of K_3: each is the cosine of the angle at the vertex its two edges
    share."""
    C = lower_stiffness_direct(complete_graph(3), p)
    return float(C[0, 1] + C[0, 2] + C[1, 2])


def test_triangle_cosine_sum_cases():
    assert triangle_cosine_sum(regular_simplex(2)) == pytest.approx(1.5, abs=1e-12)
    collinear = Placement([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    assert triangle_cosine_sum(collinear) == pytest.approx(1.0, abs=1e-12)
    right_isoceles = Placement([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert triangle_cosine_sum(right_isoceles) == pytest.approx(math.sqrt(2), abs=1e-12)


def test_triangle_cosine_sum_matches_lower_stiffness_entries(rng):
    # the cosine entries of a triangle inside K_5 are those of K_3 on its three points
    p = random_placement(rng, 5, 3)
    g = complete_graph(5)
    C = lower_stiffness_direct(g, p)
    i, j, k = 0, 2, 4
    expected = (
        C[g.index_of(i, j), g.index_of(i, k)]
        + C[g.index_of(j, i), g.index_of(j, k)]
        + C[g.index_of(k, i), g.index_of(k, j)]
    )
    assert triangle_cosine_sum(Placement(p.points[[i, j, k]])) == pytest.approx(expected, abs=1e-12)


def test_triangle_cosine_sum_floor(rng):
    for _ in range(200):
        p = random_placement(rng, 3, int(rng.integers(1, 5)))
        assert triangle_cosine_sum(p) >= 1.0 - 1e-12


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


@pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e160, 1e200])
def test_k4_bound_holds_at_extreme_scales(rng, scale):
    # the bound is scale-invariant; squaring raw coordinate differences would
    # underflow to zero or overflow to inf at these scales
    for _ in range(20):
        p = random_placement(rng, 4, 3)
        scaled = Placement(scale * p.points)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            bound = k4_gap_upper_bound(scaled)
        assert bound == pytest.approx(k4_gap_upper_bound(p), rel=1e-12)


def test_k4_bound_rejects_bad_inputs():
    with pytest.raises(ValueError):
        k4_gap_upper_bound(regular_simplex(2))
    with pytest.raises(ValueError):
        k4_gap_upper_bound(Placement(np.zeros((4, 3))))


def circle_identity_matrix(p):
    """The circle form of one placement, as a one-member stack."""
    return circle_identity_matrices([p])[0]


def _identity_residual(p):
    return float(np.max(np.abs(stiffness(complete_graph(p.n), p) - circle_identity_matrix(p))))


def test_circle_identity_roots_of_unity():
    p = unit_circle_placement(roots_of_unity_angles(5)).placement
    assert _identity_residual(p) <= 1e-12


def test_circle_identity_antipodal_pairs():
    p = unit_circle_placement([0.3, 0.3 + np.pi, 1.1, 1.1 + np.pi]).placement
    assert _identity_residual(p) <= 1e-12


def test_circle_identity_random_centered_points(rng):
    for s in range(20):
        p = centered_sphere_points(3 + s % 10, 2, rng)
        assert _identity_residual(p) <= 1e-12, s


def test_circle_identity_rejects_violations():
    with pytest.raises(ValueError, match="unit-norm"):
        circle_identity_matrix(Placement(2 * unit_circle_placement(roots_of_unity_angles(5)).placement.points))
    with pytest.raises(ValueError, match="sum to zero"):
        circle_identity_matrix(Placement(unit_circle_placement([0.0, 0.1, 0.2]).placement.points))
    with pytest.raises(ValueError, match="distinct"):
        circle_identity_matrix(
            Placement(np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]]))
        )
    with pytest.raises(ValueError, match="d=2"):
        circle_identity_matrix(regular_simplex(3))


@pytest.mark.parametrize(
    "check,min_image",
    [(circle_identity_matrix, None), (lambda p: weighted_length_vectors(p, [np.zeros(p.n)]), 3)],
    ids=["circle-identity", "weighted-length"],
)
@pytest.mark.parametrize(
    "points,message",
    [
        (2 * unit_circle_placement(roots_of_unity_angles(5)).placement.points, "placement must have unit-norm points"),
        (unit_circle_placement([0.0, 0.1, 0.2]).placement.points, "placement must sum to zero"),
        ([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [-1.0, 0.0]], "placement image must have at least {} distinct points"),
    ],
    ids=["off-sphere", "off-center", "image-2"],
)
def test_centered_unit_hypotheses_refused_alike(check, min_image, points, message):
    # one check owns the hypotheses; the image floor is n for the identity, 3 for the vectors
    p = Placement(points)
    with pytest.raises(ValueError) as exc:
        check(p)
    assert str(exc.value) == message.format(min_image or p.n)


def _textbook_identity(p):
    """The circle form of one placement from np.outer, term by term."""
    n, pvec = p.n, p.points.reshape(-1)
    x, y = np.tile([1.0, 0.0], n), np.tile([0.0, 1.0], n)
    r = np.column_stack([-p.points[:, 1], p.points[:, 0]]).reshape(-1)
    return (n / 2.0) * np.eye(2 * n) + 0.5 * (
        np.outer(pvec, pvec) - np.outer(x, x) - np.outer(y, y) - np.outer(r, r)
    )


@pytest.mark.parametrize("n", [3, 4, 7, 12])
def test_circle_identity_stack_equals_the_textbook_form_bit_for_bit(rng, n):
    placements = [unit_circle_placement(roots_of_unity_angles(n)).placement]
    placements += [centered_sphere_points(n, 2, rng) for _ in range(5)]
    stack = circle_identity_matrices(placements)
    assert stack.shape == (6, 2 * n, 2 * n)
    for p, member in zip(placements, stack):
        assert member.tobytes() == _textbook_identity(p).tobytes()
        assert member.tobytes() == circle_identity_matrix(p).tobytes()


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
