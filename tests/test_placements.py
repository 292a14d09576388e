import math

import numpy as np
import pytest

from adconn.placements import (
    centered_sphere_points,
    centered_sphere_stack,
    crosspolytope_placement,
    random_sphere_placement,
    regular_simplex,
    roots_of_unity_angles,
    triangular_pyramid,
    turan_simplex_placement,
    unit_circle_placement,
)
from adconn.seeding import rng_stream
from adconn.spectral import clustered_spectrum, symmetric_eigenvalues
from adconn.framework import stiffness
from adconn.graphs import complete_graph


@pytest.mark.parametrize("d", range(1, 11))
def test_regular_simplex_gram(d):
    pts = regular_simplex(d).points
    gram = pts @ pts.T
    expected = (1 + 1 / d) * np.eye(d + 1) - (1 / d) * np.ones((d + 1, d + 1))
    assert np.max(np.abs(gram - expected)) <= 1e-12
    assert np.max(np.abs(pts.sum(axis=0))) <= 1e-14


def test_regular_simplex_d1():
    np.testing.assert_allclose(regular_simplex(1).points, [[-1.0], [1.0]])


def test_regular_simplex_d2_unit_circle():
    pts = regular_simplex(2).points
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-14)
    dists = [np.linalg.norm(pts[i] - pts[j]) for i, j in ((0, 1), (0, 2), (1, 2))]
    np.testing.assert_allclose(dists, math.sqrt(3), atol=1e-12)


def test_regular_simplex_d3_distances():
    # from the Gram identity: squared distance = 2 + 2/d
    pts = regular_simplex(3).points
    for i in range(4):
        for j in range(i + 1, 4):
            assert np.linalg.norm(pts[i] - pts[j]) == pytest.approx(math.sqrt(8 / 3), abs=1e-12)


def test_turan_simplex_placement():
    p = turan_simplex_placement(8, 3)
    assert p.image_size() == 4
    np.testing.assert_array_equal(p.points[0], p.points[1])
    np.testing.assert_array_equal(turan_simplex_placement(4, 3).points, regular_simplex(3).points)
    with pytest.raises(ValueError):
        turan_simplex_placement(9, 3)


def test_crosspolytope_placement():
    p = crosspolytope_placement(6, 3)
    np.testing.assert_array_equal(
        p.points,
        [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]],
    )
    p12 = crosspolytope_placement(12, 3)
    assert p12.image_size() == 6
    np.testing.assert_allclose(np.linalg.norm(p12.points, axis=1), 1.0)
    np.testing.assert_array_equal(p12.points.sum(axis=0), np.zeros(3))
    with pytest.raises(ValueError):
        crosspolytope_placement(9, 3)


def _centered(p) -> bool:
    return bool(np.linalg.norm(p.points.sum(axis=0)) <= 1e-10)


def test_unit_circle_placement_roots_of_unity():
    p = unit_circle_placement(roots_of_unity_angles(5)).placement
    assert _centered(p) and p.is_injective()
    np.testing.assert_allclose(np.linalg.norm(p.points, axis=1), 1.0)


def test_unit_circle_placement_antipodal_pairs():
    p = unit_circle_placement([0.3, 0.3 + np.pi, 1.1, 1.1 + np.pi]).placement
    assert p.n == 4
    assert _centered(p) and p.is_injective()


def test_unit_circle_placement_repeated_angle_is_neither_injective_nor_centered():
    p = unit_circle_placement([0.7, 0.7, 0.7]).placement
    assert not p.is_injective()
    assert not _centered(p)


def test_triangular_pyramid_flat_and_regular():
    flat = triangular_pyramid(0.0)
    assert np.all(flat.points[:, 2] == 0.0)
    reg = triangular_pyramid(math.sqrt(2 / 3))
    dists = [np.linalg.norm(reg.points[i] - reg.points[j]) for i in range(4) for j in range(i + 1, 4)]
    np.testing.assert_allclose(dists, 1.0, atol=1e-12)
    with pytest.raises(ValueError):
        triangular_pyramid(-0.1)


def test_triangular_pyramid_apex_edge_length():
    p = triangular_pyramid(1 / math.sqrt(6))
    for i in range(3):
        assert np.linalg.norm(p.points[3] - p.points[i]) == pytest.approx(
            math.sqrt(0.5), abs=1e-12
        )


def test_pyramid_at_unit_edge_matches_simplex_spectrum():
    ms_pyramid = clustered_spectrum(stiffness(complete_graph(4), triangular_pyramid(math.sqrt(2 / 3))))
    ms_simplex = clustered_spectrum(stiffness(complete_graph(4), regular_simplex(3)))
    assert ms_pyramid.multiplicities() == ms_simplex.multiplicities()
    np.testing.assert_allclose(ms_pyramid.values(), ms_simplex.values(), atol=1e-9)


def test_turan_simplex_image_is_the_simplex():
    tur = turan_simplex_placement(8, 3)
    assert {tuple(r) for r in tur.points} == {tuple(r) for r in regular_simplex(3).points}


def test_random_sphere_placement_determinism():
    a = random_sphere_placement(7, 3, seed=42)
    b = random_sphere_placement(7, 3, seed=42)
    np.testing.assert_array_equal(a.points, b.points)
    c = random_sphere_placement(7, 3, seed=43)
    assert not np.array_equal(a.points, c.points)


def test_random_sphere_placement_centered():
    # the stream the CLI spec random:6,3,1,centered reads
    p = centered_sphere_points(6, 3, rng_stream(1, "sphere:6:3:1"))
    np.testing.assert_allclose(np.linalg.norm(p.points, axis=1), 1.0, atol=1e-15)
    assert np.max(np.abs(p.points.sum(axis=0))) <= 1e-15
    with pytest.raises(ValueError):
        centered_sphere_points(5, 1, rng_stream(1, "sphere:5:1:1"))


def test_random_sphere_placement_single_point():
    p = random_sphere_placement(1, 4, seed=9)
    assert np.linalg.norm(p.points[0]) == pytest.approx(1.0, abs=1e-15)


def test_centered_sphere_points_any_parity():
    for n in (3, 6, 9):
        p = centered_sphere_points(n, 3, rng_stream(5, f"cs{n}"))
        np.testing.assert_allclose(np.linalg.norm(p.points, axis=1), 1.0, atol=1e-12)
        assert np.linalg.norm(p.points.sum(axis=0)) <= 1e-12
        assert p.image_size() >= 3


def test_centered_sphere_points_on_the_circle_even_and_odd():
    for n in (4, 7, 12, 15):
        p = centered_sphere_points(n, 2, rng_stream(3, f"t{n}"))
        assert p.n == n and p.is_injective()
        np.testing.assert_allclose(np.linalg.norm(p.points, axis=1), 1.0, rtol=0, atol=1e-12)
        assert np.linalg.norm(p.points.sum(axis=0)) <= 1e-12
        # the circle sweep draws each n's samples as one stack
        assert_stack_equals_single_draws(n, 2, 6, f"t{n}")


def assert_stack_equals_single_draws(n, d, k, tag):
    """One k-sample draw has the bits of k one-sample draws from the same stream."""
    singles = rng_stream(3, tag)
    want = np.stack([centered_sphere_points(n, d, singles).points for _ in range(k)])
    got = centered_sphere_stack(n, d, k, rng_stream(3, tag))
    assert got.shape == want.shape == (k, n, d)
    assert got.tobytes() == want.tobytes()


def _looped_centered_sphere_points(n, d, rng):
    """The construction of centered_sphere_points one row at a time: its
    record of standard normals read in order, for odd n two frame vectors
    made orthonormal by Gram-Schmidt and an atan2 angle for the triple, then
    one vector x per pair, appended as x, -x."""
    values = iter(rng.standard_normal((2 * d + 2) * (n % 2) + (n - 3 * (n % 2)) // 2 * d))

    def vector():
        return np.array([next(values) for _ in range(d)])

    def unit(x):
        return x / np.sqrt(np.sum(x * x))

    rows = []
    if n % 2 != 0:
        e1, b = unit(vector()), vector()
        e2 = unit(b - np.sum(b * e1) * e1)
        x, y = next(values), next(values)
        for t in np.arctan2(y, x) + np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3]):
            rows.append(unit(e1 * np.cos(t) + e2 * np.sin(t)))
    for _ in range((n - len(rows)) // 2):
        x = unit(vector())
        rows.extend([x, -x])
    return np.asarray(rows)


# n in (2, 3, 8, 11) with d = 1..4, then n in (2, 3, 4, 7, 20) with d in (1, 2, 3, 5);
# d = 1 only for even n
PARITY_CASES = [(n, d) for n in (2, 3, 8, 11) for d in range(1, 5) if n % 2 == 0 or d >= 2]
PARITY_CASES += [(n, d) for n in (2, 3, 4, 7, 20) for d in (1, 2, 3, 5) if n % 2 == 0 or d >= 2]


@pytest.mark.parametrize("n,d", sorted(set(PARITY_CASES)))
def test_centered_sphere_points_interleave_matches_the_loop_bit_for_bit(n, d):
    got = centered_sphere_points(n, d, rng_stream(7, f"interleave:{n}:{d}")).points
    want = _looped_centered_sphere_points(n, d, rng_stream(7, f"interleave:{n}:{d}"))
    assert got.shape == want.shape == (n, d)
    assert got.tobytes() == want.tobytes()
    assert_stack_equals_single_draws(n, d, 5, f"interleave:{n}:{d}")


def test_centered_sphere_points_domain():
    rng = rng_stream(5, "cs-domain")
    np.testing.assert_array_equal(np.sort(centered_sphere_points(2, 1, rng).points.ravel()), [-1.0, 1.0])
    for n, d in ((1, 3), (0, 3), (3, 1), (4, 0)):
        with pytest.raises(ValueError, match="need even n >= 2 and d >= 1, or odd n >= 3 and d >= 2"):
            centered_sphere_points(n, d, rng)


def test_spherical_placements_satisfy_half_n_multiplicity(rng):
    # centered unit-norm placements with image >= 3 put an eigenvalue cluster
    # of multiplicity at least n-1 at n/2
    for n, d in ((6, 3), (7, 3), (8, 4)):
        p = centered_sphere_points(n, d, rng)
        eigs = symmetric_eigenvalues(stiffness(complete_graph(n), p))
        assert int(np.sum(np.abs(eigs - n / 2) <= 1e-8)) >= n - 1


def test_canonical_placements_satisfy_spherical_hypotheses():
    # unit norms, zero sum, image size >= 3: the hypotheses of the n/2
    # eigenvalue multiplicity statement
    cases = [turan_simplex_placement(n, d) for n, d in ((8, 3), (12, 2), (20, 4))]
    cases += [crosspolytope_placement(n, d) for n, d in ((8, 2), (12, 3), (16, 4))]
    for p in cases:
        np.testing.assert_allclose(np.linalg.norm(p.points, axis=1), 1.0, atol=1e-12)
        assert np.linalg.norm(p.points.sum(axis=0)) <= 1e-12
        assert p.image_size() >= 3


def crosspolytope_sites(d):
    """+e_1, -e_1, +e_2, -e_2, ... as rows."""
    sites = np.zeros((2 * d, d))
    for i in range(d):
        sites[2 * i, i], sites[2 * i + 1, i] = 1.0, -1.0
    return sites


@pytest.mark.parametrize("d", range(1, 7))
def test_balanced_placements_repeat_each_site_over_its_block(d):
    rows = ((turan_simplex_placement, regular_simplex(d).points), (crosspolytope_placement, crosspolytope_sites(d)))
    for build, sites in rows:
        for k in range(1, 9):
            assert build(k * len(sites), d).points.tobytes() == np.repeat(sites, k, axis=0).tobytes()
