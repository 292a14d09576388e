import math

import numpy as np
import pytest

from adconn.framework import (
    Placement,
    _edge_geometry,
    edge_lengths,
    lower_stiffness_direct,
    placement_from_json,
    placement_to_json,
    rigidity_matrix,
    stiffness,
)
from adconn.graphs import complete_graph, make_graph, remove_edge, turan_graph
from adconn.placements import (
    crosspolytope_placement,
    regular_simplex,
    roots_of_unity_angles,
    turan_simplex_placement,
    unit_circle_placement,
)
from adconn.spectral import clustered_spectrum, is_infinitesimally_rigid

from conftest import random_placement


def random_graph(rng, n):
    full = complete_graph(n)
    keep = rng.random(full.m) < 0.6
    if not keep.any():
        keep[0] = True
    return make_graph(n, [e for e, k in zip(full.edges, keep) if k])


def lower_stiffness_product(g, p):
    """R^t R: the reference for the entry-rule assembly."""
    R = rigidity_matrix(g, p)
    return R.T @ R


def test_direction_basic():
    # the direction of edge (u, v), u < v, points from p(v) toward p(u)
    p = Placement([[1.0, 0.0], [0.0, 0.0]])
    np.testing.assert_array_equal(_edge_geometry(complete_graph(2), p)[0], [[1.0, 0.0]])
    q = Placement([[0.0, 0.0], [1.0, 0.0]])
    np.testing.assert_array_equal(_edge_geometry(complete_graph(2), q)[0], [[-1.0, 0.0]])


def test_direction_coincident_is_exact_zero():
    p = Placement([[0.3, -0.2], [0.3, -0.2], [1.0, 0.0]])
    unit, lengths = _edge_geometry(complete_graph(3), p)
    np.testing.assert_array_equal(unit[0], [0.0, 0.0])
    assert lengths[0] == 0.0


def test_direction_normalizes():
    p = Placement([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    unit, lengths = _edge_geometry(complete_graph(2), p)
    np.testing.assert_allclose(unit, [[1 / math.sqrt(2), 1 / math.sqrt(2), 0.0]])
    np.testing.assert_allclose(lengths, [math.sqrt(2)])


@pytest.mark.parametrize("scale", [1e-200, 1e-160, 1e160, 1e200])
@pytest.mark.parametrize("n,d", [(4, 3), (5, 2)])
def test_spectra_do_not_depend_on_scale(n, d, scale):
    g = complete_graph(n)
    p = random_placement(np.random.default_rng(n), n, d)
    q = Placement(scale * p.points)
    for matrix in (stiffness, lower_stiffness_direct):
        want, got = clustered_spectrum(matrix(g, p)), clustered_spectrum(matrix(g, q))
        assert got.multiplicities() == want.multiplicities()
        np.testing.assert_allclose(got.values(), want.values(), rtol=0, atol=1e-9)


def test_far_edges_leave_other_rows_bit_identical():
    # edge (1, 2) is 1e-200 long and the edges at vertex 3 are longer than the
    # largest float; the in-range rows must be the plain normalized differences
    p = Placement([[0.0, 0.0], [1.0, 0.0], [1.0, 1e-200], [-1.5e308, 1.5e308]])
    g = complete_graph(4)
    unit, lengths = _edge_geometry(g, p)
    for u, v in ((0, 1), (0, 2)):
        k, diff = g.index_of(u, v), p.points[u] - p.points[v]
        assert lengths[k] == np.linalg.norm(diff)
        np.testing.assert_array_equal(unit[k], diff / np.linalg.norm(diff))
    np.testing.assert_array_equal(unit[g.index_of(1, 2)], [0.0, -1.0])
    assert lengths[g.index_of(1, 2)] == 1e-200
    np.testing.assert_allclose(unit[g.index_of(2, 3)], [1 / math.sqrt(2), -1 / math.sqrt(2)], rtol=1e-15)
    assert lengths[g.index_of(2, 3)] == np.inf
    # the difference itself overflows; its halves do not
    unit, lengths = _edge_geometry(complete_graph(2), Placement([[9e307, 0.0], [-9e307, 0.0]]))
    np.testing.assert_array_equal(unit, [[1.0, 0.0]])
    assert lengths[0] == np.inf


def test_rigidity_matrix_k2_column_sign():
    g = complete_graph(2)
    p = Placement([[0.0], [1.0]])
    np.testing.assert_array_equal(rigidity_matrix(g, p), [[-1.0], [1.0]])


def test_rigidity_matrix_constant_placement_is_zero():
    g = complete_graph(5)
    p = Placement(np.ones((5, 3)))
    assert np.all(rigidity_matrix(g, p) == 0.0)


def test_rigidity_matrix_simplex_rank():
    for d in (2, 3, 4):
        g = complete_graph(d + 1)
        R = rigidity_matrix(g, regular_simplex(d))
        sv = np.linalg.svd(R, compute_uv=False)
        rank = int(np.count_nonzero(sv > 1e-9 * sv[0]))
        assert rank == d * (d + 1) - math.comb(d + 1, 2)


def test_rigidity_matrix_rejects_size_mismatch():
    with pytest.raises(ValueError):
        rigidity_matrix(complete_graph(3), Placement([[0.0], [1.0]]))


def test_stiffness_k2():
    g = complete_graph(2)
    p = Placement([[0.0], [1.0]])
    np.testing.assert_array_equal(stiffness(g, p), [[1.0, -1.0], [-1.0, 1.0]])


def test_stiffness_trace_counts_noncoincident_edges():
    # trace(L) = trace(L-) = 2 * number of edges with distinct endpoint images
    g = complete_graph(3)
    L = stiffness(g, regular_simplex(2))
    assert np.trace(L) == pytest.approx(6.0, abs=1e-12)
    p = Placement([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])  # one coincident pair
    assert np.trace(stiffness(g, p)) == pytest.approx(4.0, abs=1e-12)


def test_lower_stiffness_equilateral():
    g = complete_graph(3)
    Lm = lower_stiffness_direct(g, regular_simplex(2))
    np.testing.assert_allclose(Lm, [[2, 0.5, 0.5], [0.5, 2, 0.5], [0.5, 0.5, 2]], atol=1e-12)


def test_lower_stiffness_collinear_path():
    # shared vertex sees two opposite directions: cos(pi) = -1
    g = make_graph(3, [(0, 2), (1, 2)])
    p = Placement([[0.0, 0.0], [2.0, 0.0], [1.0, 0.0]])
    np.testing.assert_allclose(lower_stiffness_direct(g, p), [[2, -1], [-1, 2]], atol=1e-15)


def test_lower_stiffness_coincident_edge_zero_row():
    g = complete_graph(3)
    p = Placement([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    Lm = lower_stiffness_direct(g, p)
    k = g.index_of(0, 1)
    assert np.all(Lm[k] == 0.0) and np.all(Lm[:, k] == 0.0)


def test_lower_stiffness_direct_diagonal_exact():
    g = complete_graph(3)
    p = Placement([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])
    diag = np.diag(lower_stiffness_direct(g, p))
    assert set(diag.tolist()) == {0.0, 2.0}


def test_direct_agrees_with_product_on_random_frameworks(rng):
    cases = []
    for k in range(300):
        n = int(rng.integers(2, 13))
        d = int(rng.integers(1, 5))
        pts = rng.standard_normal((n, d))
        if k % 3 == 0:  # make one or two pairs of points coincide exactly
            for _ in range(int(rng.integers(1, 3))):
                i, j = rng.choice(n, 2, replace=False)
                pts[i] = pts[j]
        cases.append((random_graph(rng, n), Placement(pts)))
    cases += [
        (turan_graph(48, 6)[0], crosspolytope_placement(48, 3)),
        (turan_graph(48, 4)[0], turan_simplex_placement(48, 3)),
        (complete_graph(48), unit_circle_placement(roots_of_unity_angles(48)).placement),
    ]
    worst = 0.0
    for g, p in cases:
        direct = lower_stiffness_direct(g, p)
        diff = direct - lower_stiffness_product(g, p)
        if diff.size:
            worst = max(worst, float(np.max(np.abs(diff))))
        assert set(np.diag(direct).tolist()) <= {0.0, 2.0}
    assert worst <= 1e-12


def test_similarity_invariance(rng):
    # the edge-basis matrix has cosine entries, so it is unchanged by any
    # similarity; the vertex-basis matrix is unchanged by translation and
    # scale and conjugated (same spectrum) by rotations
    g = complete_graph(6)
    p = random_placement(rng, 6, 3)
    L = stiffness(g, p)
    Lm = lower_stiffness_direct(g, p)
    eigs = np.linalg.eigvalsh(L)
    for _ in range(5):
        U = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        s = float(rng.uniform(0.1, 10.0))
        t = rng.standard_normal(3)
        shifted = Placement(s * p.points + t)
        assert np.max(np.abs(stiffness(g, shifted) - L)) <= 1e-10
        q = Placement(s * p.points @ U.T + t)
        assert np.max(np.abs(lower_stiffness_direct(g, q) - Lm)) <= 1e-10
        np.testing.assert_allclose(np.linalg.eigvalsh(stiffness(g, q)), eigs, atol=1e-10)


def test_trivial_motion_kernel(rng):
    for d in (2, 3):
        n = d + 3
        g = random_graph(rng, n)
        p = random_placement(rng, n, d)
        L = stiffness(g, p)
        # translations
        for c in range(d):
            w = np.zeros((n, d))
            w[:, c] = 1.0
            w = w.reshape(-1)
            assert np.linalg.norm(L @ w) <= 1e-10 * np.linalg.norm(w)
        # rotation fields from skew-symmetric generators
        for i in range(d):
            for j in range(i + 1, d):
                A = np.zeros((d, d))
                A[i, j], A[j, i] = 1.0, -1.0
                w = (p.points @ A.T).reshape(-1)
                assert np.linalg.norm(L @ w) <= 1e-10 * np.linalg.norm(w)


def test_psd_on_random_instances(rng):
    for _ in range(30):
        n = int(rng.integers(2, 10))
        d = int(rng.integers(1, 5))
        g = random_graph(rng, n)
        p = random_placement(rng, n, d)
        if g.m:
            assert np.linalg.eigvalsh(lower_stiffness_product(g, p)).min() >= -1e-10
        assert np.linalg.eigvalsh(stiffness(g, p)).min() >= -1e-10


def test_stiffness_row_sums_vanish_per_coordinate(rng):
    g = random_graph(rng, 7)
    p = random_placement(rng, 7, 3)
    L = stiffness(g, p)
    blocks = L.reshape(7, 3, 7, 3)
    np.testing.assert_allclose(blocks.sum(axis=2), np.zeros((7, 3, 3)), atol=1e-10)


def test_is_infinitesimally_rigid():
    g4 = complete_graph(4)
    tetra = regular_simplex(3)
    assert is_infinitesimally_rigid(g4, tetra)
    assert not is_infinitesimally_rigid(remove_edge(g4, (0, 1)), tetra)
    assert not is_infinitesimally_rigid(g4, Placement(np.zeros((4, 3))))
    with pytest.raises(ValueError):
        is_infinitesimally_rigid(complete_graph(3), Placement(np.zeros((3, 3))))  # n <= d


def test_placement_json_roundtrip():
    p = regular_simplex(3)
    q = placement_from_json(placement_to_json(p))
    np.testing.assert_array_equal(q.points, p.points)
    with pytest.raises(ValueError, match="points"):
        placement_from_json('{"d": 3, "points": [[1, 2]]}')
    with pytest.raises(ValueError, match="malformed"):
        placement_from_json("{nope")


def test_placement_validation():
    with pytest.raises(ValueError):
        Placement(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        Placement([[np.inf, 0.0]])
    with pytest.raises(ValueError):
        Placement([1.0, 2.0])


def test_edge_lengths():
    g = complete_graph(3)
    p = Placement([[0.0, 0.0], [3.0, 0.0], [0.0, 4.0]])
    np.testing.assert_allclose(edge_lengths(g, p), [3.0, 4.0, 5.0])
