import math

import numpy as np
import pytest

from adconn.framework import (
    Placement,
    _edge_geometry,
    _rigidity_from_directions,
    edge_lengths,
    lower_stiffness_direct,
    placement_from_json,
    placement_to_json,
    rigidity_matrix,
    stiffness,
)
from adconn.graphs import Graph, complete_graph, make_graph, remove_edge, turan_graph
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


def fancy_index_rigidity(g, unit):
    """R from a three-axis fancy index: the reference for the flat scatter."""
    n, d, m = g.n, unit.shape[1], g.m
    R = np.zeros((n, d, m))
    cols = np.arange(m)
    R[g.endpoints[:, 0], :, cols] = unit
    R[g.endpoints[:, 1], :, cols] = -unit
    return R.reshape(n * d, m)


def bit_equal(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_rigidity_scatter_matches_the_fancy_index_bit_for_bit(d, rng):
    graphs = [complete_graph(n) for n in (2, 5, 9)]
    graphs += [turan_graph(n, r)[0] for n, r in ((6, 2), (6, 3), (8, 4))]
    graphs += [Graph(4, ()), random_graph(rng, 7)]
    for g in graphs:
        for coincident in (0, 1, 2):
            pts = rng.standard_normal((g.n, d))
            pts[1:coincident + 1] = pts[0]  # up to two points exactly on p(0)
            p = Placement(pts)
            unit = _edge_geometry(g, p.points)[0]
            want = fancy_index_rigidity(g, unit)
            got = _rigidity_from_directions(g, unit)
            assert bit_equal(got, want) and np.array_equal(got, want)
            assert got.flags.c_contiguous  # so that R @ R.T takes one path
            assert bit_equal(rigidity_matrix(g, p), want)
            # R @ R.T of one C-contiguous array with its own transpose
            assert bit_equal(stiffness(g, p), want @ want.T)


def test_scatter_index_is_cached_and_read_only():
    g = turan_graph(6, 3)[0]
    for d in (1, 3):
        coords, entries = g.scatter_index(d)
        assert g.scatter_index(d) is g.scatter_index(d)
        assert g.scatter_index(d)[0] is coords and g.scatter_index(d)[1] is entries
        assert coords.shape == entries.shape == (2 * g.m * d,)
        for a in (coords, entries):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = 0
    assert g.scatter_index(1)[0] is not g.scatter_index(3)[0]
    assert Graph(3, ()).scatter_index(2)[1].shape == (0,)


def test_edge_lengths_equal_numpy_norm_bit_for_bit(rng):
    for _ in range(300):
        n, d = int(rng.integers(2, 13)), int(rng.integers(1, 5))
        pts = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-100, 100)
        if rng.random() < 0.3:
            pts[-1] = pts[0]
        g = complete_graph(n)
        diffs = pts[g.endpoints[:, 0]] - pts[g.endpoints[:, 1]]
        assert bit_equal(_edge_geometry(g, pts)[1], np.linalg.norm(diffs, axis=1))


def test_direction_basic():
    # the direction of edge (u, v), u < v, points from p(v) toward p(u)
    p = Placement([[1.0, 0.0], [0.0, 0.0]])
    np.testing.assert_array_equal(_edge_geometry(complete_graph(2), p.points)[0], [[1.0, 0.0]])
    q = Placement([[0.0, 0.0], [1.0, 0.0]])
    np.testing.assert_array_equal(_edge_geometry(complete_graph(2), q.points)[0], [[-1.0, 0.0]])


def test_direction_coincident_is_exact_zero():
    p = Placement([[0.3, -0.2], [0.3, -0.2], [1.0, 0.0]])
    unit, lengths = _edge_geometry(complete_graph(3), p.points)
    np.testing.assert_array_equal(unit[0], [0.0, 0.0])
    assert lengths[0] == 0.0


def test_direction_normalizes():
    p = Placement([[1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
    unit, lengths = _edge_geometry(complete_graph(2), p.points)
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
    unit, lengths = _edge_geometry(g, p.points)
    for u, v in ((0, 1), (0, 2)):
        k, diff = g.index_of(u, v), p.points[u] - p.points[v]
        assert lengths[k] == np.linalg.norm(diff)
        np.testing.assert_array_equal(unit[k], diff / np.linalg.norm(diff))
    np.testing.assert_array_equal(unit[g.index_of(1, 2)], [0.0, -1.0])
    assert lengths[g.index_of(1, 2)] == 1e-200
    np.testing.assert_allclose(unit[g.index_of(2, 3)], [1 / math.sqrt(2), -1 / math.sqrt(2)], rtol=1e-15)
    assert lengths[g.index_of(2, 3)] == np.inf
    # the difference itself overflows; its halves do not
    unit, lengths = _edge_geometry(complete_graph(2), np.array([[9e307, 0.0], [-9e307, 0.0]]))
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


def _stack_members(rng, n, d, k):
    """k placements of n points in R^d: plain, one with a coincident pair, one
    with a pair 1e-200 apart, one scaled by 1e200, and more plain ones."""
    pts = rng.standard_normal((k, n, d))
    pts[1, 1] = pts[1, 0]
    pts[2, 1] = pts[2, 0] + 1e-200 * rng.standard_normal(d)
    pts[3] *= 1e200
    return pts


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_stacked_kernels_equal_one_placement_at_a_time_bit_for_bit(d, rng):
    graphs = [complete_graph(n) for n in (2, 5, 9)] + [turan_graph(8, 4)[0], random_graph(rng, 7), Graph(3, ())]
    for g in graphs:
        stack = _stack_members(rng, g.n, d, 5)
        unit, lengths = _edge_geometry(g, stack)
        R = _rigidity_from_directions(g, unit)
        L = R @ R.swapaxes(-1, -2)
        assert unit.shape == (5, g.m, d) and lengths.shape == (5, g.m) and R.shape == (5, g.n * d, g.m)
        for i, pts in enumerate(stack):
            unit_i, lengths_i = _edge_geometry(g, pts)
            assert bit_equal(unit[i], unit_i) and bit_equal(lengths[i], lengths_i)
            assert bit_equal(R[i], _rigidity_from_directions(g, unit_i))
            assert bit_equal(L[i], stiffness(g, Placement(pts)))


def test_kernels_take_any_number_of_leading_axes(rng):
    g = complete_graph(6)
    stack = _stack_members(rng, 6, 3, 6).reshape(2, 3, 6, 3)
    unit, lengths = _edge_geometry(g, stack)
    R = _rigidity_from_directions(g, unit)
    assert R.shape == (2, 3, 18, g.m)
    for i in np.ndindex(2, 3):
        assert bit_equal(lengths[i], _edge_geometry(g, stack[i])[1])
        assert bit_equal(R[i], rigidity_matrix(g, Placement(stack[i])))


def test_image_size_counts_signed_zeros_as_one_coordinate():
    p = Placement([[0.0, 1.0], [-0.0, 1.0], [0.0, -0.0], [2.0, 1.0]])
    assert p.image_size() == 3 and not p.is_injective()
    assert Placement([[0.0, 1.0], [1.0, 0.0]]).is_injective()
