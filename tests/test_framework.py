import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adconn.framework import (
    BLOCK_ASSEMBLY_MIN_VERTICES,
    Placement,
    _block_stiffness,
    _edge_geometry,
    _rigidity_from_directions,
    _stiffness_geometry,
    edge_lengths,
    lower_stiffness_direct,
    masked_stiffness,
    placement_from_json,
    placement_to_json,
    rigidity_matrix,
    stiffness,
)
from adconn.graphs import Graph, complete_graph, make_graph, turan_graph
from adconn.placements import (
    crosspolytope_placement,
    regular_simplex,
    roots_of_unity_angles,
    turan_simplex_placement,
    unit_circle_placement,
)
from adconn.spectral import clustered_spectrum, numeric_rank, trivial_motion_count

from conftest import random_placement, without_edge


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


def flatnonzero_lower_stiffness(g, p):
    """The star loop with two flatnonzero scans per vertex and a fresh np.ix_
    pair: the reference for the stars cached on the graph."""
    L = np.zeros((g.m, g.m))
    unit = _edge_geometry(g, p.points)[0]
    uv = g.endpoints
    for s in range(g.n):
        at_u, at_v = np.flatnonzero(uv[:, 0] == s), np.flatnonzero(uv[:, 1] == s)
        star = np.concatenate((at_u, at_v))
        D = np.concatenate((-unit[at_u], unit[at_v]))
        L[np.ix_(star, star)] = D @ D.T
    np.fill_diagonal(L, np.where(np.all(unit == 0.0, axis=1), 0.0, 2.0))
    return L


def test_cached_stars_assemble_the_scanned_stars_bit_for_bit(rng):
    cases = []
    for n in (2, 5, 9):
        isolated = random_graph(rng, n)
        isolated = Graph(n, tuple(e for e in isolated.edges if n - 1 not in e))
        cases += [(g, d) for g in (random_graph(rng, n), isolated) for d in (1, 2, 3)]
    cases += [(Graph(4, ()), 2), (complete_graph(1), 3)]
    placements = []
    for g, d in cases:
        for pairs in (0, 1, 2):
            pts = rng.standard_normal((g.n, d))
            for k in range(min(pairs, g.n // 2)):  # pairs of points that coincide exactly
                pts[2 * k + 1] = pts[2 * k]
            placements.append((g, Placement(pts)))
    placements += [
        (turan_graph(48, 6)[0], crosspolytope_placement(48, 3)),
        (turan_graph(48, 4)[0], turan_simplex_placement(48, 3)),
        (complete_graph(48), unit_circle_placement(roots_of_unity_angles(48)).placement),
    ]
    for g, p in placements:
        assert bit_equal(lower_stiffness_direct(g, p), flatnonzero_lower_stiffness(g, p))


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


def test_rigidity_rank_decides_infinitesimal_rigidity():
    # a framework is infinitesimally rigid iff rank R = dn - C(d+1, 2)
    g4 = complete_graph(4)
    tetra = regular_simplex(3)
    full = 3 * 4 - trivial_motion_count(3)
    assert numeric_rank(rigidity_matrix(g4, tetra)) == full
    assert numeric_rank(rigidity_matrix(without_edge(g4, (0, 1)), tetra)) < full
    assert numeric_rank(rigidity_matrix(g4, Placement(np.zeros((4, 3))))) < full


def test_placement_json_roundtrip():
    p = regular_simplex(3)
    q = placement_from_json(placement_to_json(p))
    np.testing.assert_array_equal(q.points, p.points)
    with pytest.raises(ValueError, match="points"):
        placement_from_json('{"d": 3, "points": [[1, 2]]}')
    with pytest.raises(ValueError, match="malformed"):
        placement_from_json("{nope")


@pytest.mark.parametrize(
    "huge", ["1" + "0" * 400, "-" + "9" * 400, "1e999"], ids=["401-digits", "minus-400-nines", "1e999"]
)
def test_placement_json_beyond_the_float_range_is_not_finite(huge):
    with pytest.raises(ValueError, match="^points must be finite$"):
        placement_from_json('{"d": 2, "points": [[%s, 0], [1, 2]]}' % huge)
    # the shape is still checked first, as for any other number
    with pytest.raises(ValueError, match="with d=3"):
        placement_from_json('{"d": 3, "points": [[%s, 0], [1, 2]]}' % huge)


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
    with a pair about 1e-200 apart near the origin, one scaled by 1e200, and
    more plain ones.  On coordinates of order 1 an offset of 1e-200 would
    vanish and leave a second coincident pair."""
    pts = rng.standard_normal((k, n, d))
    pts[1, 1] = pts[1, 0]
    pts[2, :2] = 1e-200 * rng.standard_normal((2, d))
    assert 0.0 < math.hypot(*(pts[2, 1] - pts[2, 0])) < 1e-150
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
        if (0, 1) in g.edge_index:  # the short pair's edge, sent through _rescaled_geometry
            assert 0.0 < lengths[2, g.index_of(0, 1)] < 1e-150
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


def product_stiffness(g, unit):
    """R R^t of the directions: the reference for the block assembly."""
    R = _rigidity_from_directions(g, unit)
    return R @ R.swapaxes(-1, -2)


def diagonal_blocks(n, d):
    """Boolean (dn, dn) mask of the d x d diagonal blocks."""
    return np.kron(np.eye(n, dtype=bool), np.ones((d, d), dtype=bool))


def subgraph(g, keep):
    return Graph(g.n, tuple(e for e, k in zip(g.edges, keep) if k))


def zeroed(unit, keep):
    """The (..., m, d) directions with the rows of the edges that keep drops set to 0.0."""
    return np.where(keep[:, None], unit, 0.0)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(1, 30),
    d=st.integers(1, 5),
    density=st.sampled_from([0.0, 0.3, 1.0]),
    coincident=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_assembly_matches_the_product(n, d, density, coincident, seed):
    """Off the diagonal blocks each entry is one product, -d_i d_j, on both
    paths: equal bits, zeros included.  A diagonal block entry sums one
    product per edge at its vertex in another order; each sum is within
    deg eps max|L| of the exact one, so the two within 2 m eps max|L|.
    A member of a stack, a masked subgraph and the edgeless graph (density 0)
    get the bits they get alone."""
    rng = np.random.default_rng(seed)
    full = complete_graph(n)
    g = subgraph(full, rng.random(full.m) < density)
    stack = rng.standard_normal((3, n, d))
    stack[:, 1:coincident + 1] = stack[:, :1]  # up to three points exactly on p(0)
    stack[1] *= 1e200
    unit = _edge_geometry(g, stack)[0]
    got, want = _block_stiffness(g, unit), product_stiffness(g, unit)
    diag = diagonal_blocks(n, d)
    for i in range(3):
        assert bit_equal(got[i][~diag], want[i][~diag])
        peak = np.abs(want[i]).max(initial=0.0)
        assert np.abs(got[i] - want[i]).max(initial=0.0) <= 2 * g.m * np.finfo(float).eps * peak
        assert bit_equal(got[i], _block_stiffness(g, unit[i]))
    for mask in rng.random((2, g.m)) < 0.5:
        assert bit_equal(_block_stiffness(g, zeroed(unit[0], mask)), _block_stiffness(subgraph(g, mask), unit[0][mask]))


@pytest.mark.parametrize(
    "g", [complete_graph(17), turan_graph(18, 3)[0], Graph(16, ())], ids=["K17", "turan-18-3", "edgeless"]
)
def test_block_assembly_fills_each_member_of_a_stack_with_its_own_bits(g, rng):
    """Two leading axes at n >= BLOCK_ASSEMBLY_MIN_VERTICES, the same stack
    under a mask, an empty stack and the edgeless graph (m = 0)."""
    d, side = 3, 3 * g.n
    stack = _stack_members(rng, g.n, d, 6).reshape(2, 3, g.n, d)
    unit = _edge_geometry(g, stack)[0]
    masks = rng.random((2, g.m)) < 0.5
    L = _block_stiffness(g, unit)
    assert L.shape == (2, 3, side, side)
    assert _block_stiffness(g, unit[:0]).shape == (0, 3, side, side)
    for i in np.ndindex(2, 3):
        assert bit_equal(L[i], _block_stiffness(g, unit[i]))
        assert bit_equal(L[i], stiffness(g, Placement(stack[i])))
    for mask in masks:
        masked = _block_stiffness(g, zeroed(unit, mask))
        assert masked.shape == (2, 3, side, side)
        for i in np.ndindex(2, 3):
            assert bit_equal(masked[i], _block_stiffness(subgraph(g, mask), unit[i][mask]))
    if not g.m:
        assert not np.any(L)


def _threshold_graphs(rng):
    """(g, d) with n just below and at BLOCK_ASSEMBLY_MIN_VERTICES, for d = 1..5."""
    for d in range(1, 6):
        for n in (BLOCK_ASSEMBLY_MIN_VERTICES - 1, BLOCK_ASSEMBLY_MIN_VERTICES):
            yield random_graph(rng, n), d


def test_stiffness_takes_the_product_below_the_threshold_and_the_blocks_from_it(rng):
    assert 12 < BLOCK_ASSEMBLY_MIN_VERTICES  # the optimizer's K12 in R^3 keeps the product's bits
    for g, d in [(complete_graph(12), 3), *_threshold_graphs(rng)]:
        stack = _stack_members(rng, g.n, d, 4)
        unit = _edge_geometry(g, stack)[0]
        blocks = g.n >= BLOCK_ASSEMBLY_MIN_VERTICES
        want = _block_stiffness(g, unit) if blocks else product_stiffness(g, unit)
        assert bit_equal(_stiffness_geometry(g, stack)[0], want)
        masks = rng.random((2, g.m)) < 0.5
        for i, pts in enumerate(stack):
            p = Placement(pts)
            assert bit_equal(stiffness(g, p), want[i])
            for mask, L in zip(masks, stiffness(g, p, masks)):
                assert bit_equal(L, stiffness(subgraph(g, mask), p))


@pytest.mark.parametrize(
    "keep", [np.ones(6, dtype=bool), np.ones((1, 5), dtype=bool), np.ones((1, 6), dtype=int)], ids=["1-d", "m-5", "int"]
)
def test_stiffness_refuses_masks_that_are_not_a_boolean_k_by_m_array(keep):
    with pytest.raises(ValueError, match=r"^keep must be a \(k, 6\) boolean array of masks over the edges of g$"):
        stiffness(complete_graph(4), regular_simplex(3), keep)


@pytest.mark.parametrize("n", [5, 17], ids=["product", "blocks"])
def test_no_masks_give_an_empty_stack_on_both_paths(rng, n):
    assert 5 < BLOCK_ASSEMBLY_MIN_VERTICES <= 17
    g = complete_graph(n)
    stack = stiffness(g, random_placement(rng, n, 3), np.zeros((0, g.m), dtype=bool))
    assert stack.shape == (0, 3 * n, 3 * n) and stack.dtype == float


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(2, 20),
    d=st.integers(1, 4),
    k=st.integers(0, 3),
    j=st.integers(0, 3),
    coincident=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=17, d=2, k=0, j=2, coincident=False, seed=0)
@example(n=5, d=3, k=0, j=0, coincident=False, seed=0)
@example(n=17, d=3, k=2, j=0, coincident=True, seed=1)
@example(n=4, d=2, k=3, j=2, coincident=True, seed=2)
def test_masked_stiffness_equals_stiffness_of_each_case_bit_for_bit(n, d, k, j, coincident, seed):
    """n = 2..20 takes both assembly paths; K_n and a random spanning
    subgraph of it share the shape (n, d); each member is at its own scale,
    1e-200, 1 or 1e200, and may repeat a point."""
    rng = np.random.default_rng(seed)
    full = complete_graph(n)
    for g in (full, subgraph(full, rng.random(full.m) < 0.5)):
        points = rng.standard_normal((k, n, d)) * 10.0 ** rng.choice([-200, 0, 200], size=(k, 1, 1))
        if coincident:
            points[:, -1] = points[:, 0]
        keep = rng.random((k, j, g.m)) < 0.5
        L = masked_stiffness(g, points, keep)
        assert L.shape == (k, j, n * d, n * d) and L.dtype == float
        for i in range(k):
            p = Placement(points[i])
            assert bit_equal(L[i], stiffness(g, p, keep[i]))
            for h in range(j):
                assert bit_equal(L[i, h], stiffness(subgraph(g, keep[i, h]), p))


def _stack_refusal(shape: str) -> str:
    return f"points must be a (k, 4, d) stack of placements with d >= 1, got shape {shape}"


def _mask_refusal(k: int) -> str:
    return f"keep must be a ({k}, j, 6) boolean array of masks over the edges of g"


@pytest.mark.parametrize(
    "points,keep,message",
    [
        (np.zeros((4, 2)), np.ones((1, 1, 6), dtype=bool), _stack_refusal("(4, 2)")),
        (np.zeros((1, 5, 2)), np.ones((1, 1, 6), dtype=bool), _stack_refusal("(1, 5, 2)")),
        (np.zeros((1, 4, 0)), np.ones((1, 1, 6), dtype=bool), _stack_refusal("(1, 4, 0)")),
        (np.zeros((2, 4, 2)), np.ones((1, 1, 6), dtype=bool), _mask_refusal(2)),
        (np.zeros((1, 4, 2)), np.ones((1, 6), dtype=bool), _mask_refusal(1)),
        (np.zeros((1, 4, 2)), np.ones((1, 1, 6), dtype=int), _mask_refusal(1)),
        (np.zeros((1, 4, 2)), np.ones((1, 1, 5), dtype=bool), _mask_refusal(1)),
        (np.full((1, 4, 2), np.nan), np.ones((1, 1, 6), dtype=bool), "points must be finite"),
    ],
    ids=["one-placement", "n-5", "d-0", "k-mismatch", "no-j-axis", "int", "m-5", "nan"],
)
def test_masked_stiffness_refuses_a_stack_that_does_not_fit_g(points, keep, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        masked_stiffness(complete_graph(4), points, keep)


def test_block_index_is_cached_read_only_and_addresses_the_blocks():
    g = turan_graph(6, 3)[0]
    for d in (1, 3):
        diag, off = g.block_index(d)
        assert g.block_index(d)[0] is diag and g.block_index(d)[1] is off
        for a in (diag, off):
            assert a.shape == (2, g.m, d, d) and a.flags.c_contiguous and not a.flags.writeable
            with pytest.raises(ValueError):
                a[0, 0, 0, 0] = 0
        side = g.n * d
        for k, (u, v) in enumerate(g.edges):
            for s, (w, x) in enumerate(((u, v), (v, u))):
                rows, cols = np.divmod(diag[s, k], side)
                assert np.array_equal(rows, w * d + np.arange(d)[:, None] + 0 * cols)
                assert np.array_equal(cols, w * d + np.arange(d) + 0 * rows)
                rows, cols = np.divmod(off[s, k], side)
                assert np.array_equal(rows, w * d + np.arange(d)[:, None] + 0 * cols)
                assert np.array_equal(cols, x * d + np.arange(d) + 0 * rows)
    assert g.block_index(1)[0] is not g.block_index(3)[0]
    assert Graph(3, ()).block_index(2)[0].shape == (2, 0, 2, 2)


def assert_assemblies_bit_symmetric(n, d, seed):
    """Every matrix that the package assembles for K_n and for a random
    spanning subgraph of it, at _stack_members placements in R^d (coincident
    points included), is finite and equal to its transpose bit for bit: each
    member of a _stiffness_geometry stack, stiffness alone and under two
    masks, lower_stiffness_direct, and the stack under those two masks
    (masked_stiffness)."""
    rng = np.random.default_rng(seed)
    full = complete_graph(n)
    stack = _stack_members(rng, n, d, 4)
    for g in (full, subgraph(full, rng.random(full.m) < 0.5)):
        masks = rng.random((2, g.m)) < 0.5
        matrices = list(_stiffness_geometry(g, stack)[0])
        for pts in stack:
            p = Placement(pts)
            matrices += [stiffness(g, p), *stiffness(g, p, masks), lower_stiffness_direct(g, p)]
        matrices += list(masked_stiffness(g, stack, np.stack([masks] * len(stack))).reshape(-1, n * d, n * d))
        for M in matrices:
            assert np.isfinite(M).all()
            assert bit_equal(M, M.T)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(3, 33), d=st.integers(2, 4), seed=st.integers(0, 2**32 - 1))
def test_every_assembled_matrix_is_finite_and_bit_symmetric(n, d, seed):
    """The guarantee under which spectral_gap, interlacing_checks, the top-n
    sum and the circle sweep solve their matrices without the symmetry
    check; n = 3..33 takes both assembly paths."""
    assert_assemblies_bit_symmetric(n, d, seed)


def test_every_assembled_matrix_is_bit_symmetric_with_two_blas_threads():
    # the sweep above over every (n, d) at one seed, in one process whose
    # BLAS pool has two threads
    tests = Path(__file__).resolve().parent
    code = "import test_framework as t\nfor n in range(3, 34):\n    for d in range(2, 5):\n        t.assert_assemblies_bit_symmetric(n, d, 7)"
    threads = dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "2")
    path = os.pathsep.join([str(tests), str(tests.parent / "src")])
    subprocess.run([sys.executable, "-c", code], env={**os.environ, **threads, "PYTHONPATH": path}, check=True)
