import contextlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adconn import spectral
from adconn.bounds import top_eigenvalue_sum_checks
from adconn.framework import BLOCK_ASSEMBLY_MIN_VERTICES, Placement, lower_stiffness_direct, stiffness
from adconn.graphs import Graph, complete_graph, make_graph, turan_graph
from adconn.placements import (
    crosspolytope_placement,
    random_sphere_placement,
    regular_simplex,
    roots_of_unity_angles,
    turan_simplex_placement,
    unit_circle_placement,
)
from adconn.spectral import (
    LOW_RANK_MIN_SIZE,
    LOW_RANK_PIVOT_DIVISOR,
    SYMMETRY_TILE,
    MultiplicitySpectrum,
    cluster_multiplicities,
    clustered_spectrum,
    interlacing_checks,
    numeric_rank,
    spectral_gap,
    symmetric_eigenvalues,
    trivial_motion_count,
)
from adconn.verify import run_suite

from conftest import random_placement, without_edge
from test_framework import random_graph, subgraph


def test_stack_chunks_keep_the_order_within_the_budget_and_one_member_at_least(monkeypatch):
    monkeypatch.setattr(spectral, "STACK_BUDGET_BYTES", 100)
    members = list(range(7))
    assert spectral.stack_chunks(members, 30) == [[0, 1, 2], [3, 4, 5], [6]]
    assert spectral.stack_chunks(members, 100) == [[k] for k in members]
    assert spectral.stack_chunks(members, 101) == [[k] for k in members]
    assert spectral.stack_chunks(members, 10) == [members]
    assert spectral.stack_chunks([], 30) == []


def test_symmetric_eigenvalues_2x2_closed_form():
    # eigenvalues of [[a, b], [b, a]] are a -+ b
    np.testing.assert_allclose(
        symmetric_eigenvalues([[2.0, 0.5], [0.5, 2.0]]), [1.5, 2.5], atol=1e-14
    )


def test_symmetric_eigenvalues_zero_matrix():
    for k in (0, 1, 4, 7):
        np.testing.assert_array_equal(symmetric_eigenvalues(np.zeros((k, k))), np.zeros(k))


def test_symmetric_eigenvalues_equilateral_lower_stiffness():
    Lm = lower_stiffness_direct(complete_graph(3), regular_simplex(2))
    np.testing.assert_allclose(symmetric_eigenvalues(Lm), [1.5, 1.5, 3.0], atol=1e-12)


def test_symmetric_eigenvalues_rejects_asymmetric():
    with pytest.raises(ValueError, match="symmetric"):
        symmetric_eigenvalues([[0.0, 1.0], [0.0, 0.0]])


def _random_symmetric(m):
    A = np.random.default_rng(m).standard_normal((m, m))
    return A + A.T


# (row, column) pairs in a tile off the diagonal, and in the ragged last tile
# (257 = 2 * 128 + 1, 300 = 2 * 128 + 44), on either side of the diagonal; at
# two tiles (129 = 128 + 1, 200 = 128 + 72) the last row or column is ragged
ASYMMETRIC_ENTRIES = {
    "off-diagonal-tile": (5, 200),
    "mirrored-off-diagonal-tile": (200, 5),
    "ragged-row": (256, 40),
    "ragged-column": (100, 256),
}
# sizes of one tile (m <= SYMMETRY_TILE), of two (below LOW_RANK_MIN_SIZE,
# where the checked solve is one eigvalsh call) and of three; a 1 x 1 matrix
# has no entry off the diagonal, so the asymmetry tests start at 2
ONE_TILE_SIZES = [2, 12, SYMMETRY_TILE]
TWO_TILE_SIZES = [SYMMETRY_TILE + 1, 200]
TILED_SIZES = TWO_TILE_SIZES + [257, 300]


def _entry(entry, m):
    """ASYMMETRIC_ENTRIES[entry] in an m x m matrix: in a smaller matrix the
    larger index is clipped to m - 1 and the smaller to m - 2, so the entry
    stays off the diagonal and on its side of it (at m = 1, on the diagonal)."""
    r, c = ASYMMETRIC_ENTRIES[entry]
    if r < c:
        return max(min(r, m - 2), 0), min(c, m - 1)
    return min(r, m - 1), max(min(c, m - 2), 0)


def _asymmetry_message(M):
    asym = float(np.max(np.abs(M - M.T)))
    return "^" + re.escape(f"matrix is not symmetric: max |M - M^t| = {asym:.3e}") + "$"


@pytest.mark.parametrize("m", ONE_TILE_SIZES + TILED_SIZES)
@pytest.mark.parametrize("entry", ASYMMETRIC_ENTRIES)
def test_tiled_symmetry_check_reports_the_exact_asymmetry(m, entry):
    assert m <= SYMMETRY_TILE or SYMMETRY_TILE < m < LOW_RANK_MIN_SIZE or 2 * SYMMETRY_TILE < m < 3 * SYMMETRY_TILE
    M = _random_symmetric(m)
    M[_entry(entry, m)] += 1e-6
    with pytest.raises(ValueError, match=_asymmetry_message(M)):
        symmetric_eigenvalues(M)


@pytest.mark.parametrize("m", ONE_TILE_SIZES + TILED_SIZES)
def test_tiled_symmetry_threshold_scales_with_the_peak_of_any_tile(m):
    # from three tiles on, the largest entry sits in a different tile from the asymmetry
    M = _random_symmetric(m)
    M[min(10, m - 2), m - 1] = M[m - 1, min(10, m - 2)] = 1e6
    at = _entry("off-diagonal-tile", m)
    M[at] += 0.9e-12 * 1e6
    symmetric_eigenvalues(M)
    M[at] += 0.2e-12 * 1e6
    with pytest.raises(ValueError, match=_asymmetry_message(M)):
        symmetric_eigenvalues(M)


_NONFINITE = {"nan": np.nan, "inf": np.inf, "minus-inf": -np.inf}
# (value, m): three tiles, or one or two tiles where the id names the size
NONFINITE_ENTRIES = {name: (v, 300) for name, v in _NONFINITE.items()} | {
    f"{name}-m{m}": (v, m) for name, v in _NONFINITE.items() for m in (1, 12, SYMMETRY_TILE, *TWO_TILE_SIZES)
}


@pytest.mark.parametrize("case", NONFINITE_ENTRIES)
@pytest.mark.parametrize("entry", ASYMMETRIC_ENTRIES)
def test_tiled_check_refuses_a_nonfinite_entry_in_one_tile(case, entry):
    value, m = NONFINITE_ENTRIES[case]
    M = _random_symmetric(m)
    M[_entry(entry, m)] = value
    with pytest.raises(ValueError, match="^matrix must be finite$"):
        symmetric_eigenvalues(M)


def _low_rank_psd(m, rank, seed):
    A = np.random.default_rng(seed).standard_normal((m, rank))
    return A @ A.T


@pytest.mark.parametrize("m", [1, 12, SYMMETRY_TILE, *TWO_TILE_SIZES, LOW_RANK_MIN_SIZE - 1])
def test_below_the_low_rank_size_the_checked_solve_is_one_eigvalsh_call(m):
    # one matrix of each kind the route is built for or declines, at every
    # scale, gets eigvalsh's bits from one call at its own size
    for M in (_random_symmetric(m), _low_rank_psd(m, max(1, m // 10), m), np.zeros((m, m)),
              1e200 * _low_rank_psd(m, 2, m + 1), 1e-200 * _random_symmetric(m)):
        with eigvalsh_sizes() as sizes:
            eigs = symmetric_eigenvalues(M)
        assert sizes == [m]
        assert eigs.tobytes() == np.linalg.eigvalsh(M).tobytes()


LARGE_LOWER_FRAMEWORKS = {
    "turan:48,6@crosspolytope:48,3": lambda: (turan_graph(48, 6)[0], crosspolytope_placement(48, 3)),
    "turan:48,4@turan-simplex:48,3": lambda: (turan_graph(48, 4)[0], turan_simplex_placement(48, 3)),
    "complete:48@circle:48": lambda: (complete_graph(48), unit_circle_placement(roots_of_unity_angles(48)).placement),
}


@contextlib.contextmanager
def eigvalsh_sizes():
    """Records the size of every matrix handed to np.linalg.eigvalsh."""
    sizes = []
    full = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        sizes.append(np.shape(a)[-1])
        return full(a, *args, **kwargs)

    np.linalg.eigvalsh = spy
    try:
        yield sizes
    finally:
        np.linalg.eigvalsh = full


def _scale(M):
    return max(1.0, float(np.max(np.abs(M))))


@pytest.mark.parametrize("label", LARGE_LOWER_FRAMEWORKS)
def test_low_rank_route_matches_eigvalsh_on_large_lower_stiffness(label):
    M = lower_stiffness_direct(*LARGE_LOWER_FRAMEWORKS[label]())
    reference = np.linalg.eigvalsh(M)
    with eigvalsh_sizes() as sizes:
        eigs = symmetric_eigenvalues(M)
    # the route answered: no eigensolve of a matrix above the pivot budget
    assert sizes and max(sizes) <= len(M) // LOW_RANK_PIVOT_DIVISOR
    assert np.all(np.diff(eigs) >= 0)
    np.testing.assert_allclose(eigs, reference, rtol=0, atol=1e-12 * _scale(M))


@settings(max_examples=25, deadline=None)
# entries of M near 1e-14: a pivot floor of m eps max(1, max|M|) stopped at k = 0
# and dropped an eigenvalue of 1.1e-12
@example(m=256, rank_share=0.125, exponent=-24, seed=2)
@given(
    m=st.integers(LOW_RANK_MIN_SIZE, 400),
    rank_share=st.floats(0, 1),
    exponent=st.integers(-30, 30),
    seed=st.integers(0, 2**32 - 1),
)
def test_low_rank_route_matches_eigvalsh_on_random_psd(m, rank_share, exponent, seed):
    # up to the pivot budget, so that the route can answer every matrix drawn
    rank = int(rank_share * (m // LOW_RANK_PIVOT_DIVISOR))
    A = np.ldexp(np.random.default_rng(seed).standard_normal((m, rank)), exponent)
    M = A @ A.T
    reference = np.linalg.eigvalsh(M)
    with eigvalsh_sizes() as sizes:
        eigs = symmetric_eigenvalues(M)
    assert sizes and max(sizes) <= m // LOW_RANK_PIVOT_DIVISOR
    assert np.all(np.diff(eigs) >= 0)
    np.testing.assert_allclose(eigs, reference, rtol=0, atol=1e-12 * _scale(M))


@pytest.fixture
def low_rank_calls(monkeypatch):
    """Records the answer of each call of the low-rank route, and passes it on."""
    calls = []
    route = spectral._low_rank_eigenvalues

    def spy(*args):
        calls.append(route(*args))
        return calls[-1]

    monkeypatch.setattr(spectral, "_low_rank_eigenvalues", spy)
    return calls


def _k96_stiffness():
    # rank 282 of 288, far above the pivot budget of 72
    return stiffness(complete_graph(96), random_sphere_placement(96, 3, 0))


def test_nearly_full_rank_stiffness_falls_back_to_eigvalsh(low_rank_calls):
    M = _k96_stiffness()
    eigs = symmetric_eigenvalues(M)
    # the factorization runs out of pivots and the route declines
    assert len(low_rank_calls) == 1 and low_rank_calls[0] is None
    np.testing.assert_array_equal(eigs, np.linalg.eigvalsh(M))


@pytest.mark.parametrize("scale", [2.0**-600, 2.0**600], ids=["tiny", "huge"])
def test_eigenvalues_at_extreme_scales(scale):
    M = scale * _k96_stiffness()
    np.testing.assert_array_equal(symmetric_eigenvalues(M), np.linalg.eigvalsh(M))
    A = np.random.default_rng(4).standard_normal((300, 10))
    R = A @ A.T
    M = scale * R
    np.testing.assert_allclose(
        symmetric_eigenvalues(M), np.linalg.eigvalsh(M), rtol=0, atol=1e-12 * scale * _scale(R)
    )


@pytest.mark.parametrize("m", [256, 300, 384, 513])
def test_panel_residual_equals_the_full_residual(m):
    # 256 and 384 are multiples of SYMMETRY_TILE, 300 and 513 end on a ragged panel
    rng = np.random.default_rng(m)
    A = rng.standard_normal((m, 12))
    M = A @ A.T
    # factors whose residual lies far above rounding: none, a nearby one, an unrelated one
    for Lt in (np.empty((0, m)), A.T + 1e-3 * rng.standard_normal((12, m)), rng.standard_normal((12, m))):
        full = np.linalg.norm(Lt.T @ Lt - M)
        assert spectral._residual_norm(Lt, M) == pytest.approx(full, rel=1e-12, abs=0)


def _rows_that_never_pivot(m, i, j):
    """A rank-5 PSD matrix with zero rows and columns i and j, whose zero
    diagonal entries never pivot, joined by a symmetric 1e-8 pair that no
    factor reproduces."""
    M = np.zeros((m, m))
    keep = np.setdiff1d(np.arange(m), (i, j))
    A = np.random.default_rng(m).standard_normal((m - 2, 5))
    M[np.ix_(keep, keep)] = A @ A.T
    M[i, j] = M[j, i] = 1e-8
    return M


@pytest.mark.parametrize(
    "i,j", [(290, 10), (140, 200)], ids=["last-panel-below-its-diagonal-block", "inside-a-diagonal-block"]
)
def test_residual_between_rows_that_never_pivot_refuses_the_route(low_rank_calls, i, j):
    M = _rows_that_never_pivot(300, i, j)
    with eigvalsh_sizes() as sizes:
        eigs = symmetric_eigenvalues(M)
    assert len(low_rank_calls) == 1 and 300 in sizes
    np.testing.assert_array_equal(eigs, np.linalg.eigvalsh(M))
    # without the pair the route answers
    M[i, j] = M[j, i] = 0.0
    with eigvalsh_sizes() as sizes:
        symmetric_eigenvalues(M)
    assert len(low_rank_calls) == 2 and 300 not in sizes


def test_low_rank_route_sorts_a_tiny_negative_gram_eigenvalue(monkeypatch):
    # rounding may give the Gram matrix L^t L a tiny negative eigenvalue, which
    # must land before the m - k zeros
    full = np.linalg.eigvalsh

    def rounded(a):
        eigs = full(a)
        if len(a) < 300:
            eigs[0] = -1e-15
        return eigs

    monkeypatch.setattr(np.linalg, "eigvalsh", rounded)
    A = np.random.default_rng(5).standard_normal((300, 4))
    eigs = symmetric_eigenvalues(A @ A.T)
    assert eigs[0] == -1e-15 and np.all(np.diff(eigs) >= 0)
    assert clustered_spectrum(A @ A.T).multiplicities()[0] == 297


def _full_rank_psd(m=300):
    A = np.random.default_rng(3).standard_normal((m, m))
    return A @ A.T + np.eye(m)


def _indefinite_plus_zero(m=300):
    # the Cholesky steps "succeed" on [[1, 2], [2, 1]] + 0, leaving residual 3
    M = np.zeros((m, m))
    M[:2, :2] = [[1.0, 2.0], [2.0, 1.0]]
    return M


def _overflowing_gram(m=300):
    # L L^t reproduces M exactly, but the 1 x 1 matrix L^t L = m 2^1016 overflows
    return np.full((m, m), 2.0**1016)


@pytest.mark.parametrize(
    "build", [_full_rank_psd, _indefinite_plus_zero, _overflowing_gram], ids=["full-rank", "indefinite", "overflow"]
)
def test_uncertified_large_matrices_get_the_full_eigensolve(build):
    M = build()
    np.testing.assert_array_equal(symmetric_eigenvalues(M), np.linalg.eigvalsh(M))


def test_large_zero_matrix_takes_the_route():
    with eigvalsh_sizes() as sizes:
        eigs = symmetric_eigenvalues(np.zeros((300, 300)))
    np.testing.assert_array_equal(eigs, np.zeros(300))
    assert 300 not in sizes


def _nan_at_300():
    M = np.eye(300)
    M[150, 7] = M[7, 150] = np.nan
    return M


NONFINITE_MATRICES = {
    "inf-diagonal": [[np.inf, 0.0], [0.0, 1.0]],
    "minus-inf-diagonal": [[1.0, 0.0], [0.0, -np.inf]],
    "nan-off-diagonal": [[1.0, np.nan], [np.nan, 1.0]],
    "all-nan": np.full((3, 3), np.nan),
    "nan-at-300": _nan_at_300(),
}


@pytest.mark.parametrize("case", NONFINITE_MATRICES)
@pytest.mark.parametrize(
    "function",
    [symmetric_eigenvalues, clustered_spectrum, numeric_rank],
    ids=["eigenvalues", "clustered", "rank"],
)
def test_nonfinite_matrices_are_refused(function, case):
    with pytest.raises(ValueError, match="matrix must be finite"):
        function(NONFINITE_MATRICES[case])


@pytest.mark.parametrize("eigs", [[0.0, np.nan, 1.0], [np.nan], [0.0, np.inf], [-np.inf, 0.0]])
def test_cluster_multiplicities_refuses_nonfinite_eigenvalues(eigs):
    with pytest.raises(ValueError, match="eigenvalues must be finite"):
        cluster_multiplicities(eigs, 1e-8)


def test_cluster_multiplicities_examples():
    ms = cluster_multiplicities([0.0, 1e-12, 1.0], tol=1e-8)
    assert ms.multiplicities() == (2, 1)
    assert ms.values()[0] == pytest.approx(0.0, abs=1e-12)
    assert ms.values()[1] == 1.0
    assert ms.total == 3


def test_cluster_multiplicities_simplex_spectrum():
    ms = clustered_spectrum(stiffness(complete_graph(4), regular_simplex(3)), tol=1e-8)
    assert ms.multiplicities() == (6, 2, 3, 1)
    np.testing.assert_allclose(ms.values(), [0.0, 1.0, 2.0, 4.0], atol=1e-9)


def test_cluster_merges_coinciding_crosspolytope_values():
    # at n=8, d=2 the n/d and n/2 clusters coincide at 4
    g, _ = turan_graph(8, 4)
    ms = clustered_spectrum(stiffness(g, crosspolytope_placement(8, 2)))
    assert ms.multiplicities() == (3, 4, 8, 1)
    np.testing.assert_allclose(ms.values(), [0.0, 2.0, 4.0, 8.0], atol=1e-9)


def test_cluster_rejects_unsorted():
    with pytest.raises(ValueError, match="sorted"):
        cluster_multiplicities([1.0, 0.0], tol=1e-8)


@pytest.mark.parametrize(
    "clusters", [((np.nan, 1),), ((0.0, 1), (np.inf, 1)), ((-np.inf, 2), (1.0, 1))], ids=["nan", "inf", "minus-inf"]
)
def test_a_spectrum_refuses_nonfinite_values(clusters):
    # a NaN passes the increasing test, which compares it to nothing
    with pytest.raises(ValueError, match="^cluster values must be finite$"):
        MultiplicitySpectrum(clusters, sum(m for _, m in clusters), 0.0)


@pytest.mark.parametrize("tol", [-5.0, -1e-300, np.nan, np.inf])
def test_a_spectrum_refuses_the_tolerances_that_clustering_refuses(tol):
    message = f"clustering tolerance must be finite and >= 0, got {tol}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        MultiplicitySpectrum(((1.0, 1),), 1, tol)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        cluster_multiplicities([1.0], tol)


def test_a_spectrum_keeps_the_multiplicities_it_is_given():
    spectrum = MultiplicitySpectrum(((0.0, 3), (1.5, 1)), 4, 1e-8)
    assert spectrum.clusters == ((0.0, 3), (1.5, 1))
    assert [type(m) for m in spectrum.multiplicities()] == [int, int]
    for m, message in [(0, "multiplicity must be >= 1, got 0"), (-2, "multiplicity must be >= 1, got -2"),
                       (True, "multiplicity must be an integer, got True")]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MultiplicitySpectrum(((1.0, m),), 1, 0.0)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=40),
    st.floats(min_value=1e-12, max_value=1.0),
)
def test_cluster_multiplicities_properties(values, tol):
    eigs = sorted(values)
    ms = cluster_multiplicities(eigs, tol)
    assert ms.total == len(eigs)
    vals = ms.values()
    assert all(b - a > tol for a, b in zip(vals, vals[1:]))
    assert all(m >= 1 for m in ms.multiplicities())


def _with_a_negative_peak(m):
    M = _random_symmetric(m)
    M[10, m - 1] = M[m - 1, 10] = -3e5
    return M


@pytest.mark.parametrize(
    "M",
    [
        np.zeros((0, 0)),
        np.diag([0.25, -0.5]),
        np.array([[-7.0, 1.0], [1.0, 2.0]]),
        _with_a_negative_peak(12),
        _with_a_negative_peak(300),
    ],
    ids=["empty", "below-one", "negative-peak", "one-tile", "tiled"],
)
def test_clustered_spectrum_default_tolerance_is_default_cluster_tol(M):
    assert clustered_spectrum(M).cluster_tol == 1e-8 * max(1, np.abs(M).max(initial=0.0))


def test_spectrum_csv_and_json():
    ms = clustered_spectrum(np.diag([0.0, 0.0, 2.0]))
    lines = ms.to_csv().strip().splitlines()
    assert lines == ["0.0,2", "2.0,1"]
    obj = ms.to_json_dict()
    assert obj["total"] == 3 and obj["cluster_tol"] > 0


@pytest.mark.parametrize(
    "graph,placement,expected",
    [
        (complete_graph(4), regular_simplex(3), 1.0),
        (complete_graph(3), regular_simplex(2), 1.5),
        (turan_graph(12, 6)[0], crosspolytope_placement(12, 3), 2.0),
    ],
)
def test_spectral_gap_known_values(graph, placement, expected):
    assert spectral_gap(graph, placement) == pytest.approx(expected, abs=1e-9)


def test_spectral_gap_rejects_small_n():
    with pytest.raises(ValueError):
        spectral_gap(complete_graph(3), regular_simplex(3))


def test_spectral_gap_similarity_invariance(rng):
    g = complete_graph(5)
    p = random_placement(rng, 5, 3)
    gap = spectral_gap(g, p)
    U = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    q = Placement(2.5 * p.points @ U.T + rng.standard_normal(3))
    assert spectral_gap(g, q) == pytest.approx(gap, abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 9), d=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_spectra_do_not_depend_on_vertex_labels(n, d, seed):
    # vertex v is relabelled perm[v]: the edges go through make_graph and row
    # v of the placement moves to row perm[v]
    rng = np.random.default_rng(seed)
    g, p = random_graph(rng, n), random_placement(rng, n, d)
    perm = [int(v) for v in rng.permutation(n)]
    h = make_graph(n, [(perm[u], perm[v]) for u, v in g.edges])
    moved = np.empty_like(p.points)
    moved[perm] = p.points
    q = Placement(moved)
    for assemble in (stiffness, lower_stiffness_direct):
        L = assemble(g, p)
        np.testing.assert_allclose(
            symmetric_eigenvalues(assemble(h, q)), symmetric_eigenvalues(L), rtol=0, atol=1e-9 * _scale(L)
        )
    if n > d:
        assert abs(spectral_gap(h, q) - spectral_gap(g, p)) <= 1e-9 * _scale(stiffness(g, p))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), d=st.integers(1, 4), k=st.sampled_from([3, 4]), seed=st.integers(0, 2**32 - 1))
def test_repeated_points_scale_the_spectrum_by_k_over_2(data, d, k, seed):
    """K_kn with k copies of each of n generic base points p_i: the gap and
    the set of nonzero eigenvalues are k/2 times those of K_2n.

    Write a motion v as v_ia = m_i + w_ia (copy a of point i) with
    sum_a w_ia = 0, and let u_ij be the unit direction from p_i to p_j.
    Edges between copies of one point have no direction and add nothing, and
    for every other pair of points the cross terms vanish:
        sum_ab (u_ij . (v_ia - v_jb))^2
            = k^2 (u_ij . (m_i - m_j))^2 + k sum_a (u_ij . w_ia)^2 + k sum_b (u_ij . w_jb)^2.
    As |v|^2 = k |m|^2 + |w|^2, the spectrum is k spec(L_n(p)) together with
    k spec(D_i), each k - 1 times, where D_i = sum_{j != i} u_ij u_ij^T.
    Every part is k times a set that does not depend on k, and for k >= 2
    every part is present, so the gap and the nonzero eigenvalues of K_kn are
    k/2 times those of K_2n.  (At k = 1 the D_i are absent.)"""
    n = data.draw(st.integers(d + 1, 6), label="n")
    base = np.random.default_rng(seed).standard_normal((n, d))
    t = spectral.trivial_motion_count(d)

    def tiled(copies):
        g, p = complete_graph(copies * n), Placement(np.tile(base, (copies, 1)))
        return spectral_gap(g, p), symmetric_eigenvalues(stiffness(g, p))[t:]

    gap2, nonzero2 = tiled(2)
    gapk, nonzerok = tiled(k)
    rhs = k / 2 * gap2
    assert abs(gapk - rhs) <= 1e-8 * max(1.0, abs(rhs))
    scaled = k / 2 * nonzero2
    tol = 1e-8 * max(1.0, nonzerok[-1])
    assert np.abs(nonzerok[:, None] - scaled[None, :]).min(axis=1).max() <= tol
    assert np.abs(scaled[:, None] - nonzerok[None, :]).min(axis=1).max() <= tol


def test_numeric_rank():
    assert numeric_rank(np.eye(5)) == 5
    assert numeric_rank(np.zeros((3, 4))) == 0
    assert numeric_rank(np.outer([1.0, 2.0], [3.0, 4.0])) == 1
    from adconn.framework import rigidity_matrix

    assert numeric_rank(rigidity_matrix(complete_graph(4), regular_simplex(3))) == 6


def test_interlacing_equilateral_frozen_values():
    # removing one edge of the equilateral triangle leaves a 60-degree hinge, whose
    # edge-basis matrix [[2, 1/2], [1/2, 2]] has eigenvalues 3/2 and 5/2
    hinge = np.linalg.eigvalsh([[2.0, 0.5], [0.5, 2.0]])
    np.testing.assert_allclose(hinge, [1.5, 2.5], atol=1e-14)
    g = complete_graph(3)
    p = regular_simplex(2)
    lam_prime = symmetric_eigenvalues(stiffness(make_graph(3, [(0, 2), (1, 2)]), p))
    np.testing.assert_allclose(lam_prime, [0, 0, 0, 0, 1.5, 2.5], atol=1e-12)
    for e in g.edges:
        ok, worst = interlacing_check(g, e, p)
        assert ok and worst <= 1e-12


def test_interlacing_constant_placement():
    g = complete_graph(4)
    ok, worst = interlacing_check(g, (0, 1), Placement(np.zeros((4, 3))))
    assert ok and worst == 0.0


def test_interlacing_rejects_missing_edge():
    g = make_graph(3, [(0, 1)])
    with pytest.raises(ValueError):
        interlacing_check(g, (0, 2), Placement(np.zeros((3, 2))))


def test_interlacing_random_sweep(rng):
    for _ in range(100):
        n = int(rng.integers(4, 11))
        d = int(rng.integers(1, 5))
        g = random_graph(rng, n)
        e = g.edges[int(rng.integers(g.m))]
        p = random_placement(rng, n, d)
        ok, worst = interlacing_check(g, e, p)
        assert ok, f"violation {worst} on n={n}, d={d}, e={e}"


def test_nonzero_spectra_of_upper_and_lower_agree(rng):
    instances = [
        (complete_graph(4), regular_simplex(3)),
        (turan_graph(8, 4)[0], turan_simplex_placement(8, 3)),
        (turan_graph(12, 6)[0], crosspolytope_placement(12, 3)),
    ]
    for _ in range(100):
        n = int(rng.integers(2, 9))
        d = int(rng.integers(1, 5))
        instances.append((random_graph(rng, n), random_placement(rng, n, d)))
    for g, p in instances:
        upper = clustered_spectrum(stiffness(g, p), tol=1e-7)
        lower = clustered_spectrum(lower_stiffness_direct(g, p), tol=1e-7) if g.m else None
        up = [(v, m) for v, m in upper.clusters if v > 1e-7]
        lo = [(v, m) for v, m in lower.clusters if v > 1e-7] if lower else []
        assert len(up) == len(lo)
        for (uv, um), (lv, lm) in zip(up, lo):
            assert um == lm
            assert uv == pytest.approx(lv, abs=1e-9)


def test_gap_continuity_under_perturbation(rng):
    # gap differences shrink with the perturbation along fixed directions; the
    # slope fitted at the two coarser levels bounds the finest level (modest
    # headroom for curvature between scales)
    g = complete_graph(6)
    deltas = (1e-3, 1e-4, 1e-5)
    for _ in range(3):
        p = random_placement(rng, 6, 3)
        gap = spectral_gap(g, p)
        bumps = [rng.standard_normal((6, 3)) for _ in range(5)]
        diffs = {
            delta: np.mean(
                [abs(spectral_gap(g, Placement(p.points + delta * u)) - gap) for u in bumps]
            )
            for delta in deltas
        }
        assert diffs[1e-3] >= diffs[1e-4] >= diffs[1e-5]
        slope = max(diffs[1e-3] / 1e-3, diffs[1e-4] / 1e-4)
        assert diffs[1e-5] <= 1.25 * slope * 1e-5


@pytest.mark.parametrize("solve", [symmetric_eigenvalues, clustered_spectrum], ids=["eigenvalues", "clustered"])
def test_checked_solves_refuse_a_stack_before_any_walk(solve):
    # a stack is refused by its shape, before the walk could find its NaN
    stack = np.zeros((2, 3, 3))
    stack[1, 2, 0] = np.nan
    with pytest.raises(ValueError, match=r"^matrix must be square, got shape \(2, 3, 3\)$"):
        solve(stack)


def interlacing_check(g, e, p):
    """One framework's sandwich, as a one-case batch that keeps every edge."""
    return interlacing_checks([(g, e, p, np.ones(g.m, dtype=bool))])[0]


def _interlacing_oracle(g, e, p):
    """interlacing_checks' worst violation from two separate assemblies and
    eigensolves, one of them on the graph with e removed."""
    lam = np.linalg.eigvalsh(stiffness(g, p))
    lam_prime = np.linalg.eigvalsh(stiffness(without_edge(g, e), p))
    lam_shift = np.concatenate(([0.0], lam[:-1]))
    return float(max(np.max(lam_shift - lam_prime), np.max(lam_prime - lam)))


def _interlacing_cases(rng):
    """(g, e, p): mixed n and d, coincident points, 1e+-200 scales, edges
    given in either order, and one framework whose matrices take the tiled check."""
    cases = [(complete_graph(2), (1, 0), Placement([[0.0], [1.0]]))]
    for _ in range(60):
        n, d = int(rng.integers(2, 11)), int(rng.integers(1, 5))
        g = random_graph(rng, n)
        pts = rng.standard_normal((n, d)) * 10.0 ** rng.choice([-200, 0, 200])
        if rng.random() < 0.3:
            pts[-1] = pts[0]
        e = g.edges[int(rng.integers(g.m))]
        cases.append((g, e[::-1] if rng.random() < 0.5 else e, Placement(pts)))
    # 27 x 5 = 135 rows: the two stiffness matrices take the tiled check
    cases.append((complete_graph(27), (3, 20), random_placement(rng, 27, 5)))
    return cases


def test_interlacing_equals_removing_the_edge_bit_for_bit(rng):
    for g, e, p in _interlacing_cases(rng):
        ok, worst = interlacing_check(g, e, p)
        want = _interlacing_oracle(g, e, p)
        assert repr(worst) == repr(want) and ok == (want <= 1e-9)


def test_one_batch_equals_removing_each_edge_bit_for_bit(rng):
    # every case of the test above in one call, then each case again as a
    # spanning subgraph of K_n, named by a mask over its edges
    cases = [(g, e, p, np.ones(g.m, dtype=bool)) for g, e, p in _interlacing_cases(rng)]
    for g, e, p, _ in list(cases):
        full = complete_graph(g.n)
        cases.append((full, e, p, np.array([f in g.edge_index for f in full.edges])))
    wants = [_interlacing_oracle(g, e, p) for g, e, p, _ in cases[:62]] * 2
    results = interlacing_checks(cases)
    assert len(results) == len(wants) == 2 * 62
    for (ok, worst), want in zip(results, wants):
        assert repr(worst) == repr(want) and ok == (want <= 1e-9)


def traced_peak(call):
    """call's result and the peak of the memory it allocates, in bytes."""
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_symmetry_walk_holds_one_tile_pair_of_temporaries_and_refuses_nonfinite_first():
    # a 600 x 600 matrix takes 2.7 MiB, and M - M^t as one temporary would
    # take as much again; the walk holds the absolute values of one tile and
    # one tile's difference at a time, 128 KiB each, and returns max|M| as a float
    M = _random_symmetric(600)
    (_, peak_of_m), peak = traced_peak(lambda: spectral._require_symmetric(M))
    assert peak <= 3 * SYMMETRY_TILE**2 * 8, f"peak {peak / 2**10:.0f} KiB"
    assert type(peak_of_m) is float and peak_of_m == float(np.abs(M).max())
    bad = M.copy()
    bad[0, 599] += 1e-3
    with pytest.raises(ValueError, match="^" + re.escape("matrix is not symmetric: max |M - M^t| = 1.000e-03") + "$"):
        spectral._require_symmetric(bad)
    bad[590, 590] = np.nan  # a later tile's non-finite entry comes first
    with pytest.raises(ValueError, match="^matrix must be finite$"):
        spectral._require_symmetric(bad)


def test_interlacing_chunks_peak_under_twice_the_stack_budget(monkeypatch, rng):
    # 400 K10/d4 cases, chunks of 163 pairs under a 4 MiB budget: each chunk's
    # pairs are written into one stack, freed before the next chunk's, and
    # solved unchecked; eigenvalues and masks are small next to them
    budget = 4 << 20
    monkeypatch.setattr(spectral, "STACK_BUDGET_BYTES", budget)
    full = complete_graph(10)
    cases = []
    for _ in range(400):
        keep = rng.random(full.m) < 0.5
        keep[0] = True
        cases.append((full, full.edges[0], random_placement(rng, 10, 4), keep))
    first = interlacing_checks(cases[:2])  # and K10's index arrays, cached on the graph
    results, peak = traced_peak(lambda: interlacing_checks(cases))
    assert peak <= 2 * budget, f"peak {peak / 2**20:.2f} MiB"
    assert results[:2] == first


def test_block_assembled_interlacing_chunks_peak_under_twice_the_stack_budget(monkeypatch, rng):
    # 120 K16/d3 cases under a 1 MiB budget: framework.stack_member_bytes
    # counts a case's two matrices of side 48 and its edge geometry, 40704
    # bytes, so chunks of 25 cases; each chunk's masked directions, (25, 2,
    # m, d), and one member's block temporaries are small next to its pairs
    budget = 1 << 20
    monkeypatch.setattr(spectral, "STACK_BUDGET_BYTES", budget)
    full = complete_graph(16)
    assert full.n >= BLOCK_ASSEMBLY_MIN_VERTICES
    cases = []
    for _ in range(120):
        keep = rng.random(full.m) < 0.5
        keep[0] = True
        cases.append((full, full.edges[0], random_placement(rng, 16, 3), keep))
    first = interlacing_checks(cases[:2])  # and K16's index arrays, cached on the graph
    sizes, eigvalsh = [], np.linalg.eigvalsh

    def spy(M):
        sizes.append(M.nbytes)
        return eigvalsh(M)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    results, peak = traced_peak(lambda: interlacing_checks(cases))
    assert peak <= 2 * budget, f"peak {peak / 2**20:.2f} MiB"
    assert len(sizes) == 5 and max(sizes) <= budget
    assert results[:2] == first


def test_a_placement_that_does_not_fit_its_graph_is_refused_before_any_eigensolve(monkeypatch):
    def solved(M):
        raise AssertionError("eigensolve before the point counts are matched")

    monkeypatch.setattr(np.linalg, "eigvalsh", solved)
    # the bad case's shape (5, 2) comes after a whole group of shape (4, 2)
    full, p = complete_graph(4), Placement(np.arange(8.0).reshape(4, 2))
    good = [(full, (0, 1), p, np.ones(6, dtype=bool)), (full, (2, 3), p, np.ones(6, dtype=bool))]
    bad = (full, (0, 1), Placement(np.arange(10.0).reshape(5, 2)), np.ones(6, dtype=bool))
    with pytest.raises(ValueError, match="^placement has 5 points but graph has 4 vertices$"):
        interlacing_checks([*good, bad, *good])


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 18), d=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
@example(n=17, d=2, seed=0)
def test_a_batch_on_two_graphs_of_one_shape_equals_each_case_alone(n, d, seed):
    # K_n and a random spanning subgraph of it take turns in one batch of one
    # shape (n, d); n = 2..18 takes both assembly paths, and the placements
    # take 1e+-200 scales and coincident points
    rng = np.random.default_rng(seed)
    graphs = (complete_graph(n), random_graph(rng, n))
    cases = []
    for s in range(6):
        g = graphs[s % 2]
        j = int(rng.integers(g.m))
        keep = rng.random(g.m) < 0.6
        keep[j] = True
        pts = rng.standard_normal((n, d)) * 10.0 ** rng.choice([-200, 0, 200])
        if rng.random() < 0.3:
            pts[-1] = pts[0]
        cases.append((g, g.edges[j], Placement(pts), keep))
    for (g, e, p, keep), (ok, worst) in zip(cases, interlacing_checks(cases)):
        want = _interlacing_oracle(subgraph(g, keep), e, p)
        assert repr(worst) == repr(want) and ok == (want <= 1e-9)


def test_a_batch_solves_one_stack_per_graph_and_shape(monkeypatch, rng):
    solved, eigvalsh = [], np.linalg.eigvalsh

    def spy(M):
        solved.append(M.shape[0])
        return eigvalsh(M)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    # two graph objects on 6 vertices in R^2, then K_6 again in R^3
    graphs = (complete_graph(6), random_graph(rng, 6), complete_graph(6))
    cases = [
        (g, g.edges[0], random_placement(rng, 6, d), np.ones(g.m, dtype=bool))
        for _ in range(3)
        for g, d in zip(graphs, (2, 2, 3))
    ]
    interlacing_checks(cases)
    assert solved == [3, 3, 3]


def test_interlacing_names_the_missing_edge():
    g = make_graph(4, [(0, 1), (2, 3)])
    for u, v in ((0, 2), (2, 0)):
        with pytest.raises(ValueError, match="^" + re.escape(f"edge {{{u}, {v}}} not in graph") + "$"):
            interlacing_check(g, (u, v), Placement(np.zeros((4, 2))))


@pytest.mark.parametrize("masked", [False, True], ids=["not-in-g", "masked-out"])
def test_a_missing_edge_anywhere_in_a_batch_is_refused_before_any_eigensolve(monkeypatch, masked):
    def solved(M):
        raise AssertionError("eigensolve before the edge lookups")

    monkeypatch.setattr(np.linalg, "eigvalsh", solved)
    # the bad case's shape (4, 3) comes after a whole group of shape (4, 2)
    full, p, q = complete_graph(4), Placement(np.arange(8.0).reshape(4, 2)), Placement(np.arange(12.0).reshape(4, 3))
    good = [(full, (0, 1), p, np.ones(6, dtype=bool)), (make_graph(4, [(0, 1), (2, 3)]), (3, 2), p, [True, True])]
    if masked:  # (0, 2) is an edge of K_4 that the mask drops
        bad = (full, (2, 0), q, np.array([True, False, True, True, True, True]))
    else:
        bad = (make_graph(4, [(0, 1), (2, 3)]), (2, 0), q, np.ones(2, dtype=bool))
    with pytest.raises(ValueError, match="^" + re.escape("edge {2, 0} not in graph") + "$"):
        interlacing_checks([*good, bad, *good])


def test_assembled_stacks_are_solved_unchecked_with_the_checked_bits(monkeypatch, rng):
    # top-sum, interlacing, the circle sweep and spectral_gap solve matrices
    # that the package assembled, so none of them goes through the symmetry
    # check.  A 40-edge graph at side 86 x 3 = 258, from which the checked
    # solves try the low-rank route, gets eigvalsh's answer all the same.
    sparse = make_graph(86, [(i, i + 1) for i in range(40)])
    frameworks = [(complete_graph(12), random_placement(rng, 12, 3)), (sparse, random_placement(rng, 86, 3))]
    cases = [(g, g.edges[1], p, np.ones(g.m, dtype=bool)) for g, p in frameworks]
    placements = [random_placement(rng, n, d) for n, d in ((4, 2), (12, 3), (20, 2))]
    gaps = [repr(float(np.linalg.eigvalsh(stiffness(g, p))[trivial_motion_count(p.d)])) for g, p in frameworks]
    sandwiches = [(w <= 1e-9, w) for w in (_interlacing_oracle(g, e, p) for g, e, p, _ in cases)]
    top_sums = [float(np.sum(symmetric_eigenvalues(stiffness(complete_graph(p.n), p))[-p.n:])) for p in placements]
    circle = run_suite("circle", grid={"n": [5, 17]}, samples=2)

    def checked(M):
        raise AssertionError("an assembled stack went through the symmetry check")

    monkeypatch.setattr(spectral, "_require_symmetric", checked)
    assert [repr(spectral_gap(g, p)) for g, p in frameworks] == gaps
    assert interlacing_checks(cases) == sandwiches
    assert [c.total for c in top_eigenvalue_sum_checks(placements)] == top_sums
    assert run_suite("circle", grid={"n": [5, 17]}, samples=2) == circle


def test_only_the_checked_solves_try_the_low_rank_route(low_rank_calls):
    # at sides 288 and 256 the package's own matrices go straight to eigvalsh
    k96, p = complete_graph(96), random_sphere_placement(96, 3, 0)
    assert spectral_gap(k96, p) == float(np.linalg.eigvalsh(stiffness(k96, p))[6])
    run_suite("interlacing", grid={"n": [64], "d": [4]}, samples=3)
    assert low_rank_calls == []
    # a matrix from outside of the same size tries the route
    clustered_spectrum(stiffness(k96, p))
    assert len(low_rank_calls) == 1


@pytest.mark.parametrize(
    "keep",
    [np.ones(5, dtype=bool), np.ones((6, 1), dtype=bool), np.arange(6), [1, 1, 1, 1, 1, 1]],
    ids=["short", "column", "indices", "ints"],
)
def test_interlacing_refuses_a_mask_that_is_not_one_bool_per_edge(keep):
    case = (complete_graph(4), (0, 1), Placement(np.arange(8.0).reshape(4, 2)), keep)
    with pytest.raises(ValueError, match=r"^keep must be a boolean mask over the 6 edges of g$"):
        interlacing_checks([case])
