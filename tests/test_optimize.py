import json
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adconn import optimize
from adconn.closedform import CANONICAL
from adconn.framework import BLOCK_ASSEMBLY_MIN_VERTICES, Placement, _stiffness_geometry, stiffness
from adconn.graphs import complete_graph, make_graph
from adconn.optimize import (
    OptimizerConfig,
    _evaluate,
    _normalized_points,
    _objective_gradient,
    _smoothed_objective,
    gap_ascent,
    seeded_restarts,
)
from adconn.placements import crosspolytope_placement, regular_simplex
from adconn.spectral import spectral_gap, symmetric_eigenvalues, trivial_motion_count

from conftest import random_placement


def test_config_json_dict_keys_in_field_order():
    assert list(OptimizerConfig(restarts=3, seed=5).to_json_dict().items()) == [
        ("restarts", 3),
        ("max_iters", 400),
        ("seed", 5),
    ]


def test_normalized_points_fixed_point():
    p = regular_simplex(3)  # already centered with rms norm 1
    assert np.max(np.abs(_normalized_points(p.points) - p.points)) <= 1e-14


def test_normalized_points_undo_shift_and_scale():
    g = complete_graph(4)
    p = regular_simplex(3)
    gap = spectral_gap(g, p)
    for q in (p.points + np.array([5.0, 5.0, 5.0]), 100.0 * p.points):
        r = _normalized_points(q)
        assert np.max(np.abs(r.mean(axis=0))) <= 1e-13
        assert spectral_gap(g, Placement(r)) == pytest.approx(gap, abs=1e-10)


# The regular triangle with its centroid as a fourth point, which lies at the
# origin after centering.
TRIANGLE_AND_CENTROID = np.vstack([regular_simplex(2).points, np.zeros((1, 2))])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e-200, 1e-5, 1e5, 1e200])
@pytest.mark.parametrize(
    "points",
    [regular_simplex(3).points, TRIANGLE_AND_CENTROID, np.array([[0.0], [1.0], [3.0], [7.0]]),
     np.random.default_rng(7).standard_normal((12, 3))],
    ids=["simplex", "centroid", "line", "gaussian"],
)
def test_normalized_points_do_not_depend_on_scale(points, scale):
    want = _normalized_points(points)
    got = _normalized_points(scale * points)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def reference_normalized_points(points):
    """Centering and scaling to root-mean-square point norm 1 with np.mean
    and np.sum: the reference for the method-reduction arithmetic of
    _normalized_points."""
    pts = points - points.mean(axis=0)
    return pts / math.sqrt(float(np.mean(np.sum(pts * pts, axis=1))))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_normalized_points_match_the_reference_bit_for_bit(rng):
    cases = [rng.standard_normal((int(rng.integers(2, 14)), int(rng.integers(1, 5)))) for _ in range(200)]
    cases += [scale * p for p in (regular_simplex(3).points, TRIANGLE_AND_CENTROID, rng.standard_normal((12, 3)))
              for scale in (1e-5, 1e5)]
    for points in cases:
        got = _normalized_points(points)
        want = reference_normalized_points(points)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def reference_smoothed_objective(eigs, t, width):
    """The softmin and its weights by the general arithmetic with method
    reductions, also for a singleton cluster: the reference for
    _smoothed_objective."""
    tail = eigs[t:]
    lam_t = float(tail[0])
    z = np.exp((lam_t - tail[:tail.searchsorted(lam_t + width, "right")]) / width)
    return lam_t - width * math.log(float(z.sum())), z / float(z.sum())


def test_smoothed_objective_matches_the_reference_bit_for_bit(rng):
    sizes = set()
    for _ in range(300):
        eigs = np.sort(rng.standard_normal(int(rng.integers(2, 20))) * 10.0 ** int(rng.integers(-3, 4)))
        t = int(rng.integers(0, len(eigs)))
        for width in (1e-9, 1e-6 * max(abs(eigs[t]), 1e-9), 0.1, 10.0):
            value, weights = _smoothed_objective(eigs, t, width)
            want_value, want_weights = reference_smoothed_objective(eigs, t, width)
            assert value == want_value and weights.tobytes() == want_weights.tobytes()
            sizes.add(len(weights))
    assert 1 in sizes and max(sizes) >= 3


def test_normalized_points_refuse_non_finite_and_constant_points():
    for bad in (np.nan, np.inf, -np.inf):
        pts = np.ones((4, 2))
        pts[2, 1] = bad
        with pytest.raises(ValueError, match="points must be finite"):
            _normalized_points(pts)
    for shape, value in (((4, 2), 0.0), ((4, 2), 1.0), ((4, 2), 1e200), ((3, 2), 1.0)):
        with pytest.raises(ValueError, match="cannot normalize a constant placement"):
            _normalized_points(np.full(shape, value))


def test_seeded_restarts_canonical_inclusions():
    cfg = OptimizerConfig(restarts=6, seed=3)
    starts = seeded_restarts(complete_graph(4), 3, cfg)
    assert len(starts) == 6
    # jittered regular simplex first, jittered pyramid second
    assert np.max(np.abs(starts[0].points - regular_simplex(3).points)) < 1e-2
    from adconn.placements import triangular_pyramid

    assert np.max(np.abs(starts[1].points - triangular_pyramid(1 / math.sqrt(6)).points)) < 1e-2
    for p in starts:
        assert p.is_injective()


def test_seeded_restarts_include_crosspolytope():
    from adconn.placements import crosspolytope_placement

    cfg = OptimizerConfig(restarts=4, seed=0)
    starts = seeded_restarts(complete_graph(12), 3, cfg)
    assert np.max(np.abs(starts[0].points - crosspolytope_placement(12, 3).points)) < 1e-2


@pytest.mark.parametrize(
    "n,d,names",
    [
        (4, 3, ["simplex", "pyramid"]),
        (6, 2, ["turan-simplex", "circle"]),
        (8, 2, ["crosspolytope", "circle"]),
        (12, 3, ["crosspolytope", "turan-simplex"]),
        (12, 2, ["crosspolytope", "turan-simplex", "circle"]),
    ],
)
def test_seeded_restarts_canonical_order(n, d, names):
    cfg = OptimizerConfig(restarts=len(names) + 1, seed=2)
    starts = seeded_restarts(complete_graph(n), d, cfg)
    for start, name in zip(starts, names):
        canonical = CANONICAL[name].placement(n, d).points
        assert np.max(np.abs(start.points - canonical)) < 1e-2, name
    # the start after the canonical ones is a uniform sphere start
    np.testing.assert_allclose(np.linalg.norm(starts[-1].points, axis=1), 1.0, atol=1e-12)


def test_seeded_restarts_deterministic():
    cfg = OptimizerConfig(restarts=5, seed=11)
    a = seeded_restarts(complete_graph(6), 3, cfg)
    b = seeded_restarts(complete_graph(6), 3, cfg)
    for pa, pb in zip(a, b):
        np.testing.assert_array_equal(pa.points, pb.points)


def test_config_validation():
    for bad in ({"restarts": 0}, {"max_iters": 0}):
        with pytest.raises(ValueError, match="restarts and max_iters must be positive"):
            OptimizerConfig(**bad)
    # refused before any restart draws a stream
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        OptimizerConfig(restarts=1, seed=-1)
    with pytest.raises(TypeError, match="gauge"):  # the field is gone
        OptimizerConfig(gauge="center-scale")


NOT_INTEGERS = [1.5, 2.0, True, False, np.float64(1.0), np.bool_(True), "3", None]


@pytest.mark.parametrize("field", ["restarts", "max_iters", "seed"])
@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
def test_config_refuses_non_integer_fields(field, value):
    # restarts=1.5 used to pass here and fail later inside gap_ascent, and a
    # float or bool seed ran seed int(seed)'s stream under its own label.
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got {re.escape(repr(value))}$"):
        OptimizerConfig(**{field: value})


def test_config_refuses_a_float_seed_before_any_restart_runs():
    with pytest.raises(ValueError, match="seed must be an integer, got 1.5"):
        gap_ascent(complete_graph(5), 2, OptimizerConfig(seed=1.5, restarts=1, max_iters=3))


def test_config_stores_numpy_integers_as_python_ints_with_the_same_result():
    plain = OptimizerConfig(restarts=2, max_iters=20, seed=3)
    numpy_ints = OptimizerConfig(restarts=np.int64(2), max_iters=np.int32(20), seed=np.uint8(3))
    assert numpy_ints == plain
    assert all(type(v) is int for k, v in numpy_ints.to_json_dict().items())
    assert json.dumps(numpy_ints.to_json_dict()) == json.dumps(plain.to_json_dict())
    a = gap_ascent(complete_graph(5), 2, plain)
    b = gap_ascent(complete_graph(5), 2, numpy_ints)
    assert repr(a.best_gap) == repr(b.best_gap)
    assert a.best_placement.points.tobytes() == b.best_placement.points.tobytes()
    assert a.traces == b.traces


@pytest.mark.parametrize("d", [2.5, True, "3"], ids=repr)
def test_gap_ascent_refuses_a_non_integer_dimension(d):
    # 2.5 and True used to end in a numpy TypeError inside the first start
    message = f"^d must be an integer, got {re.escape(repr(d))}$"
    with pytest.raises(ValueError, match=message):
        gap_ascent(complete_graph(5), d, OptimizerConfig(restarts=1, max_iters=3))
    with pytest.raises(ValueError, match=message):
        seeded_restarts(complete_graph(5), d, OptimizerConfig(restarts=1))


def test_gap_ascent_recovers_triangle():
    result = gap_ascent(complete_graph(3), 2, OptimizerConfig(restarts=4, seed=1))
    assert result.best_gap >= 1.499
    assert result.best_gap <= 1.5 + 1e-6


def test_gap_ascent_recovers_tetrahedron():
    result = gap_ascent(complete_graph(4), 3, OptimizerConfig(restarts=4, seed=1))
    assert 0.999 <= result.best_gap <= 1.0 + 1e-6


def test_gap_ascent_flexible_graph_stays_near_zero():
    path = make_graph(4, [(0, 1), (1, 2), (2, 3)])
    result = gap_ascent(path, 2, OptimizerConfig(restarts=3, max_iters=60, seed=0))
    assert result.best_gap <= 1e-8


def test_gap_ascent_rejects_small_n():
    with pytest.raises(ValueError):
        gap_ascent(complete_graph(3), 3, OptimizerConfig(restarts=1))
    with pytest.raises(ValueError, match="need n > d, got n=1, d=1"):
        seeded_restarts(complete_graph(1), 1, OptimizerConfig(restarts=1))


def test_one_dimensional_sphere_starts_are_not_constant():
    # each uniform start on K2 in R^1 is constant with probability 1/2
    for seed in range(8):
        for p in seeded_restarts(complete_graph(2), 1, OptimizerConfig(restarts=6, seed=seed)):
            assert not p.is_constant()


@pytest.mark.parametrize("n", [3, 5, 8])
def test_one_dimensional_random_starts_are_injective(n):
    # projected onto the 0-sphere {-1, 1}, three or more points always share one
    for seed in range(4):
        for p in seeded_restarts(complete_graph(n), 1, OptimizerConfig(restarts=4, seed=seed)):
            assert len(np.unique(p.points)) == n


def test_traces_monotone_and_sound():
    result = gap_ascent(complete_graph(5), 2, OptimizerConfig(restarts=3, max_iters=100, seed=2))
    for trace in result.traces:
        gaps = [g for _, g in trace]
        assert all(b >= a for a, b in zip(gaps, gaps[1:]))
        assert result.best_gap >= max(gaps) - 1e-12
    # over-reporting is impossible: the result value is reproduced independently
    assert spectral_gap(complete_graph(5), result.best_placement) == pytest.approx(
        result.best_gap, abs=1e-9
    )


def test_gap_ascent_deterministic():
    cfg = OptimizerConfig(restarts=4, max_iters=60, seed=7)
    runs = [gap_ascent(complete_graph(5), 3, cfg) for _ in range(2)]
    payloads = [json.dumps(r.to_json_dict()) for r in runs]
    assert payloads[0] == payloads[1]


def test_result_json_shape():
    result = gap_ascent(complete_graph(4), 2, OptimizerConfig(restarts=2, max_iters=30, seed=5))
    payload = result.to_json_dict()
    assert set(payload) == {"best_gap", "best_restart", "best_placement", "traces", "config"}
    assert payload["config"]["seed"] == 5
    assert payload["best_placement"]["d"] == 2
    assert len(payload["traces"]) == 2


@pytest.mark.parametrize("seed", range(5))
def test_gap_ascent_reaches_crosspolytope_bound_on_k12(seed):
    # the jittered crosspolytope start recovers the n/(2d) = 2 floor
    result = gap_ascent(complete_graph(12), 3, OptimizerConfig(restarts=2, seed=seed))
    assert result.best_gap >= 2.0 - 1e-3


def _objective(g, pts, smoothing):
    """The ascent objective at pts, from the public stiffness matrix."""
    t = trivial_motion_count(pts.shape[1])
    eigs = np.linalg.eigvalsh(stiffness(g, Placement(pts)))
    return _smoothed_objective(eigs, t, smoothing * max(float(eigs[t]), 1e-9))[0]


def _gradient_error(g, pts, smoothing, h=1e-6):
    """Max deviation of the analytic gradient from the Richardson
    extrapolation (4 D(h/2) - D(h)) / 3 of the central difference D, and the
    size of the softmin cluster.  The extrapolation cancels the h^2 term of
    the truncation error, which a near-crossing of the gap eigenvalue makes
    large: in the pinned example the plain central difference is off by
    1.4e-5."""
    t = trivial_motion_count(pts.shape[1])
    ev = _evaluate(g, pts, t, smoothing)
    analytic = _objective_gradient(g, ev, t)

    def central(step):
        out = np.zeros_like(pts)
        for idx in np.ndindex(*pts.shape):
            bump = np.zeros_like(pts)
            bump[idx] = step
            out[idx] = (_objective(g, pts + bump, smoothing) - _objective(g, pts - bump, smoothing)) / (2 * step)
        return out

    extrapolated = (4.0 * central(h / 2) - central(h)) / 3.0
    return float(np.max(np.abs(analytic - extrapolated))), len(ev.weights)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=8),
    d=st.sampled_from([2, 3]),
    smoothing=st.sampled_from([1e-6, 1e-2]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@example(n=6, d=2, smoothing=1e-6, seed=1291)  # a near-crossing: lambda_t = 0.5614, lambda_t+1 = 0.5692
def test_objective_gradient_matches_central_difference(n, d, smoothing, seed):
    pts = np.random.default_rng(seed).standard_normal((n, d))
    err, _ = _gradient_error(complete_graph(n), pts, smoothing)
    assert err <= 1e-6


def test_objective_gradient_over_a_softmin_cluster():
    # near the crosspolytope the gap eigenvalue splits into a cluster that a
    # wide softmin spans, so the weights and the width term both count
    pts = crosspolytope_placement(6, 3).points + 3e-3 * np.random.default_rng(1).standard_normal((6, 3))
    err, k = _gradient_error(complete_graph(6), pts, 1e-2)
    assert k >= 3
    assert err <= 1e-6


def test_objective_gradient_ignores_coincident_edges():
    # points 0 and 1 coincide: their edge has no direction and adds nothing
    g = complete_graph(5)
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.2], [-0.3, 1.1], [0.4, -0.9]])
    h = make_graph(5, [e for e in g.edges if e != (0, 1)])
    t = trivial_motion_count(2)
    with_edge = _objective_gradient(g, _evaluate(g, pts, t, 1e-6), t)
    without_edge = _objective_gradient(h, _evaluate(h, pts, t, 1e-6), t)
    assert np.all(np.isfinite(with_edge))
    np.testing.assert_allclose(with_edge, without_edge, atol=1e-12)


def add_at_gradient(g, ev, t):
    """_objective_gradient with its per-edge terms summed by two np.add.at
    calls: the reference for the single bincount."""
    k = len(ev.weights)
    coef = ev.weights.copy()
    if ev.gap > 1e-9:
        coef[0] += (ev.value - float(ev.weights @ ev.eigs[t:t + k])) / ev.gap
    n, d = ev.points.shape
    uv = g.endpoints
    vecs = np.linalg.eigh(ev.stiffness)[1][:, t:t + k].T.reshape(k, n, d)
    w = vecs[:, uv[:, 0]] - vecs[:, uv[:, 1]]
    s = np.einsum("kmd,md->km", w, ev.unit)
    inv_len = np.divide(1.0, ev.lengths, out=np.zeros(g.m), where=ev.lengths > 0)
    per_edge = np.einsum("km,kmd->md", (2.0 * coef)[:, None] * s, w - s[..., None] * ev.unit)
    per_edge *= inv_len[:, None]
    grad = np.zeros((n, d))
    np.add.at(grad, uv[:, 0], per_edge)
    np.add.at(grad, uv[:, 1], -per_edge)
    return grad


def test_objective_gradient_matches_add_at_bit_for_bit(rng):
    cases = []
    for _ in range(60):
        n, d = int(rng.integers(4, 13)), int(rng.integers(1, 5))
        cases.append((complete_graph(n), rng.standard_normal((n, d)), 1e-6))
    # softmin clusters of several eigenvalues near the crosspolytope
    for seed in range(5):
        jitter = 3e-3 * np.random.default_rng(seed).standard_normal((6, 3))
        cases.append((complete_graph(6), crosspolytope_placement(6, 3).points + jitter, 1e-2))
    cases.append((complete_graph(12), crosspolytope_placement(12, 3).points, 1e-6))
    pts = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.2], [-0.3, 1.1], [0.4, -0.9]])
    cases.append((complete_graph(5), pts, 1e-6))  # the edge (0, 1) is coincident
    cases.append((make_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)]), pts, 1e-6))
    clusters = set()
    for g, points, smoothing in cases:
        t = trivial_motion_count(points.shape[1])
        ev = _evaluate(g, points, t, smoothing)
        got, want = _objective_gradient(g, ev, t), add_at_gradient(g, ev, t)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        clusters.add(len(ev.weights))
    assert max(clusters) >= 3


def test_evaluation_reads_the_public_spectrum(rng):
    # the objective must see exactly the eigenvalues that spectral_gap and the
    # verify suites read, also when points coincide
    cases = [(complete_graph(n), random_placement(rng, n, d)) for n, d in ((4, 3), (7, 2), (12, 3))]
    pts = rng.standard_normal((6, 3))
    pts[1] = pts[0]
    pts[4] = pts[2]
    cases.append((complete_graph(6), Placement(pts)))
    cases.append((complete_graph(12), crosspolytope_placement(12, 3)))
    for g, p in cases:
        t = trivial_motion_count(p.d)
        ev = _evaluate(g, p.points, t, 1e-6)
        assert np.array_equal(ev.eigs, symmetric_eigenvalues(stiffness(g, p)))
        assert ev.gap == spectral_gap(g, p)


def _buffer_placements(rng, n, d):
    """Placements of n points in R^d in an order that would expose an entry
    of the rigidity buffer left over from an earlier one: plain, with a
    coincident pair, with a pair 1e-200 apart, scaled by 1e200 and by
    1e-200 (the last three take _rescaled_geometry), and plain again."""
    plain = rng.standard_normal((n, d))
    coincident = rng.standard_normal((n, d))
    coincident[1] = coincident[0]
    close = rng.standard_normal((n, d))
    close[1] = close[0] + 1e-200 * rng.standard_normal(d)
    return [plain, coincident, close, 1e200 * rng.standard_normal((n, d)),
            1e-200 * rng.standard_normal((n, d)), rng.standard_normal((n, d))]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_shared_rigidity_buffer_keeps_every_bit(rng):
    """_stiffness_geometry and _evaluate give the same bits through one
    rigidity buffer per graph and dimension, shared by a sequence of
    placements, as with a new rigidity matrix each time."""
    for n in range(2, BLOCK_ASSEMBLY_MIN_VERTICES):
        full = complete_graph(n)
        sub = make_graph(n, [e for e in full.edges if rng.random() < 0.6])
        for d in range(1, 5):
            t = trivial_motion_count(d) if trivial_motion_count(d) < n * d else 0
            for g in (full, sub):
                buffer = np.zeros(g.n * d * g.m)
                for points in _buffer_placements(rng, n, d):
                    got, want = _stiffness_geometry(g, points, buffer), _stiffness_geometry(g, points)
                    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
                    assert not np.shares_memory(got[0], buffer)  # a new matrix, not a view of the buffer
                    got, want = _evaluate(g, points, t, 1e-6, buffer), _evaluate(g, points, t, 1e-6)
                    for name in ("points", "unit", "lengths", "stiffness", "eigs", "weights"):
                        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
                    assert (got.gap, got.value) == (want.gap, want.value)


def _record_rigidity(monkeypatch, drop: bool) -> list:
    """Route optimize's _stiffness_geometry through a recorder of the
    rigidity argument of each call; with drop, the call gets no buffer."""
    seen = []

    def recorded(g, points, rigidity=None):
        seen.append(rigidity)
        return _stiffness_geometry(g, points, None if drop else rigidity)

    monkeypatch.setattr(optimize, "_stiffness_geometry", recorded)
    return seen


@pytest.mark.parametrize("n,d,seed", [(12, 3, 0), (7, 4, 1)])
def test_gap_ascent_with_the_rigidity_buffer_keeps_every_bit(monkeypatch, n, d, seed):
    g, config = complete_graph(n), OptimizerConfig(restarts=2, seed=seed)
    with monkeypatch.context() as m:
        _record_rigidity(m, drop=True)
        want = gap_ascent(g, d, config)
    with monkeypatch.context() as m:
        seen = _record_rigidity(m, drop=False)
        got = gap_ascent(g, d, config)
    # one buffer per restart, passed to every evaluation
    assert all(b is not None and b.shape == (n * d * g.m,) for b in seen)
    assert len({id(b) for b in seen}) == config.restarts
    assert got.traces == want.traces and got.best_restart == want.best_restart
    assert got.best_gap == want.best_gap
    assert got.best_placement.points.tobytes() == want.best_placement.points.tobytes()


def test_gap_ascent_passes_no_rigidity_buffer_on_the_block_path(monkeypatch):
    seen = _record_rigidity(monkeypatch, drop=False)
    gap_ascent(complete_graph(BLOCK_ASSEMBLY_MIN_VERTICES), 3, OptimizerConfig(restarts=1, max_iters=3))
    assert seen and all(b is None for b in seen)
