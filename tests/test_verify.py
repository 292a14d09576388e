import dataclasses
import itertools
import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from adconn import spectral, verify
from adconn.bounds import circle_identity_matrices, vertex_star_projection
from adconn.closedform import CANONICAL
from adconn.framework import Placement, _stiffness_geometry, stiffness
from adconn.graphs import Graph, complete_graph
from adconn.placements import centered_sphere_points
from adconn.seeding import rng_stream
from adconn.spectral import clustered_spectrum, symmetric_eigenvalues
from adconn.verify import GRIDS, MAX_MATRIX_SIDE, SUITES, run_suite

from conftest import without_edge

ENTRY_KEYS = {"theorem", "instance", "predicted", "computed", "max_value_error", "multiplicity_match", "pass"}


@pytest.mark.parametrize("suite", SUITES)
def test_each_suite_passes_small(suite):
    small = {
        "simplex": dict(grid={"d": [2, 3, 4]}),
        "turan": dict(grid={"d": [2, 3], "n": [6, 8, 12]}),
        "cross": dict(grid={"d": [2, 3], "n": [4, 6, 8, 12]}),
        "tetra": dict(),
        "circle": dict(grid={"n": [3, 5, 8]}, samples=2),
        "interlacing": dict(samples=25),
        "kyfan": dict(grid={"n": [3, 6, 10]}, samples=40),
        "families": dict(grid={"d": [3], "n": [6, 8, 12]}),
    }
    report = run_suite(suite, seed=0, **small[suite])
    assert report["pass"], report["failures"][:2]
    assert report["count"] == len(report["entries"]) > 0
    for entry in report["entries"]:
        assert ENTRY_KEYS <= set(entry)
    json.dumps(report)


@pytest.mark.parametrize("row", ["crosspolytope", "turan-simplex"])
def test_families_suite_sweeps_the_rows_with_families(monkeypatch, row):
    def of_row(entry):
        label = str(entry["instance"].get("instance", ""))
        return entry["theorem"] == f"{row}-families" or label.startswith(f"{row}:")

    full = run_suite("families", samples=2)["entries"]
    monkeypatch.setitem(CANONICAL, row, dataclasses.replace(CANONICAL[row], families=None))
    kept = run_suite("families", samples=2)["entries"]
    assert any(of_row(e) for e in full)
    assert kept == [e for e in full if not of_row(e)]


def test_circle_suite_assembles_each_placement_once(monkeypatch):
    # the spectrum entry and the identity residual read the same matrix, one
    # member of its n's stack, with the bits of that placement's own stiffness
    # matrix, through both assembly paths (n < 16 and n >= 16)
    stacks = []

    def counted(g, points):
        out = _stiffness_geometry(g, points)
        stacks.append((g, points, out[0]))
        return out

    monkeypatch.setattr(verify, "_stiffness_geometry", counted)
    report = run_suite("circle", seed=5)
    assert report["pass"]
    assert sum(len(points) for _, points, _ in stacks) == report["count"] == 18 * 6
    assert [g.n for g, _, _ in stacks] == list(range(3, 21))
    for g, points, L in stacks:
        for member, p in zip(L, points):
            assert member.tobytes() == stiffness(g, Placement(p)).tobytes()


def test_run_suite_all_aggregates():
    report = run_suite("all", samples=10, seed=1)
    assert report["suite"] == "all"
    assert report["pass"]
    assert report["count"] == sum(r["count"] for r in report["suites"])


def test_cold_and_warm_complete_graph_cache_give_the_same_report():
    complete_graph.cache_clear()
    cold = json.dumps(run_suite("all", seed=0), indent=2)
    warm = json.dumps(run_suite("all", seed=0), indent=2)
    assert cold == warm


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("bogus")


@pytest.mark.parametrize(
    "suite,grid,key,value",
    [
        ("interlacing", {"n": [4.5]}, "n", "4.5"),
        ("interlacing", {"d": [2.5]}, "d", "2.5"),
        ("simplex", {"d": [2.5]}, "d", "2.5"),
        ("turan", {"d": [3], "n": [8.0]}, "n", "8.0"),
        ("kyfan", {"n": [True]}, "n", "True"),
    ],
)
def test_grid_d_and_n_must_be_integers(suite, grid, key, value):
    with pytest.raises(ValueError, match=f"^grid {key} must be an integer, got {value}$"):
        run_suite(suite, grid=grid)


@pytest.mark.parametrize("grid", [{"n": []}, {"d": []}, {"n": [], "d": []}], ids=["n", "d", "both"])
def test_interlacing_refuses_an_empty_list_to_draw_its_samples_from(grid):
    ns, ds = grid.get("n", list(range(4, 11))), grid.get("d", list(range(2, 5)))
    message = f"suite 'interlacing' needs an n and a d to draw from, got n = {ns}, d = {ds}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_suite("interlacing", grid=grid, samples=1)
    assert verify.suite_interlacing(**grid, samples=0, seed=0) == []


def test_grid_filters_divisibility():
    report = run_suite("turan", grid={"d": [3], "n": [7, 8, 12]})
    instances = [e["instance"] for e in report["entries"]]
    assert {"n": 8, "d": 3} in instances and {"n": 12, "d": 3} in instances
    assert all(i["n"] != 7 for i in instances)


def test_same_seed_gives_identical_report():
    a = run_suite("interlacing", samples=30, seed=5)
    b = run_suite("interlacing", samples=30, seed=5)
    assert json.dumps(a) == json.dumps(b)


def test_interlacing_default_ranges():
    report = run_suite("interlacing", samples=50, seed=9)
    assert report["pass"]
    for entry in report["entries"]:
        inst = entry["instance"]
        assert 4 <= inst["n"] <= 10 and 2 <= inst["d"] <= 4


def test_kyfan_sweep_equals_one_placement_at_a_time():
    # the sweep draws its samples in order from one stream; replay it and
    # check each entry against its own placement, solved alone
    entries = [e for e in run_suite("kyfan", samples=60, seed=8)["entries"] if "sample" in e["instance"]]
    assert [e["instance"]["sample"] for e in entries] == list(range(60))
    rng, block = rng_stream(8, "topsum"), verify.SAMPLE_BLOCK
    for s, entry in enumerate(entries):
        if s % block == 0:  # each block: its (n, d) picks, then its 12 x 4 point records
            shapes = rng.integers((3, 2), (13, 5), size=(block, 2)).tolist()
            records = rng.standard_normal((block, 12, 4))
        n, d = shapes[s % block]
        p = Placement(records[s % block, :n, :d])
        total = float(np.sum(symmetric_eigenvalues(stiffness(complete_graph(n), p))[-n:]))
        bound = n * n / 3.0 + n
        assert entry["instance"] == {"sample": s, "n": n, "d": d}
        assert (repr(entry["computed"]), entry["predicted"]) == (repr(total), bound)
        assert entry["max_value_error"] == max(bound - total, 0.0)
        assert entry["pass"] == (total - bound >= -1e-9)


def test_kyfan_star_errors_equal_the_per_star_loop_bit_for_bit():
    ns = [3, 4, 7, 12, 20]
    entries = run_suite("kyfan", grid={"n": ns}, samples=0, seed=0)["entries"]
    for n, entry in zip(ns, entries):
        P = vertex_star_projection(n)
        want = max(float(np.max(np.abs(P @ b - b))) for b in complete_graph(n).incidence)
        assert entry["instance"] == {"n": n}
        assert repr(entry["computed"]["star_error"]) == repr(want)


def stack_shapes(suite, entries) -> int:
    """The number of shapes whose stacks a sweep solves: one per n in the
    circle sweep, one per (n, d) in the others (the equilateral triangle
    joins the kyfan samples at (3, 2))."""
    if suite == "circle":
        return len({e["instance"]["n"] for e in entries})
    shapes = {(e["instance"]["n"], e["instance"]["d"]) for e in entries if "sample" in e["instance"]}
    return len(shapes | {(3, 2)}) if suite == "kyfan" else len(shapes)


@pytest.fixture
def solved(monkeypatch):
    """The bytes of every stack that numpy's eigvalsh solves."""
    sizes, eigvalsh = [], np.linalg.eigvalsh

    def spy(M):
        sizes.append(M.nbytes)
        return eigvalsh(M)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return sizes


@pytest.mark.parametrize("suite", ["circle", "interlacing", "kyfan"])
def test_default_sweeps_solve_one_stack_per_shape(solved, suite):
    report = run_suite(suite, seed=2)
    assert len(solved) == stack_shapes(suite, report["entries"])
    assert max(solved) <= spectral.STACK_BUDGET_BYTES


# three members of the largest default stack: an interlacing pair at n = 10, d = 4
SMALL_BUDGET = 3 * 2 * 40 ** 2 * 8


@pytest.mark.parametrize("suite,samples", [("circle", 7), ("interlacing", None), ("kyfan", None)])
def test_chunked_sweeps_give_the_same_reports_within_the_budget(monkeypatch, solved, suite, samples):
    want = json.dumps(run_suite(suite, samples=samples, seed=4))
    shapes = len(solved)
    solved.clear()
    monkeypatch.setattr(spectral, "STACK_BUDGET_BYTES", SMALL_BUDGET)
    assert json.dumps(run_suite(suite, samples=samples, seed=4)) == want
    assert len(solved) > shapes and max(solved) <= SMALL_BUDGET


@pytest.mark.parametrize("seed", [0, 5])
def test_circle_sweep_equals_one_placement_at_a_time(seed):
    # replays each n's stream; each entry is checked against its own
    # placement, assembled, solved and compared with the circle form alone
    ns, samples = [3, 4, 7, 10, 13], 4
    entries = run_suite("circle", grid={"n": ns}, samples=samples, seed=seed)["entries"]
    row, expected = CANONICAL["circle"], []
    for n in ns:
        rng = rng_stream(seed, f"circle:{n}")
        placements = {"roots-of-unity": row.placement(n, 2)}
        placements.update((f"random-{s}", centered_sphere_points(n, 2, rng)) for s in range(samples))
        expected += [(n, label, p) for label, p in placements.items()]
    assert len(entries) == len(expected) == len(ns) * (1 + samples)
    for entry, (n, label, p) in zip(entries, expected):
        L = stiffness(row.graph(n, 2), p)
        computed = [list(c) for c in clustered_spectrum(L).clusters]
        residual = float(np.max(np.abs(L - circle_identity_matrices([p])[0])))
        assert entry["instance"] == {"n": n, "instance": label}
        assert repr(entry["computed"]) == repr(computed)
        assert repr(entry["identity_residual"]) == repr(residual)


def test_circle_chunks_peak_under_twice_the_stack_budget(monkeypatch):
    # 401 K15 members under a 1 MiB budget: each chunk holds its rigidity
    # stack while it assembles, then its stiffness matrices and its circle
    # forms with their temporaries, all counted by framework.stack_member_bytes
    budget = 1 << 20
    monkeypatch.setattr(spectral, "STACK_BUDGET_BYTES", budget)
    first = run_suite("circle", grid={"n": [15]}, samples=2)  # and K15's index arrays, cached on the graph
    tracemalloc.start()
    try:
        report = run_suite("circle", grid={"n": [15]}, samples=400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * budget, f"peak {peak / 2**20:.2f} MiB"
    assert report["pass"] and report["entries"][:3] == first["entries"]


def test_a_circle_stack_with_one_off_circle_placement_is_refused():
    on_circle = [CANONICAL["circle"].placement(5, 2), centered_sphere_points(5, 2, rng_stream(0, "circle:5"))]
    off_circle = Placement(1.5 * on_circle[0].points)
    with pytest.raises(ValueError, match="^placement must have unit-norm points$"):
        circle_identity_matrices([*on_circle, off_circle, *on_circle])


def test_interlacing_sweep_equals_removing_each_edge():
    # replays the sweep's one stream sample after sample; each entry is
    # checked against two separately assembled stiffness matrices
    entries = run_suite("interlacing", samples=60, seed=8)["entries"]
    rng, block = rng_stream(8, "interlacing"), verify.SAMPLE_BLOCK
    for s, entry in enumerate(entries):
        if s % block == 0:  # each block: (n, d) picks, masks, edge picks, points
            shapes = [(a + 4, b + 2) for a, b in rng.integers((7, 3), size=(block, 2)).tolist()]
            masks = rng.integers(2, size=(block, 45), dtype=bool)  # C(10, 2) values a sample
            keeps = []
            for (n, _), mask in zip(shapes, masks):
                keep = mask[: n * (n - 1) // 2]
                keeps.append(keep if keep.any() else np.ones_like(keep))
            picks = rng.integers([np.count_nonzero(keep) for keep in keeps]).tolist()
            records = rng.standard_normal((block, 10, 4))
        (n, d), keep = shapes[s % block], keeps[s % block]
        full = complete_graph(n)
        g = Graph(n, tuple(e for e, k in zip(full.edges, keep) if k))
        e = g.edges[picks[s % block]]
        p = Placement(records[s % block, :n, :d])
        lam = symmetric_eigenvalues(stiffness(g, p))
        lam_prime = symmetric_eigenvalues(stiffness(without_edge(g, e), p))
        lam_shift = np.concatenate(([0.0], lam[:-1]))
        worst = float(max(np.max(lam_shift - lam_prime), np.max(lam_prime - lam)))
        assert entry["instance"] == {"sample": s, "n": n, "d": d, "edge": list(e), "edges": g.m}
        assert repr(entry["computed"]) == repr(worst) and entry["pass"] == (worst <= 1e-9)


def test_kyfan_draws_cover_every_shape():
    picks, records = verify._kyfan_draws(rng_stream(0, "topsum"), 500)
    assert len(picks) == 500 and records.shape == (500, 12, 4)
    assert set(picks) == set(itertools.product(range(3, 13), range(2, 5)))


def test_interlacing_draws_keep_their_edge_and_at_least_one_edge():
    cases = verify._interlacing_cases(rng_stream(0, "interlacing"), [2, 3, 6], [1, 2], 300)
    assert {(g.n, p.d) for g, _, p, _ in cases} == set(itertools.product([2, 3, 6], [1, 2]))
    for g, e, p, keep in cases:
        assert g is complete_graph(p.n) and keep.dtype == bool and keep.shape == (g.m,)
        assert keep[g.index_of(*e)]
    # K_2 has one edge, so half its masks draw no edge and keep them all
    assert all(keep.tolist() == [True] for g, _, _, keep in cases if g.n == 2)
    assert any(not keep.all() for g, _, _, keep in cases if g.n == 6)


def test_fewer_samples_are_the_first_ones_across_draw_blocks():
    # 70 samples end inside the second block, which is drawn whole
    def kyfan(k):
        picks, records = verify._kyfan_draws(rng_stream(4, "topsum"), k)
        return [(n, d, records[s, :n, :d].tobytes()) for s, (n, d) in enumerate(picks)]

    def interlacing(k):
        cases = verify._interlacing_cases(rng_stream(4, "interlacing"), [4, 7], [2, 3], k)
        return [(g.n, e, p.points.tobytes(), keep.tobytes()) for g, e, p, keep in cases]

    for draw in (kyfan, interlacing):
        assert draw(70) == draw(2 * verify.SAMPLE_BLOCK + 5)[:70]


class RecordedDraws:
    """A generator that records the bytes of every array it draws."""

    def __init__(self, rng):
        self.rng, self.nbytes = rng, []

    def __getattr__(self, name):
        def draw(*args, **kwargs):
            out = getattr(self.rng, name)(*args, **kwargs)
            self.nbytes.append(np.asarray(out).nbytes)
            return out

        return draw


def test_interlacing_draws_of_a_large_n_stay_under_the_stack_budget(monkeypatch):
    # the draw step alone: a sweep at n = 512, d = 2 would solve matrices of
    # side 1024.  A mask record has one byte for each of the C(512, 2) =
    # 130816 edges, so a budget of 1 MiB takes blocks of 8 samples.
    budget = 1 << 20
    monkeypatch.setattr(spectral, "STACK_BUDGET_BYTES", budget)
    rng = RecordedDraws(rng_stream(0, "interlacing"))
    complete_graph(512)  # built once per process, before the count
    tracemalloc.start()
    try:
        cases = verify._interlacing_cases(rng, [512], [2], 20)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cases) == 20 and len(rng.nbytes) == 3 * 4  # 3 blocks of 4 draws
    assert max(rng.nbytes) <= budget
    assert rng.nbytes[1] == 8 * math.comb(512, 2)
    # beyond the cases it returns, the draw step holds less than the budget
    assert peak - held <= budget, f"{(peak - held) / 2**20:.2f} MiB"


def _sampled(suite, entries):
    if suite == "circle":
        return [e for e in entries if e["instance"]["instance"] != "roots-of-unity"]
    return [e for e in entries if "sample" in e["instance"]]


@pytest.mark.parametrize(
    "suite,grid",
    [("circle", {"n": [3, 4, 7]}), ("interlacing", None), ("kyfan", {"n": [3]})],
)
def test_a_smaller_sample_count_gives_the_first_samples_of_a_larger_one(suite, grid):
    few = _sampled(suite, run_suite(suite, grid=grid, samples=3, seed=4)["entries"])
    many = _sampled(suite, run_suite(suite, grid=grid, samples=8, seed=4)["entries"])
    if suite == "circle":  # the first 3 of each n's 8
        many = [e for e in many if int(e["instance"]["instance"].removeprefix("random-")) < 3]
    else:
        many = many[: len(few)]
    assert len(few) == len(many) > 0
    assert json.dumps(few) == json.dumps(many)


def test_each_sweep_draws_from_one_stream_per_sweep_or_grid_point(monkeypatch):
    import adconn.verify

    tags = []

    def counted(seed, tag):
        tags.append(tag)
        return rng_stream(seed, tag)

    monkeypatch.setattr(adconn.verify, "rng_stream", counted)
    assert run_suite("all", seed=0)["pass"]
    circle_ns = len(range(3, 21))
    spherical_jobs = len(GRIDS["turan-simplex"]) + len(GRIDS["crosspolytope"])
    # circle one per n; interlacing and kyfan one each; families one per
    # spherical job and one for the edge-length samples
    assert len(tags) == circle_ns + 1 + 1 + spherical_jobs + 1 == 36
    assert len(set(tags)) == len(tags)


@pytest.mark.parametrize("seed", range(10))
def test_circle_suite_passes_at_each_seed(seed):
    report = run_suite("circle", seed=seed)
    assert report["pass"], report["failures"]
    assert max(e["identity_residual"] for e in report["entries"]) <= 1e-10


@pytest.mark.parametrize(
    "suite,grid,instance",
    [
        ("simplex", {"d": [2, 2**100]}, f"simplex at n = {2**100 + 1}, d = {2**100}"),
        ("turan", {"n": [12, 2**100]}, f"turan-simplex at n = {2**100}, d = 3"),
        ("cross", {"d": [2], "n": [8, 2**100]}, f"crosspolytope at n = {2**100}, d = 2"),
        ("circle", {"n": [5, 10**400]}, f"circle at n = {10**400}"),
        ("interlacing", {"n": [4, 10**400]}, f"interlacing at n = {10**400}, d = 4"),
        ("kyfan", {"n": [5, 10**400]}, f"kyfan at n = {10**400}"),
        ("families", {"d": [2], "n": [8, 2**100]}, f"crosspolytope families at n = {2**100}, d = 2"),
    ],
)
def test_an_oversized_instance_is_refused_before_any_instance_is_built(nothing_built, suite, grid, instance):
    message = f"{instance} needs a matrix of side above {MAX_MATRIX_SIDE}, the largest that verify builds"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_suite(suite, grid=grid)


def test_the_matrix_side_limit_admits_its_own_value(monkeypatch):
    # the circle sweep's matrices have side 2n
    monkeypatch.setattr(verify, "MAX_MATRIX_SIDE", 40)
    assert run_suite("circle", grid={"n": [20]}, samples=1)["pass"]
    with pytest.raises(ValueError, match="^circle at n = 21 needs a matrix of side above 40"):
        run_suite("circle", grid={"n": [21]}, samples=1)
