import dataclasses
import json

import numpy as np
import pytest

from adconn.closedform import CANONICAL
from adconn.framework import Placement, stiffness
from adconn.graphs import Graph, complete_graph, remove_edge
from adconn.seeding import rng_stream
from adconn.spectral import symmetric_eigenvalues
from adconn.verify import SUITES, run_suite

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
    entries = [e for e in run_suite("kyfan", samples=60, seed=8)["entries"] if "sample" in e["instance"]]
    assert [e["instance"]["sample"] for e in entries] == list(range(60))
    for s, entry in enumerate(entries):
        rng = rng_stream(8, f"topsum:{s}")
        n, d = int(rng.integers(3, 13)), int(rng.integers(2, 5))
        p = Placement(rng.standard_normal((n, d)))
        total = float(np.sum(symmetric_eigenvalues(stiffness(complete_graph(n), p))[-n:]))
        bound = n * n / 3.0 + n
        assert entry["instance"] == {"sample": s, "n": n, "d": d}
        assert (repr(entry["computed"]), entry["predicted"]) == (repr(total), bound)
        assert entry["max_value_error"] == max(bound - total, 0.0)
        assert entry["pass"] == (total - bound >= -1e-9)


def test_interlacing_sweep_equals_removing_each_edge():
    entries = run_suite("interlacing", samples=60, seed=8)["entries"]
    for s, entry in enumerate(entries):
        rng = rng_stream(8, f"interlacing:{s}")
        n, d = int(rng.choice([4, 5, 6, 7, 8, 9, 10])), int(rng.choice([2, 3, 4]))
        full = complete_graph(n)
        keep = rng.random(full.m) < 0.5
        if not keep.any():
            keep[:] = True
        g = Graph(n, tuple(e for e, k in zip(full.edges, keep) if k))
        e = g.edges[int(rng.integers(g.m))]
        p = Placement(rng.standard_normal((n, d)))
        lam = symmetric_eigenvalues(stiffness(g, p))
        lam_prime = symmetric_eigenvalues(stiffness(remove_edge(g, e), p))
        lam_shift = np.concatenate(([0.0], lam[:-1]))
        worst = float(max(np.max(lam_shift - lam_prime), np.max(lam_prime - lam)))
        assert entry["instance"] == {"sample": s, "n": n, "d": d, "edge": list(e), "edges": g.m}
        assert repr(entry["computed"]) == repr(worst) and entry["pass"] == (worst <= 1e-9)
