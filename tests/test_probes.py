import hashlib
import json

import pytest

from adconn.graphs import random_regular_graph
from adconn.optimize import OptimizerConfig, gap_ascent
from adconn.probes import PROBE_TAGS, conjecture_probe
from adconn.seeding import rng_stream


def test_unknown_tag_rejected():
    with pytest.raises(ValueError, match="unknown conjecture tag"):
        conjecture_probe("nope", {}, seed=0)
    with pytest.raises(ValueError, match="^unknown conjecture tag 'kn-upper'; valid tags: "):
        conjecture_probe("kn-upper", {}, seed=0)  # retired: bounds --observe reports its ceiling and margin


def test_spherical_second_eig_probe():
    record = conjecture_probe("spherical-second-eig", {"n": 8, "d": 3, "samples": 10}, seed=4)
    assert record["name"] == "spherical-second-eig"
    assert len(record["instances"]) == 10
    # the guaranteed floor: a cluster at n/2 with multiplicity at least n-1
    assert record["summary"]["min_half_n_multiplicity"] >= 7
    assert abs(record["summary"]["min_margin"]) <= 1e-8
    assert record["counterexample_candidates"] == []


def test_spherical_second_eig_probe_odd_n():
    record = conjecture_probe("spherical-second-eig", {"n": 7, "d": 3, "samples": 5}, seed=4)
    assert record["summary"]["min_half_n_multiplicity"] >= 6


def test_top_n_sum_probe():
    record = conjecture_probe(
        "top-n-sum", {"ns": [3, 4, 5, 6], "ds": [2, 3], "samples": 5}, seed=3
    )
    assert record["summary"]["min_margin"] >= -1e-9
    hits = {(h["n"], h["d"], h["instance"]) for h in record["summary"]["equality_hits"]}
    assert (3, 2, "circle") in hits  # equilateral triangle attains the floor
    assert json.dumps(record)  # fully serializable


@pytest.mark.parametrize(
    "tag,params,message",
    [
        ("spherical-second-eig", {"samples": 0}, "samples must be >= 1, got 0"),
        ("regular-2d", {"samples": 0}, "samples must be >= 1, got 0"),
        ("regular-2d", {"ns": []}, "at least one vertex count"),
        ("regular-2d", {"d": 2, "ns": [8, 4]}, "n > 2d .* got n = 4, d = 2"),
        ("spherical-second-eig", {"n": 2}, "n >= 3 and d >= 3, got n = 2, d = 3"),
        ("top-n-sum", {"ns": [4, 1, 2], "ds": [2]}, "^n must be >= 3, got 1$"),
        ("top-n-sum", {"samples": -1}, "samples must be >= 0, got -1"),
        ("spherical-second-eig", {"d": 1}, "n >= 3 and d >= 3, got n = 8, d = 1"),
        ("spherical-second-eig", {"d": 2}, "n >= 3 and d >= 3, got n = 8, d = 2; for d = 2 see verify --suite circle"),
        ("regular-2d", {"d": 2.5}, "^d must be an integer, got 2.5$"),
        ("regular-2d", {"d": True}, "^d must be an integer, got True$"),
        ("regular-2d", {"ns": [8.5], "samples": 1, "restarts": 1}, "^n must be an integer, got 8.5$"),
        ("regular-2d", {"restarts": 0}, "^restarts must be >= 1, got 0$"),
        ("regular-2d", {"restarts": 1.5}, "^restarts must be an integer, got 1.5$"),
        ("regular-2d", {"d": 0}, "^d must be >= 1, got 0$"),
        ("regular-2d", {"d": -1}, "^d must be >= 1, got -1$"),
        ("top-n-sum", {"ns": [4.5]}, "^n must be an integer, got 4.5$"),
        ("top-n-sum", {"ds": [2.5]}, "^d must be an integer, got 2.5$"),
        ("spherical-second-eig", {"d": 3.5}, "^d must be an integer, got 3.5$"),
    ],
    ids=["spherical-second-eig", "regular-2d", "regular-2d-no-n", "regular-2d-n-at-2d", "spherical-second-eig-n2",
         "top-n-sum-n-below-3", "top-n-sum-negative-samples", "spherical-second-eig-d1", "spherical-second-eig-d2",
         "regular-2d-d-float", "regular-2d-d-bool", "regular-2d-n-float",
         "regular-2d-no-restarts", "regular-2d-restarts-float", "regular-2d-d0", "regular-2d-d-negative",
         "top-n-sum-n-float", "top-n-sum-d-float", "spherical-second-eig-d-float"],
)
def test_sampling_probes_reject_zero_samples(tag, params, message):
    with pytest.raises(ValueError, match=message):
        conjecture_probe(tag, params, seed=0)


@pytest.mark.parametrize(
    "tag,given,params",
    [
        ("spherical-second-eig", {"samples": 2}, {"n": 8, "d": 3, "samples": 2}),
        ("top-n-sum", {"samples": 1, "ds": [2]}, {"ns": [3, 4, 5, 6, 7, 8, 9, 10], "ds": [2], "samples": 1}),
        ("regular-2d", {"ns": (5,), "samples": 1, "restarts": 1}, {"d": 2, "ns": [5], "samples": 1, "restarts": 1}),
    ],
)
def test_record_params_are_the_defaults_under_the_given_values(tag, given, params):
    record = conjecture_probe(tag, given, seed=0)
    assert list(record["params"].items()) == list(params.items())  # signature order


def test_top_n_sum_without_samples_keeps_canonical_instances():
    record = conjecture_probe("top-n-sum", {"ns": [3, 4], "ds": [2, 3], "samples": 0}, seed=0)
    labels = [(i["n"], i["d"], i["instance"]) for i in record["instances"]]
    assert labels == [
        (3, 2, "simplex"), (3, 2, "circle"),
        (4, 2, "crosspolytope"), (4, 2, "circle"),
        (4, 3, "simplex"), (4, 3, "pyramid"),
    ]
    with pytest.raises(ValueError, match="no instances"):
        conjecture_probe("top-n-sum", {"ns": [5], "ds": [3], "samples": 0}, seed=0)


def test_regular_2d_probe():
    record = conjecture_probe(
        "regular-2d", {"d": 2, "ns": [8, 12], "samples": 1, "restarts": 2}, seed=2
    )
    assert len(record["instances"]) == 2
    assert all(i["witness"]["best_gap"] >= -1e-12 for i in record["instances"])
    assert set(record["summary"]["max_gap_by_n"]) == {"8", "12"}


# sha256 of the repr of each sampled edge list at seed 2, tag regular:n:0
REGULAR_2D_EDGES_SHA256 = {
    8: "e5652ec18b720a9e40e1a61e06b9e43873dd017ed7082210413a5bdef7edbc01",
    12: "84004a4ac7f2a42814b3c1c31b623bc282a437649e5b936b0ee7c76cb0132ebb",
}


def test_regular_2d_graphs_are_pinned():
    params = {"d": 2, "ns": [8, 12], "samples": 1, "restarts": 1}
    record = conjecture_probe("regular-2d", params, seed=2)
    config = OptimizerConfig(restarts=1, seed=2)
    for inst in record["instances"]:
        n = inst["n"]
        g = random_regular_graph(4, n, rng_stream(2, f"regular:{n}:0"))
        assert hashlib.sha256(repr(g.edges).encode()).hexdigest() == REGULAR_2D_EDGES_SHA256[n]
        assert inst == {"n": n, "sample": 0, "witness": gap_ascent(g, 2, config).summary()}
    assert [i["n"] for i in record["instances"]] == [8, 12]
    assert conjecture_probe("regular-2d", params, seed=2) == record


def test_all_tags_run_to_completion():
    small = {
        "spherical-second-eig": {"n": 6, "d": 3, "samples": 2},
        "top-n-sum": {"ns": [3, 4], "ds": [2], "samples": 2},
        "regular-2d": {"d": 2, "ns": [8], "samples": 1, "restarts": 1},
    }
    for tag in PROBE_TAGS:
        record = conjecture_probe(tag, small[tag], seed=0)
        assert {"name", "params", "seed", "instances", "summary", "counterexample_candidates"} <= set(record)
