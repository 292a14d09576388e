import json

import pytest

from adconn.probes import PROBE_TAGS, conjecture_probe


def test_unknown_tag_rejected():
    with pytest.raises(ValueError, match="unknown conjecture tag"):
        conjecture_probe("nope", {}, seed=0)


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
        ("repeated-points", {"ks": []}, "at least one replication count"),
        ("repeated-points", {"n": 1, "d": 2}, r"k\*n > d, got k\*n = 2 at k = 2, n = 1, d = 2"),
        ("repeated-points", {"n": 3, "ks": [1, 2]}, r"k\*n > d, got k\*n = 3 at k = 1, n = 3, d = 3"),
        ("spherical-second-eig", {"n": 2}, "n >= 3 and d >= 2, got n = 2, d = 3"),
        ("top-n-sum", {"ns": [4, 1, 2], "ds": [2]}, r"n >= 3 for the floor n\(n\+1\)/2, got n = 1"),
    ],
    ids=["spherical-second-eig", "regular-2d", "regular-2d-no-n", "regular-2d-n-at-2d", "repeated-points-no-k",
         "repeated-points-kn-at-d", "repeated-points-k1", "spherical-second-eig-n2", "top-n-sum-n-below-3"],
)
def test_sampling_probes_reject_zero_samples(tag, params, message):
    with pytest.raises(ValueError, match=message):
        conjecture_probe(tag, params, seed=0)


@pytest.mark.parametrize(
    "tag,given,params",
    [
        ("spherical-second-eig", {"samples": 2}, {"n": 8, "d": 3, "samples": 2}),
        ("top-n-sum", {"samples": 1, "ds": [2]}, {"ns": [3, 4, 5, 6, 7, 8, 9, 10], "ds": [2], "samples": 1}),
        ("kn-upper", {"restarts": 1, "n": 4}, {"n": 4, "d": 3, "restarts": 1}),
        ("regular-2d", {"ns": (5,), "samples": 1, "restarts": 1}, {"d": 2, "ns": [5], "samples": 1, "restarts": 1}),
        ("repeated-points", {"ks": range(2, 4), "n": 3}, {"n": 3, "d": 3, "ks": [2, 3]}),
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


def test_kn_upper_probe():
    record = conjecture_probe("kn-upper", {"n": 6, "d": 3, "restarts": 3}, seed=1)
    inst = record["instances"][0]
    assert inst["conjectured_ceiling"] == pytest.approx(1.0)
    assert inst["best_gap"] <= 1.0 + 1e-6
    assert inst["best_gap"] >= 0.9  # crosspolytope start recovers the floor


def test_regular_2d_probe():
    record = conjecture_probe(
        "regular-2d", {"d": 2, "ns": [8, 12], "samples": 1, "restarts": 2}, seed=2
    )
    assert len(record["instances"]) == 2
    assert all(i["best_gap"] >= -1e-12 for i in record["instances"])
    assert set(record["summary"]["max_gap_by_n"]) == {"8", "12"}


def test_repeated_points_probe():
    record = conjecture_probe(
        "repeated-points", {"n": 4, "d": 3, "ks": [2, 3, 4]}, seed=5
    )
    by_k = {i["k"]: i for i in record["instances"]}
    assert by_k[2]["ratio"] == pytest.approx(1.0, abs=1e-12)  # identity at k=2 by definition
    for k in (3, 4):
        assert by_k[k]["ratio"] == pytest.approx(1.0, abs=1e-8)
    assert record["counterexample_candidates"] == []


def test_all_tags_run_to_completion():
    small = {
        "spherical-second-eig": {"n": 6, "d": 3, "samples": 2},
        "top-n-sum": {"ns": [3, 4], "ds": [2], "samples": 2},
        "kn-upper": {"n": 4, "d": 3, "restarts": 2},
        "regular-2d": {"d": 2, "ns": [8], "samples": 1, "restarts": 1},
        "repeated-points": {"n": 3, "d": 2, "ks": [2, 3]},
    }
    for tag in PROBE_TAGS:
        record = conjecture_probe(tag, small[tag], seed=0)
        assert {"name", "params", "seed", "instances", "summary", "counterexample_candidates"} <= set(record)
