import json
import subprocess
import sys
from pathlib import Path

import pytest

import adconn
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
        ("spherical-second-eig", {"n": 2}, "n >= 3 and d >= 3, got n = 2, d = 3"),
        ("top-n-sum", {"ns": [4, 1, 2], "ds": [2]}, r"n >= 3 for the floor n\(n\+1\)/2, got n = 1"),
        ("top-n-sum", {"samples": -1}, "samples must be >= 0, got -1"),
        ("spherical-second-eig", {"d": 1}, "n >= 3 and d >= 3, got n = 8, d = 1"),
        ("spherical-second-eig", {"d": 2}, "n >= 3 and d >= 3, got n = 8, d = 2; for d = 2 see verify --suite circle"),
        ("kn-upper", {"restarts": 0}, "restarts and max_iters must be positive"),
    ],
    ids=["spherical-second-eig", "regular-2d", "regular-2d-no-n", "regular-2d-n-at-2d", "spherical-second-eig-n2",
         "top-n-sum-n-below-3", "top-n-sum-negative-samples", "spherical-second-eig-d1", "spherical-second-eig-d2",
         "kn-upper-no-restarts"],
)
def test_sampling_probes_reject_zero_samples(tag, params, message):
    with pytest.raises(ValueError, match=message):
        conjecture_probe(tag, params, seed=0)


@pytest.mark.parametrize(
    "tag,given,params",
    [
        ("spherical-second-eig", {"samples": 2}, {"n": 8, "d": 3, "samples": 2}),
        ("top-n-sum", {"samples": 1, "ds": [2]}, {"ns": [3, 4, 5, 6, 7, 8, 9, 10], "ds": [2], "samples": 1}),
        ("kn-upper", {"restarts": 1, "n": 6}, {"n": 6, "d": 3, "restarts": 1}),
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


def test_regular_2d_graph_seeds_are_pinned():
    # The graph seeds fix which graphs networkx samples; networkx's edge lists
    # are not pinned, since they may differ between networkx releases.
    params = {"d": 2, "ns": [8, 12], "samples": 1, "restarts": 1}
    record = conjecture_probe("regular-2d", params, seed=2)
    assert [(i["n"], i["graph_seed"]) for i in record["instances"]] == [(8, 1823783805), (12, 858822877)]
    assert conjecture_probe("regular-2d", params, seed=2) == record


NETWORKX_CHECK = """
import sys
sys.path.insert(0, sys.argv[1])
import adconn, adconn.cli
from adconn import conjecture_probe, run_suite
assert adconn.__file__.startswith(sys.argv[1]), adconn.__file__
run_suite("simplex")
for bad in ({"samples": 0}, {"d": 0}, {"d": -1}):
    try:
        conjecture_probe("regular-2d", bad)
    except ValueError:
        pass
    else:
        raise SystemExit(f"regular-2d accepted {bad}")
before = "networkx" in sys.modules
if sys.argv[2] == "valid":
    conjecture_probe("regular-2d", {"ns": [6], "samples": 1, "restarts": 1})
print(before, "networkx" in sys.modules)
"""


@pytest.mark.parametrize("call,loaded", [("bad", False), ("valid", True)])
def test_only_a_valid_regular_2d_call_imports_networkx(call, loaded):
    src = str(Path(adconn.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", NETWORKX_CHECK, src, call], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", str(loaded)]


NON_INTEGER_D_CHECK = """
import sys
sys.path.insert(0, sys.argv[1])
from adconn import conjecture_probe
for d in (2.5, True):
    try:
        conjecture_probe("regular-2d", {"d": d})
    except ValueError as exc:
        print(exc)
print("networkx" in sys.modules)
"""


def test_regular_2d_refuses_a_non_integer_d_before_importing_networkx():
    src = str(Path(adconn.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", NON_INTEGER_D_CHECK, src], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["d must be an integer, got 2.5", "d must be an integer, got True", "False"]


BAD_N_OR_RESTARTS_CHECK = """
import sys
sys.path.insert(0, sys.argv[1])
from adconn import conjecture_probe
for params in ({"ns": [8.5], "samples": 1, "restarts": 1}, {"restarts": 0}, {"restarts": 1.5}):
    try:
        conjecture_probe("regular-2d", params)
    except ValueError as exc:
        print(exc)
print("networkx" in sys.modules)
"""


def test_regular_2d_refuses_a_bad_n_or_restarts_before_importing_networkx():
    src = str(Path(adconn.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", BAD_N_OR_RESTARTS_CHECK, src], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "n must be an integer, got 8.5",
        "restarts and max_iters must be positive",
        "restarts must be an integer, got 1.5",
        "False",
    ]


def test_all_tags_run_to_completion():
    small = {
        "spherical-second-eig": {"n": 6, "d": 3, "samples": 2},
        "top-n-sum": {"ns": [3, 4], "ds": [2], "samples": 2},
        "kn-upper": {"n": 6, "d": 3, "restarts": 2},
        "regular-2d": {"d": 2, "ns": [8], "samples": 1, "restarts": 1},
    }
    for tag in PROBE_TAGS:
        record = conjecture_probe(tag, small[tag], seed=0)
        assert {"name", "params", "seed", "instances", "summary", "counterexample_candidates"} <= set(record)
