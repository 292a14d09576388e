import argparse
import hashlib
import inspect
import json
import os
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from adconn.cli import (
    build_parser,
    main,
    parse_graph_spec,
    parse_grid,
    parse_int_range,
    parse_placement_spec,
)
from adconn.closedform import CANONICAL
from adconn.framework import lower_stiffness_direct, placement_from_json
from adconn.graphs import complete_graph, make_graph
from adconn.optimize import OptimizerConfig, gap_ascent
from adconn.placements import roots_of_unity_angles, unit_circle_placement
from adconn.probes import PROBE_TAGS, PROBES, conjecture_probe
from adconn.spectral import cluster_multiplicities, spectral_gap
from adconn.verify import SUITES, run_suite


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_graph_specs(tmp_path):
    assert parse_graph_spec("complete:5") == complete_graph(5)
    g = parse_graph_spec("turan:6,3")
    assert g.n == 6 and g.m == 12
    path = tmp_path / "g.edges"
    path.write_text("3 2\n0 1\n1 2\n")
    assert parse_graph_spec(f"file:{path}").m == 2


def test_parse_placement_specs(tmp_path):
    assert parse_placement_spec("simplex:3").n == 4
    assert parse_placement_spec("turan-simplex:8,3").n == 8
    assert parse_placement_spec("crosspolytope:12,3").n == 12
    assert parse_placement_spec("circle:5").n == 5
    assert parse_placement_spec("tetra:0.5").n == 4
    p = parse_placement_spec("random:6,3,9,centered")
    assert p.n == 6 and np.max(np.abs(p.points.sum(axis=0))) <= 1e-14
    path = tmp_path / "p.json"
    path.write_text('{"d": 2, "points": [[0.0, 0.0], [1.0, 0.0]]}')
    assert parse_placement_spec(f"file:{path}").d == 2


# sha256 of parse_placement_spec(spec).points.tobytes().  A random spec's
# points are fixed by its seed and stream tag (sphere:n:d:0, or sphere:n:d:1
# with ,centered), and spectra-large reads random_sphere_placement(96, 3, seed).
RANDOM_SPEC_DIGESTS = {
    "random:96,3,0": "c15fb7cebddf5766757f9936b6d2df6c858c8dffb50acd0bff9fb74e1c9e5f97",
    "random:6,3,9,centered": "1638b0053075b51787292c21cd817c2dbf6f49390f56bd251fc76d48c4ed0b84",
    "random:12,2,4,centered": "8bde72b7d8c0147c82a66f734ff3fbe7cc564058dbec7e6d12e77dc2ab0ce474",
}


@pytest.mark.parametrize("spec", RANDOM_SPEC_DIGESTS)
def test_random_specs_keep_their_values(spec):
    digest = hashlib.sha256(parse_placement_spec(spec).points.tobytes()).hexdigest()
    assert digest == RANDOM_SPEC_DIGESTS[spec]


def test_centered_random_spec_accepts_odd_n_above_the_line():
    p = parse_placement_spec("random:5,3,1,centered")
    assert p.points.shape == (5, 3)
    np.testing.assert_allclose(np.linalg.norm(p.points, axis=1), 1.0, rtol=0, atol=1e-15)
    assert np.linalg.norm(p.points.sum(axis=0)) <= 1e-14


def test_centered_random_spec_refuses_odd_n_on_the_line(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "spectrum", "--graph", "complete:5", "--placement", "random:5,1,1,centered", "--outdir", str(tmp_path)
    )
    assert code == 2 and out == ""
    assert "need even n >= 2 and d >= 1, or odd n >= 3 and d >= 2, got n=5, d=1" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "spec,name,n,d",
    [
        ("simplex:3", "simplex", 4, 3),
        ("turan-simplex:8,3", "turan-simplex", 8, 3),
        ("crosspolytope:12,3", "crosspolytope", 12, 3),
        ("circle:5", "circle", 5, 2),
    ],
)
def test_parse_canonical_placement_spec(spec, name, n, d):
    np.testing.assert_array_equal(parse_placement_spec(spec).points, CANONICAL[name].placement(n, d).points)


@pytest.mark.parametrize("spec", ["simplex:3,4", "circle:", "crosspolytope:12", "turan-simplex:8,x"])
def test_canonical_placement_spec_needs_its_integer_fields(spec):
    with pytest.raises(ValueError):
        parse_placement_spec(spec)


@pytest.mark.parametrize(
    "spec,n,d", [("crosspolytope:4,3", 4, 3), ("turan-simplex:9,3", 9, 3), ("circle:1", 1, 2), ("circle:2", 2, 2)]
)
def test_canonical_placement_spec_outside_its_row_is_usage_error(tmp_path, capsys, spec, n, d):
    kind = spec.partition(":")[0]
    with pytest.raises(ValueError, match=f"^placement spec '{spec}': the {kind} framework does not exist at n={n}, d={d}$"):
        parse_placement_spec(spec)
    code, out, err = run_cli(capsys, "spectrum", "--graph", "complete:4", "--placement", spec, "--outdir", str(tmp_path))
    assert code == 2 and out == "" and repr(spec) in err and "r=" not in err
    assert not any(tmp_path.iterdir())


def test_parse_ranges():
    assert parse_int_range("7") == [7]
    assert parse_int_range("3..6") == [3, 4, 5, 6]
    assert parse_int_range("1,4..5") == [1, 4, 5]
    assert parse_grid("d=2..4,n=8") == {"d": [2, 3, 4], "n": [8]}
    assert parse_grid(None) is None
    for parse, text in ((parse_int_range, "5..4"), (parse_int_range, "2,5..4"), (parse_grid, "d=5..4")):
        with pytest.raises(ValueError, match="is empty"):
            parse(text)


def test_parse_grid_keeps_integers_and_reads_other_numbers_as_floats():
    grid = parse_grid("n=-3,d=4,h=0.5,h=1,h=-2,n=4.0,d=1e3")
    assert grid == {"n": [-3, 4.0], "d": [4, 1000.0], "h": [0.5, 1, -2]}
    assert [type(v) for v in grid["n"] + grid["d"] + grid["h"]] == [int, float, int, float, float, int, int]
    for text in ("n=x", "h=x"):
        with pytest.raises(ValueError, match=f"^grid value for {text[0]} must be a number, got 'x'$"):
            parse_grid(text)


def test_verify_non_integer_grid_is_usage_error(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "verify", "--suite", "circle", "--grid", "n=4.0", "--outdir", str(tmp_path),
    )
    assert code == 2 and "must be an integer" in err


@pytest.mark.parametrize(
    "suite,grid,message",
    [
        ("cross", "d=0,n=4", "grid d must be >= 1, got 0"),
        ("turan", "d=-1", "grid d must be >= 1, got -1"),
        ("circle", "n=0", "grid n must be >= 1, got 0"),
    ],
    ids=["cross-d=0,n=4-grid d", "turan-d=-1-grid d", "circle-n=0-grid n"],
)
def test_verify_grid_below_one_is_usage_error(tmp_path, capsys, suite, grid, message):
    code, _, err = run_cli(capsys, "verify", "--suite", suite, "--grid", grid, "--outdir", str(tmp_path))
    assert code == 2 and err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["verify", "--suite", "cross", "--grid", "d=5..4"], "is empty"),
        (["verify", "--suite", "simplex", "--grid", "n=30..20"], "is empty"),
        (["verify", "--suite", "turan", "--grid", "n=31"], "no instances"),
        (["verify", "--suite", "interlacing", "--samples", "0"], "no instances"),
        (["verify", "--suite", "interlacing", "--grid", "n=1,n=2"], "n must be >= 2, got 1"),
        (["verify", "--suite", "cross", "--grid", "d=1e3"], "grid d must be an integer, got 1000.0"),
        (["conjecture", "regular-2d", "--n", "5..4"], "is empty"),
        (["conjecture", "regular-2d", "--n", "4"], "n > 2d for a 2d-regular graph on n vertices, got n = 4, d = 2"),
        (["conjecture", "top-n-sum", "--d", "5..4"], "is empty"),
        (["conjecture", "top-n-sum", "--n", "2..4"], "n must be >= 3, got 2"),
        (["conjecture", "top-n-sum", "--n", "5", "--d", "3", "--samples", "0"], "no instances"),
        (["conjecture", "spherical-second-eig", "--d", "1"], "n >= 3 and d >= 3, got n = 8, d = 1"),
        (["conjecture", "spherical-second-eig", "--d", "2"], "got n = 8, d = 2; for d = 2 see verify --suite circle"),
        (["bounds", "12", "3", "--observe", "--restarts", "0"], "restarts must be >= 1, got 0"),
    ],
    ids=["verify-d-range", "verify-n-range", "verify-no-admitted-n", "verify-no-samples", "verify-interlacing-n1",
         "verify-d-float",
         "conjecture-n-range", "conjecture-n-at-2d", "conjecture-d-range", "conjecture-n-below-3",
         "conjecture-no-instances", "conjecture-d-below-2", "conjecture-d-2", "bounds-observe-no-restarts"],
)
def test_empty_range_or_suite_is_usage_error(tmp_path, capsys, argv, message):
    code, out, err = run_cli(capsys, *argv, "--outdir", str(tmp_path))
    assert code == 2 and message in err and "pass" not in out


# What each suite and probe reads; every other value is refused with exit 2.
SUITE_READS = {
    "simplex": ["d"],
    "turan": ["d", "n"],
    "cross": ["d", "n"],
    "tetra": ["h"],
    "circle": ["n", "samples"],
    "interlacing": ["n", "d", "samples"],
    "kyfan": ["n", "samples"],
    "families": ["d", "n", "samples"],
    "all": ["samples"],  # no single grid fits every suite
}
PROBE_READS = {
    "spherical-second-eig": ["n", "d", "samples"],
    "top-n-sum": ["ns", "ds", "samples"],
    "regular-2d": ["d", "ns", "samples", "restarts"],
}


@pytest.mark.parametrize(
    "suite,key",
    [(suite, key) for suite, reads in SUITE_READS.items() for key in ("d", "n", "h", "x", "samples") if key not in reads],
)
def test_verify_refuses_what_the_suite_does_not_read(tmp_path, capsys, suite, key):
    given = ["--samples", "3"] if key == "samples" else ["--grid", f"{key}=3"]
    code, out, err = run_cli(capsys, "verify", "--suite", suite, *given, "--outdir", str(tmp_path))
    assert code == 2 and out == "" and not any(tmp_path.iterdir())
    assert f"suite '{suite}' does not read {key}; it reads {', '.join(SUITE_READS[suite])}" in err
    with pytest.raises(ValueError, match=f"does not read {key};"):
        run_suite(suite, **({"samples": 3} if key == "samples" else {"grid": {key: [3]}}))


def test_verify_grid_cannot_set_samples(tmp_path, capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "circle", "--grid", "samples=3", "--outdir", str(tmp_path))
    assert code == 2 and "samples is not a grid key" in err and not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "tag,flag",
    [(tag, flag) for tag, reads in PROBE_READS.items() for flag in ("n", "d", "samples", "restarts")
     if flag not in reads and f"{flag}s" not in reads],
)
def test_conjecture_refuses_what_the_probe_does_not_read(tmp_path, capsys, tag, flag):
    code, out, err = run_cli(capsys, "conjecture", tag, f"--{flag}", "3", "--outdir", str(tmp_path))
    assert code == 2 and out == "" and not any(tmp_path.iterdir())
    assert f"conjecture '{tag}' does not read {flag}; it reads {', '.join(PROBE_READS[tag])}" in err
    with pytest.raises(ValueError, match=f"does not read {flag};"):
        conjecture_probe(tag, {flag: 3}, seed=0)


@pytest.mark.parametrize("tag", PROBE_TAGS)
def test_no_probe_reads_a_replication_count(tmp_path, tag):
    # the repeated-points probe and its --k flag are gone: the CLI refuses the
    # flag for every tag, and every probe refuses the parameter
    with pytest.raises(SystemExit) as exc:
        main(["conjecture", tag, "--k", "2..4", "--outdir", str(tmp_path)])
    assert exc.value.code == 2 and not any(tmp_path.iterdir())
    with pytest.raises(ValueError, match="does not read ks;"):
        conjecture_probe(tag, {"ks": [2, 3]}, seed=0)


def test_every_conjecture_flag_is_read_by_some_probe():
    # a flag that no probe reads can only ever be refused
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    flags = {a.dest for a in sub.choices["conjecture"]._actions if a.option_strings} - {"help", "outdir"}
    params = {name for probe in PROBES.values() for name in inspect.signature(probe).parameters}
    assert {"n", "d", "seed"} <= flags
    assert [f for f in sorted(flags) if f not in params and f"{f}s" not in params] == []


def test_readme_table_names_every_suite_and_probe():
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    start = lines.index("| suite / probe | reads |") + 2
    names = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        names += [name.strip(" `") for name in line.split("|")[1].split(",")]
    assert sorted(names) == sorted(SUITES + ("all",) + PROBE_TAGS)


def test_readme_cli_examples_parse():
    # parsed, not run: an example that names a retired subcommand, tag or flag exits 2
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S)
    examples = [shlex.split(line) for block in blocks for line in block.splitlines() if line.startswith("adconn ")]
    parser = build_parser()
    for argv in examples:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {shlex.join(argv)}")
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert {argv[1] for argv in examples} == set(sub.choices)


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "--graph", "complete:4", "--d", "3", "--step-init", "0.2"],
        ["optimize", "--graph", "complete:4", "--d", "3", "--step-decay", "0.5"],
        ["spectrum", "--graph", "complete:4", "--placement", "simplex:3", "--seed", "1"],
        ["optimize", "--graph", "complete:4", "--d", "3", "--gauge", "center-scale"],
        ["conjecture", "regular-2d", "--base-seed", "5"],
        ["conjecture", "regular-2d", "--k", "2..4"],
        ["conjecture", "repeated-points"],
        ["conjecture", "kn-upper"],
    ],
    ids=["optimize-step-init", "optimize-step-decay", "spectrum-seed", "optimize-gauge", "conjecture-base-seed",
         "conjecture-k", "conjecture-repeated-points", "conjecture-kn-upper"],
)
def test_removed_flags_are_usage_errors(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--outdir", str(tmp_path)])
    assert exc.value.code == 2 and not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "--graph", "complete:4", "--d", "0"],
        ["conjecture", "regular-2d", "--d", "0", "--n", "5"],
        ["conjecture", "top-n-sum", "--n", "3", "--d", "0"],
    ],
    ids=["optimize", "regular-2d", "top-n-sum"],
)
def test_dimension_below_one_is_usage_error(tmp_path, capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--outdir", str(tmp_path))
    assert code == 2 and out == "" and err == "error: d must be >= 1, got 0\n"


@pytest.mark.parametrize("d", ["0", "-1"])
def test_regular_2d_refuses_d_below_one_before_sampling(tmp_path, capsys, d):
    # --d -1 used to fail inside the graph sampler, and --d 0 sampled graphs first
    code, out, err = run_cli(capsys, "conjecture", "regular-2d", "--d", d, "--outdir", str(tmp_path))
    assert code == 2 and out == "" and err == f"error: d must be >= 1, got {d}\n"
    assert not any(tmp_path.iterdir())


BAD_TOL = "clustering tolerance must be finite and >= 0"


@pytest.mark.parametrize(
    "argv,message",
    [
        (["spectrum", "--graph", "complete:4", "--placement", "simplex:3", "--tol", "-1"], f"{BAD_TOL}, got -1.0"),
        (["spectrum", "--graph", "complete:4", "--placement", "simplex:3", "--tol", "nan"], f"{BAD_TOL}, got nan"),
        (["spectrum", "--graph", "complete:4", "--placement", "simplex:3", "--tol", "inf"], f"{BAD_TOL}, got inf"),
        (["optimize", "--graph", "complete:4", "--d", "3", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["spectrum", "--graph", "complete:3", "--placement", "random:3,2,-1"], "seed must be >= 0, got -1"),
        # these suites draw no random stream, but a seed they ignore is refused all the same
        *[(["verify", "--suite", s, "--seed", "-1"], "seed must be >= 0, got -1")
          for s in ("simplex", "turan", "cross", "tetra")],
        # top-n-sum without samples draws no random stream either
        (["conjecture", "top-n-sum", "--samples", "0", "--seed", "-1"], "seed must be >= 0, got -1"),
    ],
    ids=["tol-negative", "tol-nan", "tol-inf", "optimize-seed", "random-placement-seed",
         "simplex-seed", "turan-seed", "cross-seed", "tetra-seed", "top-n-sum-seed"],
)
def test_bad_tolerance_or_seed_is_usage_error(tmp_path, capsys, argv, message):
    code, out, err = run_cli(capsys, *argv, "--outdir", str(tmp_path))
    assert code == 2 and out == "" and message in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("seed", ["True", "2.5"])
def test_conjecture_seed_that_is_not_an_integer_is_usage_error(tmp_path, capsys, seed):
    with pytest.raises(SystemExit) as exc:
        main(["conjecture", "top-n-sum", "--samples", "0", "--seed", seed, "--outdir", str(tmp_path)])
    assert exc.value.code == 2 and not any(tmp_path.iterdir())
    assert f"invalid int value: '{seed}'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "--graph", "complete:2", "--d", "1"],
        ["optimize", "--graph", "complete:3", "--d", "1", "--restarts", "8"],
    ],
    ids=["optimize-k2", "optimize-k3"],
)
def test_one_dimensional_runs_reach_the_line_gap(tmp_path, capsys, argv):
    code, out, _ = run_cli(capsys, *argv, "--outdir", str(tmp_path))
    assert code == 0
    # an injective placement of K_n on a line has gap n, the Laplacian's a_1(K_n)
    expected = {"complete:2": 2.0, "complete:3": 3.0}
    assert json.loads(out)["best_gap"] == pytest.approx(expected[argv[2]], abs=1e-12)


@pytest.mark.parametrize("n,d", [(4, 3), (5, 3), (11, 6)], ids=["K4-proven-gap-1", "n-below-2d", "d-6-n-11"])
def test_bounds_observe_has_no_ceiling_below_2d(tmp_path, capsys, n, d):
    # below n = 2d the best gap can exceed n/(2d), as a_d(K_{d+1}) = 1 does, so a
    # margin there would read as a counterexample to a ceiling stated for n >= 2d
    code, out, _ = run_cli(capsys, "bounds", str(n), str(d), "--observe", "--restarts", "1", "--outdir", str(tmp_path))
    payload = json.loads(out)
    assert code == 0 and payload["gap_observed"] is not None
    assert payload["ceiling"] is None and payload["margin"] is None


@pytest.mark.parametrize("n,d", [(8, 2), (2, 1), (4, 0)], ids=["circle-reaches-n/2", "line-reaches-n", "d-0"])
def test_bounds_observe_refuses_d_below_3_before_optimizing(tmp_path, capsys, monkeypatch, n, d):
    # the circle's n/2 and the line's n exceed n/(2d): no ceiling covers d < 3
    def no_optimizer(*args, **kwargs):
        raise AssertionError("the optimizer ran")

    monkeypatch.setattr("adconn.cli.gap_ascent", no_optimizer)
    code, out, err = run_cli(capsys, "bounds", str(n), str(d), "--observe", "--restarts", "2", "--outdir", str(tmp_path))
    assert code == 2 and out == "" and not any(tmp_path.iterdir())
    assert err == f"error: d must be >= 3, got {d}\n"


def test_spectrum_command(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "spectrum", "--graph", "complete:4", "--placement", "simplex:3",
        "--outdir", str(tmp_path),
    )
    assert code == 0
    payload = json.loads(out)
    clusters = payload["stiffness"]["clusters"]
    assert [m for _, m in clusters] == [6, 2, 3, 1]
    np.testing.assert_allclose([v for v, _ in clusters], [0, 1, 2, 4], atol=1e-9)
    assert (tmp_path / "spectrum.csv").exists()
    manifest = json.loads((tmp_path / "spectrum_manifest.json").read_text())
    assert manifest["command"] == "spectrum" and manifest["version"]
    assert manifest["seed"] is None and "seed" not in manifest["params"]


def test_spectrum_command_lower_and_crosspolytope(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "spectrum", "--graph", "turan:12,6", "--placement", "crosspolytope:12,3",
        "--lower", "--outdir", str(tmp_path),
    )
    assert code == 0
    payload = json.loads(out)
    assert [m for _, m in payload["stiffness"]["clusters"]] == [6, 15, 3, 11, 1]
    lower = payload["lower_stiffness"]["clusters"]
    assert sum(m for _, m in lower) == 60  # edge count of T(12,6)
    assert (tmp_path / "lower_spectrum.csv").exists()


def test_spectrum_command_large_lower_spectrum(tmp_path, capsys):
    # the 1128 x 1128 lower matrix takes the certified low-rank eigensolve;
    # its clusters must be those of the full eigensolve
    code, out, _ = run_cli(
        capsys,
        "spectrum", "--graph", "complete:48", "--placement", "circle:48",
        "--lower", "--outdir", str(tmp_path),
    )
    assert code == 0
    clusters = json.loads(out)["lower_stiffness"]["clusters"]
    M = lower_stiffness_direct(complete_graph(48), unit_circle_placement(roots_of_unity_angles(48)).placement)
    full = cluster_multiplicities(np.linalg.eigvalsh(M), 1e-8 * max(1, np.abs(M).max(initial=0.0))).clusters
    assert [m for _, m in clusters] == [m for _, m in full] == [1035, 92, 1]
    np.testing.assert_allclose([v for v, _ in clusters], [v for v, _ in full], rtol=0, atol=1e-9)


def test_spectrum_command_constant_placement(tmp_path, capsys):
    path = tmp_path / "p.json"
    path.write_text(json.dumps({"d": 3, "points": [[1.0, 2.0, 3.0]] * 4}))
    code, out, _ = run_cli(
        capsys,
        "spectrum", "--graph", "complete:4", "--placement", f"file:{path}",
        "--outdir", str(tmp_path),
    )
    assert code == 0
    clusters = json.loads(out)["stiffness"]["clusters"]
    assert clusters == [[0.0, 12]]


def test_spectrum_dimension_mismatch_is_usage_error(tmp_path, capsys):
    code, _, err = run_cli(
        capsys,
        "spectrum", "--graph", "complete:4", "--placement", "simplex:2",
        "--outdir", str(tmp_path),
    )
    assert code == 2
    assert "placement has 3 points but graph has 4 vertices" in err


def test_malformed_file_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.edges"
    bad.write_text("3 1\n0 9\n")
    code, _, err = run_cli(
        capsys,
        "spectrum", "--graph", f"file:{bad}", "--placement", "simplex:2",
        "--outdir", str(tmp_path),
    )
    assert code == 2
    assert "out of range" in err


@pytest.mark.parametrize(
    "payload,message",
    [
        ({"d": 2, "points": {"a": 1}}, "array of numbers"),
        ({"d": 2, "points": [[0.0, 1.0], [2.0]]}, "array of numbers"),
        ({"d": 2, "points": [["a", "b"]] * 3}, "array of numbers"),
        ({"d": 2, "points": [["1", "2"], [3, 4]]}, "array of numbers"),
        ({"d": 2, "points": [[True, False], [3, 4]]}, "array of numbers"),
        ({"d": "2", "points": [[0.0, 0.0]] * 3}, "field 'd' must be an integer, got '2'"),
        ({"d": 2.0, "points": [[0.0, 0.0]] * 3}, "field 'd' must be an integer, got 2.0"),
        ({"d": True, "points": [[0.0]] * 3}, "field 'd' must be an integer, got True"),
        ({"d": 0, "points": [[0.0, 0.0]] * 3}, "field 'd' must be >= 1, got 0"),
    ],
)
def test_malformed_placement_file_is_usage_error(tmp_path, capsys, payload, message):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(payload))
    code, _, err = run_cli(
        capsys,
        "spectrum", "--graph", "complete:3", "--placement", f"file:{path}",
        "--outdir", str(tmp_path),
    )
    assert code == 2
    assert message in err


@pytest.mark.parametrize("huge", ["1" + "0" * 400, "1e999"], ids=["401-digit-int", "1e999"])
def test_placement_beyond_the_float_range_is_usage_error(tmp_path, capsys, huge):
    path = tmp_path / "p.json"
    path.write_text('{"d": 1, "points": [[%s], [2]]}' % huge)
    outdir = tmp_path / "out"
    code, out, err = run_cli(
        capsys,
        "spectrum", "--graph", "complete:2", "--placement", f"file:{path}", "--outdir", str(outdir),
    )
    assert (code, out, err) == (2, "", "error: points must be finite\n")
    assert not outdir.exists()


@pytest.mark.parametrize(
    "suite,grid,instance",
    [
        ("circle", "n=1" + "0" * 400, "circle at n = 1" + "0" * 400),
        ("simplex", f"d={2**100}", f"simplex at n = {2**100 + 1}, d = {2**100}"),
        ("turan", f"n={2**100}", f"turan-simplex at n = {2**100}, d = 3"),
    ],
)
def test_verify_of_an_oversized_instance_is_usage_error(nothing_built, tmp_path, capsys, suite, grid, instance):
    outdir = tmp_path / "out"
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--grid", grid, "--outdir", str(outdir))
    message = f"{instance} needs a matrix of side above 4096, the largest that verify builds"
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not outdir.exists()


@pytest.mark.parametrize("tag", ["spherical-second-eig", "regular-2d"])
def test_conjecture_zero_samples_is_usage_error(tmp_path, capsys, tag):
    code, _, err = run_cli(capsys, "conjecture", tag, "--samples", "0", "--outdir", str(tmp_path))
    assert code == 2 and "samples must be >= 1" in err


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_verify_families_without_samples_is_usage_error(tmp_path, capsys, samples):
    code, out, err = run_cli(capsys, "verify", "--suite", "families", "--samples", samples, "--outdir", str(tmp_path))
    assert code == 2 and f"samples must be >= 1, got {samples}" in err and "pass" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "circle"],
        ["verify", "--suite", "kyfan"],
        ["verify", "--suite", "interlacing"],
        ["conjecture", "top-n-sum", "--n", "3", "--d", "2"],
        ["conjecture", "spherical-second-eig"],
        ["conjecture", "regular-2d"],
    ],
    ids=["circle", "kyfan", "interlacing", "top-n-sum", "spherical-second-eig", "regular-2d"],
)
def test_negative_samples_is_usage_error(tmp_path, capsys, argv):
    least = 1 if argv[1] in ("spherical-second-eig", "regular-2d") else 0
    code, out, err = run_cli(capsys, *argv, "--samples", "-2", "--outdir", str(tmp_path))
    assert code == 2 and out == "" and f"samples must be >= {least}, got -2" in err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("suite", ["circle", "kyfan"])
def test_zero_samples_still_runs_the_fixed_instances(tmp_path, capsys, suite):
    code, out, _ = run_cli(capsys, "verify", "--suite", suite, "--samples", "0", "--outdir", str(tmp_path))
    assert code == 0 and f"{suite}: pass" in out


def test_verify_command_pass_and_report(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--suite", "simplex", "--grid", "d=2..5", "--outdir", str(tmp_path),
    )
    assert code == 0
    assert "simplex: pass" in out
    report = json.loads((tmp_path / "verify_report.json").read_text())
    assert report["pass"] and report["count"] == 4


def test_verify_command_interlacing_grid(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--suite", "interlacing", "--grid", "n=4..10,d=2..4",
        "--samples", "100", "--seed", "7", "--outdir", str(tmp_path),
    )
    assert code == 0
    assert "interlacing: pass (100 instances" in out


def test_verify_unknown_suite_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "bogus", "--outdir", str(tmp_path)])
    assert exc.value.code == 2


def test_bounds_command(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "bounds", "12", "3", "--outdir", str(tmp_path))
    assert code == 0
    payload = json.loads(out)
    assert payload["lower_divisible"] == 2.0
    assert payload["lower_general"] == -3.0
    assert payload["upper"] == pytest.approx(13 / 3)
    assert payload["gap_observed"] is None


@pytest.mark.parametrize(
    "given,named",
    [(["--restarts", "5"], "--restarts"), (["--seed", "1"], "--seed"), (["--seed", "1", "--restarts", "5"], "--restarts and --seed")],
    ids=["restarts", "seed", "both"],
)
def test_bounds_refuses_optimizer_settings_without_observe(tmp_path, capsys, given, named):
    code, out, err = run_cli(capsys, "bounds", "12", "3", *given, "--outdir", str(tmp_path))
    assert code == 2 and out == "" and not any(tmp_path.iterdir())
    assert f"bounds reads {named} only with --observe" in err


def test_bounds_manifest_records_the_settings_it_read(tmp_path, capsys):
    run_cli(capsys, "bounds", "12", "3", "--outdir", str(tmp_path / "plain"))
    plain = json.loads((tmp_path / "plain" / "bounds_manifest.json").read_text())
    assert plain["seed"] is None and plain["params"]["restarts"] is None
    code, _, _ = run_cli(capsys, "bounds", "4", "3", "--observe", "--outdir", str(tmp_path / "observed"))
    observed = json.loads((tmp_path / "observed" / "bounds_manifest.json").read_text())
    assert code == 0 and observed["seed"] == 0 and observed["params"]["restarts"] == 16


def test_bounds_out_of_range_is_usage_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "bounds", "12", "2", "--outdir", str(tmp_path))
    assert code == 2 and err == "error: d must be >= 3, got 2\n"


@pytest.mark.parametrize(
    "argv,name",
    [(["bounds", str(10**400), "3"], "n"), (["verify", "--suite", "simplex", "--grid", f"d={10**400}"], "d")],
    ids=["bounds", "verify-simplex"],
)
def test_arguments_past_the_float_range_are_usage_errors(tmp_path, capsys, argv, name):
    # a usage error, not an overflow that would leave main with exit 1, the verification-failure code
    code, out, err = run_cli(capsys, *argv, "--outdir", str(tmp_path))
    assert code == 2 and out == "" and not any(tmp_path.iterdir())
    assert f"error: {name} must be at most 1.798e+308 for the float formulas, got a 1329-bit {name}" in err


def test_bounds_observe_small(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "bounds", "6", "3", "--observe", "--restarts", "3", "--seed", "1",
        "--outdir", str(tmp_path),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["gap_observed"] >= payload["lower_divisible"] - 1e-3
    assert payload["ceiling"] == 1.0
    assert 0.9 <= payload["gap_observed"] <= 1.0 + 1e-6  # the crosspolytope start recovers the floor
    assert payload["gap_observed"] == gap_ascent(complete_graph(6), 3, OptimizerConfig(3, seed=1)).best_gap
    assert payload["margin"] == payload["ceiling"] - payload["gap_observed"]


def test_optimize_command_deterministic(tmp_path, capsys):
    args = (
        "optimize", "--graph", "complete:4", "--d", "3",
        "--restarts", "2", "--max-iters", "40", "--seed", "1",
    )
    code1, out1, _ = run_cli(capsys, *args, "--outdir", str(tmp_path / "a"))
    code2, out2, _ = run_cli(capsys, *args, "--outdir", str(tmp_path / "b"))
    assert code1 == code2 == 0
    assert out1 == out2
    result = (tmp_path / "a" / "optimize_result.json").read_bytes()
    assert result == (tmp_path / "b" / "optimize_result.json").read_bytes()
    assert json.loads(result)["config"]["restarts"] == 2


def test_optimize_prints_each_edge_and_placement_row_on_one_line(tmp_path, capsys):
    # with json.dumps(indent=2) the 66 edges of K12 alone took 264 of 344 lines
    code, out, _ = run_cli(capsys, "optimize", "--graph", "complete:12", "--d", "3", "--restarts", "2",
                           "--outdir", str(tmp_path))
    witness = gap_ascent(complete_graph(12), 3, OptimizerConfig(restarts=2, seed=0))
    assert code == 0 and json.loads(out) == witness.summary()
    lines = out.splitlines()
    assert len(lines) <= 66 + 12 + 30, len(lines)
    assert "      [0, 1]," in lines and "      [10, 11]" in lines
    # the written witness keeps its layout
    written = (tmp_path / "optimize_result.json").read_text()
    assert written == json.dumps(witness.to_json_dict(), indent=2) + "\n"


def test_optimize_flexible_graph(tmp_path, capsys):
    path = tmp_path / "path.edges"
    path.write_text("4 3\n0 1\n1 2\n2 3\n")
    code, out, _ = run_cli(
        capsys,
        "optimize", "--graph", f"file:{path}", "--d", "2",
        "--restarts", "2", "--max-iters", "30", "--outdir", str(tmp_path),
    )
    assert code == 0
    assert json.loads(out)["best_gap"] <= 1e-8


# argv; its result file; the n and d of its witness; where the witness sits
# in that file; where the gap sits in the printed summary
WITNESS_RUNS = {
    "optimize": (
        ["optimize", "--graph", "complete:5", "--d", "3", "--restarts", "2"],
        "optimize_result.json", 5, 3,
        lambda record: record,
        lambda summary: summary["best_gap"],
    ),
    "bounds": (
        ["bounds", "6", "3", "--observe", "--restarts", "2"],
        "bounds.json", 6, 3,
        lambda record: record["witness"],
        lambda summary: summary["gap_observed"],
    ),
    "regular-2d": (
        ["conjecture", "regular-2d", "--n", "8", "--samples", "1", "--restarts", "1"],
        "conjecture_regular-2d.json", 8, 2,
        lambda record: record["instances"][0]["witness"],
        lambda summary: summary["summary"]["max_gap_by_n"]["8"],
    ),
}


@pytest.mark.parametrize("run", list(WITNESS_RUNS))
def test_every_printed_gap_is_rederived_from_its_written_witness(tmp_path, capsys, run):
    argv, name, n, d, witness_of, gap_of = WITNESS_RUNS[run]
    code, out, _ = run_cli(capsys, *argv, "--outdir", str(tmp_path))
    assert code == 0
    witness = witness_of(json.loads((tmp_path / name).read_text()))
    g = make_graph(witness["graph"]["n"], witness["graph"]["edges"])
    p = placement_from_json(json.dumps(witness["best_placement"]))
    assert g.n == p.n == n and p.d == witness["d"] == d
    assert repr(spectral_gap(g, p)) == repr(gap_of(json.loads(out))) == repr(witness["best_gap"])


def test_conjecture_command(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "conjecture", "spherical-second-eig", "--seed", "5", "--n", "6", "--d", "3",
        "--samples", "3", "--outdir", str(tmp_path),
    )
    assert code == 0
    assert json.loads(out)["name"] == "spherical-second-eig"
    record = json.loads((tmp_path / "conjecture_spherical-second-eig.json").read_text())
    assert [i["sample"] for i in record["instances"]] == [0, 1, 2]
    assert (tmp_path / "conjecture_manifest.json").exists()


def test_conjecture_range_params(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "conjecture", "top-n-sum", "--n", "3..5", "--d", "2..3", "--samples", "3",
        "--seed", "3", "--outdir", str(tmp_path),
    )
    assert code == 0
    assert json.loads(out)["summary"]["min_margin"] >= -1e-9


def test_conjecture_scalar_flag_rejects_range(tmp_path, capsys):
    code, _, err = run_cli(
        capsys,
        "conjecture", "spherical-second-eig", "--n", "3..5", "--outdir", str(tmp_path),
    )
    assert code == 2 and "single integer" in err


def test_manifest_reproduces_run(tmp_path, capsys):
    outdir = tmp_path / "run1"
    run_cli(capsys, "optimize", "--graph", "complete:4", "--d", "3",
            "--restarts", "2", "--max-iters", "30", "--seed", "9", "--outdir", str(outdir))
    manifest = json.loads((outdir / "optimize_manifest.json").read_text())
    outdir2 = tmp_path / "run2"
    params = {**manifest["params"], "outdir": str(outdir2)}
    argv = [manifest["command"]]
    for key, value in params.items():  # every recorded setting must be a flag
        argv += [f"--{key.replace('_', '-')}", str(value)]
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0
    r1 = json.loads((outdir / "optimize_result.json").read_text())
    r2 = json.loads((outdir2 / "optimize_result.json").read_text())
    assert r1["best_gap"] == r2["best_gap"]
    assert r1["best_placement"] == r2["best_placement"]


@pytest.mark.parametrize(
    "argv,seed",
    [
        (["spectrum", "--graph", "complete:4", "--placement", "simplex:3", "--lower"], None),
        (["verify", "--suite", "simplex", "--grid", "d=2..3", "--seed", "4"], 4),
        (["bounds", "6", "3"], None),
        (["bounds", "4", "3", "--observe", "--restarts", "1"], 0),
        (["optimize", "--graph", "complete:4", "--d", "3", "--restarts", "1", "--max-iters", "5", "--seed", "3"], 3),
        (["conjecture", "top-n-sum", "--n", "3", "--d", "2", "--samples", "1", "--seed", "5"], 5),
    ],
    ids=["spectrum", "verify", "bounds", "bounds-observe", "optimize", "conjecture"],
)
def test_manifest_lists_the_files_written_and_the_seed_read(tmp_path, capsys, argv, seed):
    code, out, _ = run_cli(capsys, *argv, "--outdir", str(tmp_path))
    manifest_path = tmp_path / f"{argv[0]}_manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert code == 0 and out and manifest["command"] == argv[0]
    assert sorted(manifest["outputs"]) == sorted(str(p) for p in tmp_path.iterdir() if p != manifest_path)
    assert "command" not in manifest["params"] and "func" not in manifest["params"]
    assert manifest["seed"] == seed


def test_manifest_records_the_environment(tmp_path, capsys, monkeypatch):
    import platform

    monkeypatch.setenv("OMP_NUM_THREADS", "3")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    code, _, _ = run_cli(capsys, "bounds", "6", "3", "--outdir", str(tmp_path))
    env = json.loads((tmp_path / "bounds_manifest.json").read_text())["environment"]
    assert code == 0
    assert set(env) == {"python", "numpy", "blas_name", "blas_version", "cpu_count", "threads_env"}
    assert (env["python"], env["numpy"]) == (platform.python_version(), np.__version__)
    assert env["cpu_count"] == os.cpu_count()
    assert all(v is None or isinstance(v, str) for v in (env["blas_name"], env["blas_version"]))
    assert env["threads_env"] == {
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": "3",
        "MKL_NUM_THREADS": None,
    }
