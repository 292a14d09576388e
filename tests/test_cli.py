import json

import numpy as np
import pytest

from adconn.cli import UsageError, main, parse_graph_spec, parse_grid, parse_int_range, parse_placement_spec
from adconn.closedform import CANONICAL
from adconn.graphs import complete_graph
from adconn.probes import conjecture_probe
from adconn.verify import run_suite


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
    with pytest.raises(UsageError):
        parse_placement_spec(spec)


def test_parse_ranges():
    assert parse_int_range("7") == [7]
    assert parse_int_range("3..6") == [3, 4, 5, 6]
    assert parse_int_range("1,4..5") == [1, 4, 5]
    assert parse_grid("d=2..4,n=8") == {"d": [2, 3, 4], "n": [8]}
    assert parse_grid(None) is None
    for parse, text in ((parse_int_range, "5..4"), (parse_int_range, "2,5..4"), (parse_grid, "d=5..4")):
        with pytest.raises(UsageError, match="is empty"):
            parse(text)


def test_parse_grid_keeps_integers_and_allows_reals_only_for_h():
    grid = parse_grid("n=-3,d=4,h=0.5,h=1,h=-2")
    assert grid == {"n": [-3], "d": [4], "h": [0.5, 1, -2]}
    assert [type(v) for v in grid["n"] + grid["h"]] == [int, float, int, int]
    for text in ("n=4.0", "d=1e3", "n=x", "h=x"):
        with pytest.raises(UsageError):
            parse_grid(text)


def test_verify_non_integer_grid_is_usage_error(tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "verify", "--suite", "circle", "--grid", "n=4.0", "--outdir", str(tmp_path),
    )
    assert code == 2 and "must be an integer" in err


@pytest.mark.parametrize(
    "suite,grid,field",
    [("cross", "d=0,n=4", "grid d"), ("turan", "d=-1", "grid d"), ("circle", "n=0", "grid n")],
)
def test_verify_grid_below_one_is_usage_error(tmp_path, capsys, suite, grid, field):
    code, _, err = run_cli(capsys, "verify", "--suite", suite, "--grid", grid, "--outdir", str(tmp_path))
    assert code == 2 and f"{field} values must be >= 1" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["verify", "--suite", "cross", "--grid", "d=5..4"], "is empty"),
        (["verify", "--suite", "simplex", "--grid", "n=30..20"], "is empty"),
        (["verify", "--suite", "turan", "--grid", "n=31"], "no instances"),
        (["verify", "--suite", "interlacing", "--samples", "0"], "no instances"),
        (["verify", "--suite", "interlacing", "--grid", "n=1,n=2"], "suite 'interlacing' needs n >= 2, got n = 1"),
        (["conjecture", "repeated-points", "--k", "5..4"], "is empty"),
        (["conjecture", "regular-2d", "--n", "5..4"], "is empty"),
        (["conjecture", "regular-2d", "--n", "4"], "n > 2d for a 2d-regular graph on n vertices, got n = 4, d = 2"),
    ],
    ids=["verify-d-range", "verify-n-range", "verify-no-admitted-n", "verify-no-samples", "verify-interlacing-n1",
         "conjecture-k-range", "conjecture-n-range", "conjecture-n-at-2d"],
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
    "kn-upper": ["n", "d", "restarts"],
    "regular-2d": ["d", "ns", "samples", "restarts"],
    "repeated-points": ["n", "d", "ks"],
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
    [(tag, flag) for tag, reads in PROBE_READS.items() for flag in ("n", "d", "samples", "k", "restarts")
     if flag not in reads and f"{flag}s" not in reads],
)
def test_conjecture_refuses_what_the_probe_does_not_read(tmp_path, capsys, tag, flag):
    code, out, err = run_cli(capsys, "conjecture", tag, f"--{flag}", "3", "--outdir", str(tmp_path))
    assert code == 2 and out == "" and not any(tmp_path.iterdir())
    assert f"conjecture '{tag}' does not read {flag}; it reads {', '.join(PROBE_READS[tag])}" in err
    with pytest.raises(ValueError, match=f"does not read {flag};"):
        conjecture_probe(tag, {flag: 3}, seed=0)


def test_base_seed_flag_is_gone(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["conjecture", "repeated-points", "--base-seed", "5", "--outdir", str(tmp_path)])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "--graph", "complete:4", "--d", "3", "--step-init", "0.2"],
        ["optimize", "--graph", "complete:4", "--d", "3", "--step-decay", "0.5"],
        ["spectrum", "--graph", "complete:4", "--placement", "simplex:3", "--seed", "1"],
    ],
    ids=["optimize-step-init", "optimize-step-decay", "spectrum-seed"],
)
def test_removed_flags_are_usage_errors(tmp_path, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--outdir", str(tmp_path)])
    assert exc.value.code == 2 and not any(tmp_path.iterdir())


@pytest.mark.parametrize(
    "argv",
    [
        ["optimize", "--graph", "complete:4", "--d", "0"],
        ["conjecture", "kn-upper", "--n", "4", "--d", "0"],
        ["conjecture", "regular-2d", "--d", "0", "--n", "5"],
        ["conjecture", "top-n-sum", "--n", "3", "--d", "0"],
    ],
    ids=["optimize", "kn-upper", "regular-2d", "top-n-sum"],
)
def test_dimension_below_one_is_usage_error(tmp_path, capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--outdir", str(tmp_path))
    assert code == 2 and out == "" and "need d >= 1, got d=0" in err


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
    assert "does not match" in err


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
        ({"d": "2", "points": [[0.0, 0.0]] * 3}, "positive integer"),
        ({"d": 2.0, "points": [[0.0, 0.0]] * 3}, "positive integer"),
        ({"d": True, "points": [[0.0]] * 3}, "positive integer"),
        ({"d": 0, "points": [[0.0, 0.0]] * 3}, "positive integer"),
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
    assert code == 2 and "d >= 3" in err


def test_bounds_observe_small(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "bounds", "6", "3", "--observe", "--restarts", "2", "--seed", "1",
        "--outdir", str(tmp_path),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["gap_observed"] >= payload["lower_divisible"] - 1e-3


def test_optimize_command_deterministic(tmp_path, capsys):
    args = (
        "optimize", "--graph", "complete:4", "--d", "3",
        "--restarts", "2", "--max-iters", "40", "--seed", "1",
    )
    code1, out1, _ = run_cli(capsys, *args, "--outdir", str(tmp_path / "a"))
    code2, out2, _ = run_cli(capsys, *args, "--outdir", str(tmp_path / "b"))
    assert code1 == code2 == 0
    assert out1 == out2
    ra = json.loads((tmp_path / "a" / "optimize_result.json").read_text())
    rb = json.loads((tmp_path / "b" / "optimize_result.json").read_text())
    ra.pop("wall_time_s"), rb.pop("wall_time_s")
    assert ra == rb
    assert ra["config"]["restarts"] == 2


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


def test_conjecture_command(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys,
        "conjecture", "repeated-points", "--seed", "5", "--n", "4", "--d", "3",
        "--k", "2..4", "--outdir", str(tmp_path),
    )
    assert code == 0
    assert json.loads(out)["name"] == "repeated-points"
    record = json.loads((tmp_path / "conjecture_repeated-points.json").read_text())
    assert [i["k"] for i in record["instances"]] == [2, 3, 4]
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
        "conjecture", "kn-upper", "--n", "3..5", "--d", "3", "--outdir", str(tmp_path),
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
