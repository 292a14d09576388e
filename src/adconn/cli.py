"""Command-line interface.

Subcommands:
    spectrum    clustered stiffness spectrum of a (graph, placement) pair
    verify      run a verification sweep and report per-instance pass/fail
    bounds      lower/upper bound report for complete graphs, optionally with
                an observed optimizer gap
    optimize    maximize the spectral gap over placements
    conjecture  run a conjecture probe and report margins

Graph specs: complete:n | turan:n,r | file:path (edge-list format "n m" +
"u v" lines).  Placement specs: simplex:d | turan-simplex:n,d |
crosspolytope:n,d | circle:n | tetra:h | random:n,d,seed[,centered] |
file:path (placement JSON {"d": ..., "points": [[...], ...]}).

verify passes --grid and --samples to the suite's function, and conjecture
passes --n, --d, --samples, --k and --restarts to the probe's function (--n,
--d and --k fill its list parameters ns, ds and ks where it has them).  A
value that the function does not read is a usage error.

Exit codes: 0 success / all checks passed, 1 verification failure, 2 usage
error.  Every command writes a run manifest next to its outputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import sys
import time
from pathlib import Path

from . import __version__
from .closedform import CANONICAL, bound_report
from .framework import Placement, lower_stiffness_direct, read_placement, stiffness
from .graphs import Graph, complete_graph, read_edge_list, turan_graph
from .optimize import GAUGES, OptimizerConfig, gap_ascent
from .placements import random_sphere_placement, triangular_pyramid
from .probes import PROBE_TAGS, PROBES, conjecture_probe
from .spectral import clustered_spectrum
from .verify import SUITES, run_suite


class UsageError(Exception):
    pass


def _split_fields(spec: str, name: str) -> tuple[str, str]:
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise UsageError(f"{name} spec {spec!r} must look like kind:args")
    return kind, rest


def _ints(rest: str, count: int, what: str) -> list[int]:
    fields = rest.split(",")
    if len(fields) != count:
        raise UsageError(f"{what} needs {count} comma-separated integers, got {rest!r}")
    try:
        return [int(f) for f in fields]
    except ValueError:
        raise UsageError(f"{what} fields must be integers, got {rest!r}") from None


def parse_graph_spec(spec: str) -> Graph:
    kind, rest = _split_fields(spec, "graph")
    if kind == "complete":
        (n,) = _ints(rest, 1, "complete:n")
        return complete_graph(n)
    if kind == "turan":
        n, r = _ints(rest, 2, "turan:n,r")
        return turan_graph(n, r)[0]
    if kind == "file":
        return read_edge_list(rest)
    raise UsageError(f"unknown graph kind {kind!r} (use complete, turan or file)")


# Spec fields of the CANONICAL placement kinds; simplex:d has n = d+1 and circle:n has d = 2.
_CANONICAL_SPECS = {"simplex": "d", "turan-simplex": "n,d", "crosspolytope": "n,d", "circle": "n"}


def parse_placement_spec(spec: str) -> Placement:
    kind, rest = _split_fields(spec, "placement")
    if kind in _CANONICAL_SPECS:
        names = _CANONICAL_SPECS[kind].split(",")
        fields = dict(zip(names, _ints(rest, len(names), f"{kind}:{_CANONICAL_SPECS[kind]}")))
        d = fields.get("d", 2)
        return CANONICAL[kind].placement(fields.get("n", d + 1), d)
    if kind == "tetra":
        try:
            h = float(rest)
        except ValueError:
            raise UsageError(f"tetra:h needs a real apex height, got {rest!r}") from None
        return triangular_pyramid(h)
    if kind == "random":
        fields = rest.split(",")
        centered = False
        if fields and fields[-1] == "centered":
            centered = True
            fields = fields[:-1]
        n, d, seed = _ints(",".join(fields), 3, "random:n,d,seed[,centered]")
        return random_sphere_placement(n, d, seed, centered=centered)
    if kind == "file":
        return read_placement(rest)
    raise UsageError(f"unknown placement kind {kind!r}")


def _inclusive_range(text: str, what: str) -> range:
    """'lo..hi' as the integers lo through hi; an empty range (lo > hi) is an error."""
    lo, _, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise UsageError(f"{what} must be int..int, got {text!r}") from None
    if lo > hi:
        raise UsageError(f"{what} {text!r} is empty: {lo} > {hi}")
    return range(lo, hi + 1)


def parse_int_range(text: str) -> list[int]:
    """Accept '7' or '3..10' (inclusive) or comma lists of either."""
    out: list[int] = []
    for piece in text.split(","):
        if ".." in piece:
            out.extend(_inclusive_range(piece, "range"))
        else:
            try:
                out.append(int(piece))
            except ValueError:
                raise UsageError(f"expected an integer, got {piece!r}") from None
    return out


def parse_grid(text: str | None) -> dict | None:
    """Parse '--grid d=2..10,n=8' into {'d': [2..10], 'n': [8]}."""
    if not text:
        return None
    grid: dict[str, list] = {}
    for field in text.split(","):
        key, sep, value = field.partition("=")
        if not sep:
            raise UsageError(f"grid field {field!r} must look like key=value or key=lo..hi")
        if ".." in value:
            grid.setdefault(key, []).extend(_inclusive_range(value, "grid range"))
            continue
        try:  # only the pyramid height h may be a non-integer
            number = int(value) if key != "h" or value.lstrip("+-").isdigit() else float(value)
        except ValueError:
            kind = "a number" if key == "h" else "an integer"
            raise UsageError(f"grid value for {key} must be {kind}, got {value!r}") from None
        grid.setdefault(key, []).append(number)
    return grid


def _write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2) + "\n")


def _params(args) -> dict:
    return {k: v for k, v in vars(args).items() if k != "func"}


def _write_manifest(outdir: Path, command: str, params: dict, seed, outputs: list[Path], t0: float) -> Path:
    manifest = {
        "command": command,
        "params": params,
        "seed": seed,
        "version": __version__,
        "wall_time_s": time.perf_counter() - t0,
        "outputs": [str(p) for p in outputs],
    }
    path = outdir / f"{command}_manifest.json"
    _write_json(path, manifest)
    return path


def cmd_spectrum(args) -> int:
    t0 = time.perf_counter()
    g = parse_graph_spec(args.graph)
    p = parse_placement_spec(args.placement)
    if p.n != g.n:
        raise UsageError(
            f"placement ({p.n} points) does not match graph ({g.n} vertices): "
            f"check --graph and --placement"
        )
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    spectrum = clustered_spectrum(stiffness(g, p), args.tol)
    result = {"graph": args.graph, "placement": args.placement, "stiffness": spectrum.to_json_dict()}
    outputs = [outdir / "spectrum.json", outdir / "spectrum.csv"]
    (outdir / "spectrum.csv").write_text(spectrum.to_csv())
    if args.lower:
        lower = clustered_spectrum(lower_stiffness_direct(g, p), args.tol)
        result["lower_stiffness"] = lower.to_json_dict()
        (outdir / "lower_spectrum.csv").write_text(lower.to_csv())
        outputs.append(outdir / "lower_spectrum.csv")
    _write_json(outputs[0], result)
    _write_manifest(outdir, "spectrum", _params(args), args.seed, outputs, t0)
    print(json.dumps(result, indent=2))
    return 0


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    grid = parse_grid(args.grid)
    report = run_suite(
        args.suite,
        grid=grid,
        samples=args.samples,
        seed=args.seed,
    )
    outdir = Path(args.outdir)
    report_path = outdir / "verify_report.json"
    _write_json(report_path, report)
    _write_manifest(outdir, "verify", _params(args), args.seed, [report_path], t0)
    suites = report.get("suites", [report])
    for sub in suites:
        status = "pass" if sub["pass"] else "FAIL"
        print(f"{sub['suite']}: {status} ({sub['count']} instances, {len(sub['failures'])} failures)")
    if not report["pass"]:
        worst = report["failures"][0]
        print(f"first failure: {json.dumps(worst)[:400]}", file=sys.stderr)
        return 1
    return 0


def cmd_bounds(args) -> int:
    t0 = time.perf_counter()
    report = bound_report(args.n, args.d)
    if args.observe:
        config = OptimizerConfig(restarts=args.restarts, seed=args.seed)
        result = gap_ascent(complete_graph(args.n), args.d, config)
        report = dataclasses.replace(report, gap_observed=result.best_gap)
    outdir = Path(args.outdir)
    path = outdir / "bounds.json"
    _write_json(path, report.to_json_dict())
    _write_manifest(outdir, "bounds", _params(args), args.seed, [path], t0)
    print(json.dumps(report.to_json_dict(), indent=2))
    return 0


def cmd_optimize(args) -> int:
    t0 = time.perf_counter()
    g = parse_graph_spec(args.graph)
    config = OptimizerConfig(
        restarts=args.restarts,
        max_iters=args.max_iters,
        step_init=args.step_init,
        step_decay=args.step_decay,
        seed=args.seed,
        gauge=args.gauge,
    )
    result = gap_ascent(g, args.d, config)
    outdir = Path(args.outdir)
    path = outdir / "optimize_result.json"
    payload = result.to_json_dict()
    _write_json(path, payload)
    _write_manifest(outdir, "optimize", _params(args), args.seed, [path], t0)
    print(json.dumps({k: payload[k] for k in ("best_gap", "best_restart", "best_placement")}, indent=2))
    return 0


def cmd_conjecture(args) -> int:
    t0 = time.perf_counter()
    takes = inspect.signature(PROBES[args.tag]).parameters
    params: dict = {}
    for flag in ("n", "d", "k"):
        if getattr(args, flag) is None:
            continue
        values = parse_int_range(getattr(args, flag))
        if f"{flag}s" in takes:  # the probe sweeps a list of values
            params[f"{flag}s"] = values
        elif len(values) == 1 or flag not in takes:
            params[flag] = values[0]
        else:
            raise UsageError(f"--{flag} must be a single integer for this tag, got {values}")
    for flag in ("samples", "restarts"):
        if getattr(args, flag) is not None:
            params[flag] = getattr(args, flag)
    record = conjecture_probe(args.tag, params, seed=args.seed)
    outdir = Path(args.outdir)
    path = outdir / f"conjecture_{args.tag}.json"
    _write_json(path, record)
    _write_manifest(outdir, "conjecture", _params(args), args.seed, [path], t0)
    print(json.dumps({"name": record["name"], "summary": record["summary"]}, indent=2))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="adconn", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--outdir", default=".", help="directory for result files and the run manifest")
        sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("spectrum", help="clustered stiffness spectrum of a framework")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--placement", required=True)
    sp.add_argument("--tol", type=float, default=None, help="clustering tolerance (default 1e-8 * max(1, |L|_max))")
    sp.add_argument("--lower", action="store_true", help="also emit the edge-basis spectrum")
    common(sp)
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("verify", help="run a verification sweep")
    sp.add_argument("--suite", required=True, choices=SUITES + ("all",))
    sp.add_argument("--grid", default=None, help="e.g. d=2..10 or n=4..10,d=2..4")
    sp.add_argument("--samples", type=int, default=None)
    common(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("bounds", help="bound report for complete graphs")
    sp.add_argument("n", type=int)
    sp.add_argument("d", type=int)
    sp.add_argument("--observe", action="store_true", help="run the optimizer and attach the observed gap")
    sp.add_argument("--restarts", type=int, default=16)
    common(sp)
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("optimize", help="maximize the spectral gap over placements")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--restarts", type=int, default=8)
    sp.add_argument("--max-iters", type=int, default=400)
    sp.add_argument("--step-init", type=float, default=0.1)
    sp.add_argument("--step-decay", type=float, default=0.7)
    sp.add_argument("--gauge", choices=GAUGES, default="center-scale")
    common(sp)
    sp.set_defaults(func=cmd_optimize)

    sp = sub.add_parser("conjecture", help="run a conjecture probe")
    sp.add_argument("tag", choices=PROBE_TAGS)
    sp.add_argument("--n", default=None, help="integer or range like 3..10")
    sp.add_argument("--d", default=None, help="integer or range like 2..4")
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--k", default=None, help="replication counts, e.g. 2..4")
    sp.add_argument("--restarts", type=int, default=None)
    common(sp)
    sp.set_defaults(func=cmd_conjecture)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def cli_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    cli_main()
