"""Command-line interface.

Subcommands:
    spectrum    clustered stiffness spectrum of a (graph, placement) pair
    verify      run a verification sweep and report per-instance pass/fail
    bounds      bound report for complete graphs, with the conjectured ceiling
                n/(2d); --observe adds an optimizer gap and its margin
    optimize    maximize the spectral gap over placements
    conjecture  run a conjecture probe and report margins

Graph specs: complete:n | turan:n,r | file:path (edge-list format "n m" +
"u v" lines).  Placement specs: simplex:d | turan-simplex:n,d |
crosspolytope:n,d | circle:n | tetra:h | random:n,d,seed[,centered] |
file:path (placement JSON {"d": ..., "points": [[...], ...]}).

verify passes --grid, whose values are numbers, and --samples to the suite's
function, and conjecture passes --n, --d, --samples and --restarts to the
probe's function (--n and --d fill its list parameters ns and ds where it has
them).  A value that the function does not read or a grid d or n that is not
an integer is a usage error (a ValueError), and so is a --restarts or --seed
given to bounds without --observe.

Every optimizer gap the CLI prints comes with the optimize.Witness that
attains it, as the graph {"n": n, "edges": [[u, v], ...]}, d, the placement
and the config: optimize writes the witness's full JSON and prints its
summary(), the JSON without the traces; bounds --observe embeds that summary
as "witness" and reads gap_observed and margin from it; conjecture
regular-2d keeps one summary per instance.

Exit codes: 0 success / all checks passed, 1 verification failure, 2 usage
error.  A command only computes: it returns its exit code, its result files
and its summary.  One writer, _run_and_record, times it, writes those files
and <command>_manifest.json into --outdir, and prints the summary, as
summary_json lays it out: the files' layout with each list of numbers (an
edge, a placement row, a cluster) on one line.  The
manifest records the command once; its params hold the subcommand's flags.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .closedform import CANONICAL, bound_report
from .framework import Placement, lower_stiffness_direct, read_placement, stiffness
from .graphs import Graph, complete_graph, read_edge_list, turan_graph
from .optimize import OptimizerConfig, gap_ascent
from .placements import centered_sphere_points, random_sphere_placement, triangular_pyramid
from .probes import PROBE_TAGS, PROBES, conjecture_probe
from .seeding import rng_stream
from .spectral import clustered_spectrum
from .verify import SUITES, run_suite


def _split_fields(spec: str, name: str) -> tuple[str, str]:
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise ValueError(f"{name} spec {spec!r} must look like kind:args")
    return kind, rest


def _ints(rest: str, count: int, what: str) -> list[int]:
    fields = rest.split(",")
    if len(fields) != count:
        raise ValueError(f"{what} needs {count} comma-separated integers, got {rest!r}")
    try:
        return [int(f) for f in fields]
    except ValueError:
        raise ValueError(f"{what} fields must be integers, got {rest!r}") from None


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
    raise ValueError(f"unknown graph kind {kind!r} (use complete, turan or file)")


# Spec fields of the CANONICAL placement kinds; simplex:d has n = d+1 and circle:n has d = 2.
_CANONICAL_SPECS = {"simplex": "d", "turan-simplex": "n,d", "crosspolytope": "n,d", "circle": "n"}


def parse_placement_spec(spec: str) -> Placement:
    kind, rest = _split_fields(spec, "placement")
    if kind in _CANONICAL_SPECS:
        names = _CANONICAL_SPECS[kind].split(",")
        fields = dict(zip(names, _ints(rest, len(names), f"{kind}:{_CANONICAL_SPECS[kind]}")))
        d = fields.get("d", 2)
        n = fields.get("n", d + 1)
        if not CANONICAL[kind].admits(n, d):
            raise ValueError(f"placement spec {spec!r}: the {kind} framework does not exist at n={n}, d={d}")
        return CANONICAL[kind].placement(n, d)
    if kind == "tetra":
        try:
            h = float(rest)
        except ValueError:
            raise ValueError(f"tetra:h needs a real apex height, got {rest!r}") from None
        return triangular_pyramid(h)
    if kind == "random":
        plain = rest.removesuffix(",centered")
        n, d, seed = _ints(plain, 3, "random:n,d,seed[,centered]")
        if plain != rest:
            return centered_sphere_points(n, d, rng_stream(seed, f"sphere:{n}:{d}:1"))
        return random_sphere_placement(n, d, seed)
    if kind == "file":
        return read_placement(rest)
    raise ValueError(f"unknown placement kind {kind!r}")


def _inclusive_range(text: str, what: str) -> range:
    """'lo..hi' as the integers lo through hi; an empty range (lo > hi) is an error."""
    lo, _, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise ValueError(f"{what} must be int..int, got {text!r}") from None
    if lo > hi:
        raise ValueError(f"{what} {text!r} is empty: {lo} > {hi}")
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
                raise ValueError(f"expected an integer, got {piece!r}") from None
    return out


def parse_grid(text: str | None) -> dict | None:
    """Parse '--grid d=2..10,n=8' into {'d': [2..10], 'n': [8]}."""
    if not text:
        return None
    grid: dict[str, list] = {}
    for field in text.split(","):
        key, sep, value = field.partition("=")
        if not sep:
            raise ValueError(f"grid field {field!r} must look like key=value or key=lo..hi")
        if ".." in value:
            grid.setdefault(key, []).extend(_inclusive_range(value, "grid range"))
            continue
        try:  # signed digits are an int and any other number a float
            number = int(value) if value.lstrip("+-").isdigit() else float(value)
        except ValueError:
            raise ValueError(f"grid value for {key} must be a number, got {value!r}") from None
        grid.setdefault(key, []).append(number)
    return grid


# What a command returns: its exit code, {file name: JSON object or CSV text}
# in the order the manifest lists them, and its summary for stdout.
Outcome = tuple[int, dict, str]


def summary_json(value, pad: str = "") -> str:
    """value as json.dumps(value, indent=2) lays it out, except that a list
    of numbers or strings, such as an edge [u, v], a placement row or a
    cluster [value, multiplicity], takes one line; json.loads reads the same
    value back.  The printed summaries use it; the written files keep
    json.dumps(value, indent=2)."""
    inner = pad + "  "
    if isinstance(value, dict) and value:
        # a key that is not a string becomes the string json.dumps makes of it
        keys = (k if isinstance(k, str) else json.dumps(k) for k in value)
        items = (f"{inner}{json.dumps(k)}: {summary_json(v, inner)}" for k, v in zip(keys, value.values()))
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)) and any(isinstance(v, (dict, list, tuple)) for v in value):
        return "[\n" + ",\n".join(inner + summary_json(v, inner) for v in value) + f"\n{pad}]"
    return json.dumps(value)


def cmd_spectrum(args) -> Outcome:
    g = parse_graph_spec(args.graph)
    p = parse_placement_spec(args.placement)
    spectrum = clustered_spectrum(stiffness(g, p), args.tol)
    result = {"graph": args.graph, "placement": args.placement, "stiffness": spectrum.to_json_dict()}
    files = {"spectrum.json": result, "spectrum.csv": spectrum.to_csv()}
    if args.lower:
        lower = clustered_spectrum(lower_stiffness_direct(g, p), args.tol)
        result["lower_stiffness"] = lower.to_json_dict()
        files["lower_spectrum.csv"] = lower.to_csv()
    return 0, files, summary_json(result)


def cmd_verify(args) -> Outcome:
    report = run_suite(args.suite, grid=parse_grid(args.grid), samples=args.samples, seed=args.seed)
    summary = "\n".join(
        f"{sub['suite']}: {'pass' if sub['pass'] else 'FAIL'} "
        f"({sub['count']} instances, {len(sub['failures'])} failures)"
        for sub in report.get("suites", [report])
    )
    if not report["pass"]:
        print(f"first failure: {json.dumps(report['failures'][0])[:400]}", file=sys.stderr)
    return int(not report["pass"]), {"verify_report.json": report}, summary


def cmd_bounds(args) -> Outcome:
    given = [f"--{k}" for k in ("restarts", "seed") if getattr(args, k) is not None]
    if given and not args.observe:
        raise ValueError(f"bounds reads {' and '.join(given)} only with --observe")
    report = bound_report(args.n, args.d)
    if args.observe:
        args.restarts = 16 if args.restarts is None else args.restarts
        args.seed = 0 if args.seed is None else args.seed
        config = OptimizerConfig(restarts=args.restarts, seed=args.seed)
        witness = gap_ascent(complete_graph(args.n), args.d, config).summary()
        margin = None if report.ceiling is None else report.ceiling - witness["best_gap"]
        report = dataclasses.replace(report, gap_observed=witness["best_gap"], margin=margin, witness=witness)
    payload = report.to_json_dict()
    return 0, {"bounds.json": payload}, summary_json(payload)


def cmd_optimize(args) -> Outcome:
    g = parse_graph_spec(args.graph)
    config = OptimizerConfig(restarts=args.restarts, max_iters=args.max_iters, seed=args.seed)
    witness = gap_ascent(g, args.d, config)
    return 0, {"optimize_result.json": witness.to_json_dict()}, summary_json(witness.summary())


def cmd_conjecture(args) -> Outcome:
    takes = inspect.signature(PROBES[args.tag]).parameters
    params: dict = {}
    for flag in ("n", "d"):
        if getattr(args, flag) is None:
            continue
        values = parse_int_range(getattr(args, flag))
        if f"{flag}s" in takes:  # the probe sweeps a list of values
            params[f"{flag}s"] = values
        elif len(values) == 1 or flag not in takes:
            params[flag] = values[0]
        else:
            raise ValueError(f"--{flag} must be a single integer for this tag, got {values}")
    for flag in ("samples", "restarts"):
        if getattr(args, flag) is not None:
            params[flag] = getattr(args, flag)
    record = conjecture_probe(args.tag, params, seed=args.seed)
    summary = {"name": record["name"], "summary": record["summary"]}
    return 0, {f"conjecture_{args.tag}.json": record}, summary_json(summary)


def _environment() -> dict:
    """What a run's numbers may depend on beyond its flags: the Python, numpy
    and BLAS versions (BLAS as numpy reports it, else null), the core count,
    and the BLAS thread settings (null where unset), since large spectra
    change in their last bits with the BLAS thread count."""
    try:  # numpy >= 1.26 reports the BLAS it was built with
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        blas = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "cpu_count": os.cpu_count(),
        "threads_env": {v: os.environ.get(v) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _run_and_record(args) -> int:
    """Run the subcommand; write its files and <command>_manifest.json under
    --outdir, print its summary, and return its exit code.

    The manifest's params are the subcommand's flags; its seed is the --seed
    the command read, which bounds fills in only with --observe; its
    environment is _environment().
    """
    t0 = time.perf_counter()
    code, files, summary = args.func(args)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, content in files.items():
        (outdir / name).write_text(content if isinstance(content, str) else json.dumps(content, indent=2) + "\n")
    manifest = {
        "command": args.command,
        "params": {k: v for k, v in vars(args).items() if k not in ("func", "command")},
        "seed": getattr(args, "seed", None),
        "version": __version__,
        "environment": _environment(),
        "wall_time_s": time.perf_counter() - t0,
        "outputs": [str(outdir / name) for name in files],
    }
    (outdir / f"{args.command}_manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    print(summary)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="adconn", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, seed=True):
        sp.add_argument("--outdir", default=".", help="directory for result files and the run manifest")
        if seed:
            sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("spectrum", help="clustered stiffness spectrum of a framework")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--placement", required=True)
    sp.add_argument("--tol", type=float, default=None, help="clustering tolerance (default 1e-8 * max(1, |L|_max))")
    sp.add_argument("--lower", action="store_true", help="also emit the edge-basis spectrum")
    common(sp, seed=False)
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
    sp.add_argument("--observe", action="store_true", help="run the optimizer and attach the observed gap and margin")
    sp.add_argument("--restarts", type=int, default=None, help="with --observe only (default 16)")
    sp.add_argument("--seed", type=int, default=None, help="with --observe only (default 0)")
    common(sp, seed=False)
    sp.set_defaults(func=cmd_bounds)

    sp = sub.add_parser("optimize", help="maximize the spectral gap over placements")
    sp.add_argument("--graph", required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--restarts", type=int, default=8)
    sp.add_argument("--max-iters", type=int, default=400)
    common(sp)
    sp.set_defaults(func=cmd_optimize)

    sp = sub.add_parser("conjecture", help="run a conjecture probe")
    sp.add_argument("tag", choices=PROBE_TAGS)
    sp.add_argument("--n", default=None, help="integer or range like 3..10")
    sp.add_argument("--d", default=None, help="integer or range like 2..4")
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--restarts", type=int, default=None)
    common(sp)
    sp.set_defaults(func=cmd_conjecture)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _run_and_record(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def cli_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    cli_main()
