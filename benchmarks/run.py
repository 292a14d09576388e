"""adconn benchmark: one workload per process, timed in-process.

    python3 benchmarks/run.py --workload optimize-k12 --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports ``adconn`` from its
``src`` directory.  With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; a full record (environment, sample counts, and
with tracing the spans of one pass) is written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gauge
import tracer as tr

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOAD_NAMES = ("optimize-k12", "verify-all", "spectra-large")
SETUP_PROBES = 9      # setup_s is the median of this many fresh-process set-ups
MIN_TIMED_PASSES = 3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "ADCONN_THREADS")
# BLAS thread pools are pinned to one thread unless the caller sets them: on a
# small shared machine a second BLAS thread moves the timings by tens of percent.
BLAS_THREAD_VARS = THREAD_VARS[:3]


class BenchError(Exception):
    pass


def use_checkout_source() -> None:
    """Put the checkout's benchmark and src directories first on sys.path."""
    if not (SRC / "adconn" / "__init__.py").is_file():
        raise BenchError(f"no adconn sources under {SRC}; run from a full source checkout")
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)


def load_workloads():
    """Import adconn and the workloads; refuse an adconn from outside the checkout."""
    import workloads
    import adconn

    if Path(adconn.__file__).resolve().parent != (SRC / "adconn").resolve():
        raise BenchError(f"imported adconn from {adconn.__file__}, not from {SRC}")
    return workloads


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    cpu_model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "platform": platform.platform(),
    }


def setup_probe(workload: str, seed: int) -> float:
    """Time, in this fresh process, importing adconn and building the inputs."""
    t0 = time.perf_counter()
    use_checkout_source()
    wl = load_workloads().WORKLOADS[workload]
    wl.build(seed)
    return time.perf_counter() - t0


def fresh_setup_s(workload: str, seed: int) -> tuple[float, float]:
    """One ``setup_probe`` in a fresh process: its raw time, and that time
    rescaled by the gauge rounds right before and after it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    with gauge.PassGauge(ticks=False) as g:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    raw = float(proc.stdout.strip().splitlines()[-1])
    return raw, g.rescale(raw)


class Tally:
    """Check results over a whole run."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def add(self, checks) -> None:
        self.attempted += len(checks)
        self.failed.extend(label for label, ok in checks if not ok)


def timed_passes(wl, job, tally: Tally, budget_s: float, min_passes: int,
                 tracer=None, between=None, ticks=True) -> tuple[list[float], list[float]]:
    """Run passes until ``budget_s`` has elapsed and at least ``min_passes``
    ran; check each pass's output outside the timed region.  ``between`` is
    called after each pass with the seconds elapsed so far; ``ticks`` turns
    the in-pass gauge rounds on.  Returns the raw pass times and the same
    times rescaled by the gauge (``gauge.py``)."""
    run = wl.run if tracer is None else tracer.wrap(tr.ROOT_SPAN, wl.run)
    raw: list[float] = []
    scaled: list[float] = []
    start = time.perf_counter()
    while len(raw) < min_passes or time.perf_counter() - start < budget_s:
        # the tracer is installed per pass, so the checks below are not traced
        with gauge.PassGauge(ticks) as g:
            with tracer or contextlib.nullcontext():
                out = g.run(run, job)
        raw.append(g.pass_s)
        scaled.append(g.rescale(g.pass_s))
        tally.add(wl.check(job, out))
        if between is not None:
            between(time.perf_counter() - start)
    return raw, scaled


def layer_metrics(tracer, traced_spans: list, passes: int) -> dict:
    """Per-pass calls and self time of every target, plus computed counters."""
    stats = tr.self_times(traced_spans)
    metrics = {}
    for label, _, _ in tracer.targets:
        calls, self_s = stats.get(label, (0, 0.0))
        metrics[f"{label}.calls"] = (_per_pass(calls, passes), "count")
        metrics[f"{label}.s"] = (self_s / passes, "s")
    counts = tracer.counts
    metrics[tr.EIG_DIM3] = (_per_pass(counts[tr.EIG_DIM3], passes), "count")
    metrics[tr.STIFFNESS_BYTES] = (_per_pass(counts[tr.STIFFNESS_BYTES], passes), "bytes")
    metrics[tr.LOWER_BYTES] = (_per_pass(counts[tr.LOWER_BYTES], passes), "bytes")
    restarts = counts[tr.ASCENT_RESTARTS]
    per_restart = counts[tr.ASCENT_EIGENSOLVES] / restarts if restarts else 0
    metrics["optimize.eigensolves_per_restart"] = (per_restart, "count")
    return metrics


def _per_pass(total, passes: int):
    return total // passes if total % passes == 0 else total / passes


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 min_passes: int = MIN_TIMED_PASSES) -> dict:
    """Measure one workload; return the result line plus a full record."""
    if name not in WORKLOAD_NAMES:
        raise BenchError(f"unknown workload {name!r}; choose from {', '.join(WORKLOAD_NAMES)}")
    workloads = load_workloads()
    wl = workloads.WORKLOADS[name]
    inputs = wl.build(seed)
    tally = Tally()

    # The seeded pass warms caches and lazy imports; it is checked, not timed.
    t0 = time.perf_counter()
    seeded_out = wl.run(inputs.seeded)
    seeded_s = time.perf_counter() - t0
    tally.add(wl.check(inputs.seeded, seeded_out))
    gap_deficit = wl.gap_deficit(inputs.seeded, seeded_out) if hasattr(wl, "gap_deficit") else None

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(), "seeded_pass_s": seeded_s, "gap_deficit": gap_deficit,
    }
    if not trace:
        setup_raw: list[float] = []
        setup_scaled: list[float] = []

        def probe_setup(elapsed: float) -> None:
            # Set-up probes are spread over the run, between passes.
            while len(setup_raw) < SETUP_PROBES and elapsed >= len(setup_raw) * seconds / SETUP_PROBES:
                raw, scaled = fresh_setup_s(name, seed)
                setup_raw.append(raw)
                setup_scaled.append(scaled)

        raw, scaled = timed_passes(wl, inputs.timed, tally, seconds, min_passes, between=probe_setup)
        probe_setup(float("inf"))
        metrics = {
            "setup_s": (statistics.median(setup_scaled), "s"),
            "wall_s": (statistics.median(scaled), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "pass_frac": (1.0 - len(tally.failed) / tally.attempted, "frac"),
        }
        record.update(setup_raw_s=setup_raw, setup_scaled_s=setup_scaled,
                      wall_raw_s=raw, wall_scaled_s=scaled)
    else:
        # In-pass gauge rounds would land inside traced spans, so both halves
        # are gauged right before and after each pass only.
        passes = max(1, min_passes // 2)
        _, untraced = timed_passes(wl, inputs.timed, tally, seconds / 2, passes, ticks=False)
        tracer = tr.Tracer()
        _, traced = timed_passes(wl, inputs.timed, tally, seconds / 2, passes, tracer, ticks=False)
        spans = tracer.take()
        metrics = layer_metrics(tracer, spans, len(traced))
        metrics["optimize.gap_deficit"] = (gap_deficit if gap_deficit is not None else 0.0, "1")
        metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
        first_pass = _first_pass(spans)
        record.update(untraced_wall_scaled_s=untraced, traced_wall_scaled_s=traced,
                      spans_first_pass=tr.spans_to_json(first_pass))
    record["failed_checks"] = tally.failed
    record["failed_frac"] = len(tally.failed) / tally.attempted
    result = {
        "correct": not tally.failed,
        "attempted": tally.attempted,
        "failed": len(tally.failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["result"] = result
    return record


def _first_pass(spans: list) -> list:
    """The spans of the first traced pass (the first root span and everything after it up
    to the next root span)."""
    roots = [i for i, s in enumerate(spans) if s[3] == -1]
    end = roots[1] if len(roots) > 1 else len(spans)
    return spans[:end]


def summary_lines(record: dict) -> list[str]:
    env = record["environment"]
    lines = [
        f"workload {record['workload']} seed {record['seed']} trace {record['trace']}",
        "env " + json.dumps(env, sort_keys=True),
        f"seeded pass {record['seeded_pass_s']:.4f} s",
    ]
    if record.get("gap_deficit") is not None:
        lines.append(f"gap_deficit {record['gap_deficit']!r} (seed {record['seed']})")
    if "wall_scaled_s" in record:
        w, r = record["wall_scaled_s"], record["wall_raw_s"]
        lines.append(f"wall_s median of {len(w)} rescaled passes: {statistics.median(w):.6f} s "
                     f"(raw median {statistics.median(r):.6f} s)")
        s, r = record["setup_scaled_s"], record["setup_raw_s"]
        lines.append(f"setup_s median of {len(s)} rescaled fresh processes: {statistics.median(s):.6f} s "
                     f"(raw median {statistics.median(r):.6f} s)")
    if "traced_wall_scaled_s" in record:
        u, t = record["untraced_wall_scaled_s"], record["traced_wall_scaled_s"]
        lines.append(f"rescaled untraced wall_s median of {len(u)}: {statistics.median(u):.6f} s; "
                     f"traced median of {len(t)}: {statistics.median(t):.6f} s")
    lines.append(f"failed_frac {record['failed_frac']!r} ({record['result']['failed']} of "
                 f"{record['result']['attempted']} checks)")
    lines.extend(f"FAILED {label}" for label in record["failed_checks"][:20])
    return lines


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    try:
        if args.setup_probe:
            print(repr(setup_probe(args.workload, args.seed)))
            return 0
        use_checkout_source()
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, tr.MissingTargets) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")
    for line in summary_lines(record):
        print(line)
    print(f"record written to {out_file.relative_to(ROOT)}")
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
