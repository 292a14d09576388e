"""Self-tests of the benchmark: determinism of counts, seeding, the tracer's
rebinding, the correctness gate, and the result line.

Run with ``python -m pytest benchmarks/tests`` from the repository root.
"""

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import time

import adconn
import pytest

import gauge
import run
import tracer as tr
import workloads

COMPUTED = (tr.EIG_DIM3, tr.STIFFNESS_BYTES, tr.LOWER_BYTES, "optimize.eigensolves_per_restart")


def _repeatable(record):
    metrics = record["result"]["metrics"]
    counts = {k: v["value"] for k, v in metrics.items() if k.endswith(".calls") or k in COMPUTED}
    return record["failed_frac"], record["gap_deficit"], counts


@pytest.mark.parametrize("name, seed", [("optimize-k12", 6), ("verify-all", 3), ("spectra-large", 3)])
def test_fixed_seed_repeats_failed_frac_gap_deficit_and_counts(name, seed):
    first = run.run_workload(name, seed, seconds=0, trace=True, min_passes=2)
    second = run.run_workload(name, seed, seconds=0, trace=True, min_passes=2)
    assert first["failed_frac"] == 0.0
    assert _repeatable(first) == _repeatable(second)
    calls = _repeatable(first)[2]
    assert any(calls.values())


def test_seed_changes_optimizer_starts():
    wl = workloads.WORKLOADS["optimize-k12"]
    a, b = wl.build(1).seeded, wl.build(2).seeded
    starts_a = adconn.seeded_restarts(a[0], wl.d, a[1])
    starts_b = adconn.seeded_restarts(b[0], wl.d, b[1])
    assert any((sa.points != sb.points).any() for sa, sb in zip(starts_a, starts_b))


def test_seed_changes_verify_instances():
    def instances(seed):
        report = workloads.WORKLOADS["verify-all"].run(seed)
        return [json.dumps(e["instance"], sort_keys=True) + json.dumps(e["computed"], default=str)
                for s in report["suites"] for e in s["entries"]]

    assert instances(1) != instances(2)


def test_tracer_counts_stiffness_called_through_verify():
    g, p = adconn.complete_graph(4), adconn.regular_simplex(3)
    original = adconn.verify.stiffness
    tracer = tr.Tracer()
    with tracer:
        assert adconn.verify.stiffness is not original
        adconn.verify.stiffness(g, p)
    assert adconn.verify.stiffness is original
    stats = tr.self_times(tracer.take())
    assert stats["framework.stiffness"][0] == 1
    assert stats["framework.rigidity_matrix"][0] == 1
    assert tracer.counts[tr.STIFFNESS_BYTES] == 12 * 12 * 8


def test_tracer_reaches_suites_dispatched_through_a_dict():
    tracer = tr.Tracer()
    with tracer:
        adconn.run_suite("tetra")
    stats = tr.self_times(tracer.take())
    assert stats["verify.tetra"][0] == 1
    # five spectra through spectral's binding, four gap checks through verify's
    assert stats["framework.stiffness"][0] == 9
    assert adconn.verify._SUITE_FUNCS["tetra"] is adconn.verify.suite_tetra


def test_missing_target_stops_the_run(monkeypatch):
    monkeypatch.delattr(adconn.bounds, "vertex_star_projection")
    tracer = tr.Tracer()
    with pytest.raises(tr.MissingTargets, match="bounds.vertex_star_projection"):
        tracer.install()
    assert adconn.verify.stiffness is adconn.framework.stiffness


def test_pass_gauge_ticks_inside_the_pass_and_restores_the_handler():
    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    handler = signal.getsignal(signal.SIGALRM)
    with gauge.PassGauge() as g:
        g.run(busy, 0.45)
    assert len(g.tick_spans) >= 3
    assert len(g.rounds_s) == 2 * gauge.EDGE_ROUNDS + len(g.tick_spans)
    assert signal.getsignal(signal.SIGALRM) is handler


def test_pass_gauge_takes_in_pass_rounds_off_the_pass_time():
    with gauge.PassGauge(ticks=False) as g:
        g.run(lambda _: g._tick(signal.SIGALRM, None), None)
    ((_, tick_s),) = g.tick_spans
    assert 0 <= g.pass_s < 0.2 * tick_s


def test_untraced_pass_gauge_does_not_reach_the_tracer():
    tracer = tr.Tracer()
    with gauge.PassGauge(ticks=False) as g:
        with tracer:
            g.run(lambda _: time.sleep(0.25), None)
    assert len(g.rounds_s) == 2 * gauge.EDGE_ROUNDS
    assert tracer.take() == []


def test_self_time_subtracts_children():
    spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 4.0, 0), ("c", 2.0, 3.0, 1), ("b", 5.0, 6.0, 0)]
    stats = tr.self_times(spans)
    assert stats["a"] == (1, 6.0)
    assert stats["b"] == (2, 3.0)
    assert stats["c"] == (1, 1.0)


@pytest.fixture(scope="module")
def circle_k48():
    frameworks = workloads.WORKLOADS["spectra-large"].build(0).timed
    fw = next(f for f in frameworks if f.label.startswith("complete:48"))
    return fw, workloads.WORKLOADS["spectra-large"].run([fw])[0]


def test_spectra_checks_pass_on_true_spectra(circle_k48):
    fw, spectra = circle_k48
    checks = workloads.check_framework_spectra(fw, spectra)
    assert checks and all(ok for _, ok in checks)


@pytest.mark.parametrize("field", ["stiffness", "lower"])
def test_corrupted_spectrum_counts_as_failure(circle_k48, field):
    fw, spectra = circle_k48
    good = getattr(spectra, field)
    clusters = list(good.clusters)
    v, m = clusters[-1]
    clusters[-1] = (v + 1e-6, m)
    bad = adconn.MultiplicitySpectrum(tuple(clusters), good.total, good.cluster_tol)
    tally = run.Tally()
    tally.add(workloads.check_framework_spectra(fw, dataclasses.replace(spectra, **{field: bad})))
    assert tally.failed and tally.attempted > len(tally.failed)


def test_failing_verify_entry_counts_as_failure():
    report = {"suites": [{"suite": "x", "entries": [{"pass": True}, {"pass": False}]}],
              "count": 2, "pass": False}
    checks = workloads.WORKLOADS["verify-all"].check(0, report)
    assert [label for label, ok in checks if not ok] == ["x[1]"]


def _result_line(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_lists_the_declared_metrics(trace, key):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "verify-all", "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    line = _result_line(proc.stdout)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec[key]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == declared


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "verify-all", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
