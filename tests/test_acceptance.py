"""Acceptance suite: one test per criterion, each at its stated tolerance,
printing a single pass/fail line (run with -s to see them inline)."""

import math
import time

from adconn.bounds import k4_gap_upper_bound
from adconn.closedform import (
    bound_report,
    crosspolytope_spectrum_closed_form,
    pyramid_spectrum_closed_form,
    simplex_spectrum_closed_form,
    spectrum_matches,
    turan_simplex_spectrum_closed_form,
)
from adconn.framework import Placement, stiffness
from adconn.graphs import complete_graph, turan_graph
from adconn.optimize import OptimizerConfig, gap_ascent
from adconn.placements import (
    crosspolytope_placement,
    regular_simplex,
    triangular_pyramid,
    turan_simplex_placement,
)
from adconn.probes import conjecture_probe
from adconn.seeding import rng_stream
from adconn.spectral import clustered_spectrum, spectral_gap, symmetric_eigenvalues
from adconn.verify import run_suite

VALUE_TOL = 1e-9

TURAN_PAIRS = ((2, 6), (2, 12), (3, 8), (3, 12), (3, 24), (4, 10), (4, 20), (5, 12))
CROSS_PAIRS = ((2, 4), (2, 8), (3, 6), (3, 12), (3, 24), (4, 8), (4, 16))
HEIGHTS = (0.2, 1 / math.sqrt(6), math.sqrt(2 / 3), 1.0, 5.0)


def report(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {number} ({label}): {status} {detail}".rstrip())
    assert ok, f"criterion {number} ({label}) failed: {detail}"


def test_criterion_01_simplex_spectra():
    t0 = time.perf_counter()
    worst = 0.0
    ok = True
    for d in range(2, 11):
        computed = clustered_spectrum(stiffness(complete_graph(d + 1), regular_simplex(d)))
        match = spectrum_matches(simplex_spectrum_closed_form(d), computed, VALUE_TOL)
        ok = ok and match.ok
        worst = max(worst, match.max_value_error)
    elapsed = time.perf_counter() - t0
    report(1, "simplex spectra d=2..10", ok and elapsed < 10, f"max err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_turan_simplex_spectra():
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    for d, n in TURAN_PAIRS:
        computed = clustered_spectrum(stiffness(turan_graph(n, d + 1)[0], turan_simplex_placement(n, d)))
        match = spectrum_matches(turan_simplex_spectrum_closed_form(n, d), computed, VALUE_TOL)
        ok = ok and match.ok and match.multiplicity_match
        worst = max(worst, match.max_value_error)
    elapsed = time.perf_counter() - t0
    report(2, "turan simplex spectra", ok and elapsed < 60, f"max err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_03_crosspolytope_spectra():
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    for d, n in CROSS_PAIRS:
        computed = clustered_spectrum(stiffness(turan_graph(n, 2 * d)[0], crosspolytope_placement(n, d)))
        match = spectrum_matches(crosspolytope_spectrum_closed_form(n, d), computed, VALUE_TOL)
        ok = ok and match.ok and match.multiplicity_match
        worst = max(worst, match.max_value_error)
    elapsed = time.perf_counter() - t0
    report(3, "crosspolytope spectra incl merged (2,8)", ok and elapsed < 60, f"max err {worst:.2e}, {elapsed:.2f}s")


def test_criterion_04_pyramid_family():
    ok = True
    detail = []
    for h in HEIGHTS:
        g, p = complete_graph(4), triangular_pyramid(h)
        match = spectrum_matches(pyramid_spectrum_closed_form(h), clustered_spectrum(stiffness(g, p)), VALUE_TOL)
        ok = ok and match.ok
        if h >= 1 / math.sqrt(6) - 1e-12:
            lam7 = symmetric_eigenvalues(stiffness(g, p))[6]
            ok = ok and abs(lam7 - 1.0) <= VALUE_TOL
            detail.append(f"h={h:.3f}: gap {lam7:.12f}")
    report(4, "pyramid spectra + unit gap for high apex", ok, "; ".join(detail))


def test_criterion_05_circle_spectra():
    reportd = run_suite("circle", samples=5, seed=0)
    worst_resid = max(e["identity_residual"] for e in reportd["entries"])
    report(
        5,
        "circle spectra n=3..20 + rank-one identity",
        reportd["pass"],
        f"{reportd['count']} instances, worst identity residual {worst_resid:.2e}",
    )


def test_criterion_06_eigenvector_families():
    reportd = run_suite("families", samples=20, seed=0)
    worst = max(e["max_value_error"] for e in reportd["entries"])
    report(
        6,
        "eigenvector families: residuals and ranks",
        reportd["pass"],
        f"{reportd['count']} entries, worst residual {worst:.2e}",
    )


def test_criterion_07_interlacing_sweep():
    reportd = run_suite("interlacing", samples=1000, seed=0)
    worst = max(e["max_value_error"] for e in reportd["entries"])
    report(
        7,
        "interlacing on 1000 random instances",
        reportd["pass"] and worst <= 1e-9,
        f"worst violation {worst:.2e}",
    )


def test_criterion_08_kyfan_machinery():
    reportd = run_suite("kyfan", samples=500, seed=0)
    equality = [
        e for e in reportd["entries"] if e["instance"].get("instance") == "equilateral-triangle"
    ]
    ok = reportd["pass"] and len(equality) == 1 and abs(equality[0]["computed"] - 6.0) <= 1e-9
    report(
        8,
        "vertex-star projection + top-n sum floor on 500 placements",
        ok,
        f"{reportd['count']} entries, equality witness sum {equality[0]['computed']:.12f}",
    )


def test_criterion_09_bounds_sandwich():
    ok = True
    checked = 0
    for d in (3, 4):
        for n in range(2 * d, 49):
            if n % (2 * d) != 0:
                continue
            gap = spectral_gap(turan_graph(n, 2 * d)[0], crosspolytope_placement(n, d))
            rep = bound_report(n, d)
            ok = ok and abs(gap - n / (2 * d)) <= VALUE_TOL
            ok = ok and n / (2 * d) <= rep.upper + 1e-12
            checked += 1
    report(9, "constructive lower bound = n/2d <= upper bound", ok, f"{checked} (n, d) pairs")


def test_criterion_10_optimizer_recovery():
    t0 = time.perf_counter()
    k4 = gap_ascent(complete_graph(4), 3, OptimizerConfig(restarts=32, seed=1))
    ok_k4 = 0.999 <= k4.best_gap <= 1.0 + 1e-6
    rng = rng_stream(1, "acceptance-witness")
    witness_max = 0.0
    witness_ok = True
    for _ in range(1000):
        p = Placement(rng.standard_normal((4, 3)))
        w = k4_gap_upper_bound(p)
        witness_max = max(witness_max, w)
        witness_ok = witness_ok and w <= 1.0 + 1e-12
    k3 = gap_ascent(complete_graph(3), 2, OptimizerConfig(restarts=8, seed=1))
    elapsed = time.perf_counter() - t0
    ok = ok_k4 and witness_ok and k3.best_gap >= 1.499 and elapsed < 300
    report(
        10,
        "optimizer recovery with witness cap",
        ok,
        f"K4 gap {k4.best_gap:.9f}, K3 gap {k3.best_gap:.9f}, max witness {witness_max:.6f}, {elapsed:.1f}s",
    )


def test_criterion_11_conjecture_probes():
    top = conjecture_probe("top-n-sum", {"ns": range(3, 11), "ds": (2, 3, 4), "samples": 10}, seed=2)
    spherical = conjecture_probe("spherical-second-eig", {"n": 8, "d": 3, "samples": 25}, seed=2)
    spherical_odd = conjecture_probe("spherical-second-eig", {"n": 9, "d": 3, "samples": 10}, seed=2)
    ok = top["summary"]["min_margin"] >= -1e-9
    ok = ok and spherical["summary"]["min_half_n_multiplicity"] >= 7
    ok = ok and abs(spherical["summary"]["min_margin"]) <= 1e-8
    ok = ok and spherical_odd["summary"]["min_half_n_multiplicity"] >= 8
    report(
        11,
        "conjecture probes report margins",
        ok,
        f"top-n-sum min margin {top['summary']['min_margin']:.2e}, "
        f"n/2 multiplicity floor {spherical['summary']['min_half_n_multiplicity']}",
    )
