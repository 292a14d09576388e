"""Verification sweeps: every closed-form spectrum, eigenvector family,
interlacing relation, and projection identity checked on a grid of instances.

The simplex, Turán-simplex and crosspolytope sweeps take their instances from
the closedform.CANONICAL rows; a custom (d, n) grid keeps the pairs a row admits.

Each sweep yields uniform report entries
    {theorem, instance, predicted, computed, max_value_error,
     multiplicity_match, pass}
so a single JSON schema covers all suites.
"""

from __future__ import annotations

import math

import numpy as np

from .bounds import (
    circle_identity_residual,
    top_eigenvalue_sum_check,
    vertex_star_projection,
    vertex_star_vector,
)
from .closedform import (
    CANONICAL,
    circle_spectrum_closed_form,
    pyramid_spectrum_closed_form,
    spectrum_matches,
)
from .families import (
    crosspolytope_families,
    edge_length_eigenvector,
    eigen_residual,
    turan_simplex_families,
    weighted_length_vector,
)
from .framework import Placement, lower_stiffness_direct, stiffness
from .graphs import Graph, complete_graph
from .placements import (
    centered_circle_angles,
    crosspolytope_placement,
    regular_simplex,
    roots_of_unity_angles,
    triangular_pyramid,
    turan_simplex_placement,
    unit_circle_placement,
)
from .seeding import rng_stream
from .spectral import interlacing_check, numeric_rank, stiffness_spectrum, symmetric_eigenvalues

SUITES = ("simplex", "turan", "cross", "tetra", "circle", "interlacing", "kyfan", "families")

VALUE_TOL = 1e-9
RESIDUAL_TOL = 1e-10

TURAN_GRID = ((2, 6), (2, 12), (3, 8), (3, 12), (3, 24), (4, 10), (4, 20), (5, 12))
CROSS_GRID = ((2, 4), (2, 8), (3, 6), (3, 12), (3, 24), (4, 8), (4, 16))
PYRAMID_HEIGHTS = (0.2, 1.0 / math.sqrt(6.0), math.sqrt(2.0 / 3.0), 1.0, 5.0)


def _entry(theorem, instance, predicted, computed, max_value_error, multiplicity_match, ok):
    return {
        "theorem": theorem,
        "instance": instance,
        "predicted": predicted,
        "computed": computed,
        "max_value_error": max_value_error,
        "multiplicity_match": multiplicity_match,
        "pass": bool(ok),
    }


def _spectrum_entry(theorem, instance, predicted, g, p):
    computed = stiffness_spectrum(g, p)
    match = spectrum_matches(predicted, computed, VALUE_TOL)
    return _entry(
        theorem,
        instance,
        [list(c) for c in predicted.clusters],
        [list(c) for c in computed.clusters],
        match.max_value_error,
        match.multiplicity_match,
        match.ok,
    )


def _grid_range(grid: dict | None, key: str, default) -> list:
    if grid and key in grid:
        return list(grid[key])
    return list(default)


def _grid_pairs(grid: dict | None, default_pairs, row: str) -> list[tuple[int, int]]:
    """(d, n) pairs either straight from the default grid or as the product of
    explicit d and n ranges, filtered by the CANONICAL row's admissibility."""
    if not grid or ("d" not in grid and "n" not in grid):
        return list(default_pairs)
    ds = _grid_range(grid, "d", sorted({d for d, _ in default_pairs}))
    ns = _grid_range(grid, "n", sorted({n for _, n in default_pairs}))
    return [(d, n) for d in ds for n in ns if CANONICAL[row].admits(n, d)]


def _canonical_entries(row: str, pairs, instance) -> list[dict]:
    """One closed-form spectrum entry per (d, n) pair of a CANONICAL row."""
    fw = CANONICAL[row]
    return [
        _spectrum_entry(row, instance(n, d), fw.spectrum(n, d), fw.graph(n, d), fw.placement(n, d))
        for d, n in pairs
    ]


def suite_simplex(grid=None, samples=None, seed=0) -> list[dict]:
    pairs = [(d, d + 1) for d in _grid_range(grid, "d", range(2, 11))]
    return _canonical_entries("simplex", pairs, lambda n, d: {"d": d})


def suite_turan(grid=None, samples=None, seed=0) -> list[dict]:
    pairs = _grid_pairs(grid, TURAN_GRID, "turan-simplex")
    return _canonical_entries("turan-simplex", pairs, lambda n, d: {"n": n, "d": d})


def suite_cross(grid=None, samples=None, seed=0) -> list[dict]:
    pairs = _grid_pairs(grid, CROSS_GRID, "crosspolytope")
    return _canonical_entries("crosspolytope", pairs, lambda n, d: {"n": n, "d": d})


def suite_tetra(grid=None, samples=None, seed=0) -> list[dict]:
    hs = _grid_range(grid, "h", PYRAMID_HEIGHTS)
    entries = []
    for h in hs:
        g, p = complete_graph(4), triangular_pyramid(h)
        entry = _spectrum_entry("pyramid", {"h": h}, pyramid_spectrum_closed_form(h), g, p)
        if h >= 1.0 / math.sqrt(6.0) - 1e-12:
            lam7 = float(symmetric_eigenvalues(stiffness(g, p))[6])
            entry["computed_gap"] = lam7
            entry["pass"] = entry["pass"] and abs(lam7 - 1.0) <= VALUE_TOL
        entries.append(entry)
    return entries


def suite_circle(grid=None, samples=5, seed=0) -> list[dict]:
    ns = _grid_range(grid, "n", range(3, 21))
    samples = 5 if samples is None else int(samples)

    def one(n, label, angles):
        circle = unit_circle_placement(angles)
        predicted = circle_spectrum_closed_form(n)
        entry = _spectrum_entry("circle", {"n": n, "instance": label}, predicted, complete_graph(n), circle.placement)
        residual = circle_identity_residual(circle.placement)
        entry["identity_residual"] = residual
        entry["pass"] = entry["pass"] and circle.centered and circle.injective and residual <= RESIDUAL_TOL
        return entry

    entries = []
    for n in ns:
        entries.append(one(n, "roots-of-unity", roots_of_unity_angles(n)))
        for s in range(samples):
            angles = centered_circle_angles(n, rng_stream(seed, f"circle:{n}:{s}"))
            entries.append(one(n, f"random-{s}", angles))
    return entries


def suite_interlacing(grid=None, samples=100, seed=0) -> list[dict]:
    ns = _grid_range(grid, "n", range(4, 11))
    ds = _grid_range(grid, "d", range(2, 5))
    samples = 100 if samples is None else int(samples)

    def one(s):
        rng = rng_stream(seed, f"interlacing:{s}")
        n = int(rng.choice(ns))
        d = int(rng.choice(ds))
        full = complete_graph(n)
        keep = rng.random(full.m) < 0.5
        if not keep.any():
            keep[:] = True
        g = Graph(n, tuple(e for e, k in zip(full.edges, keep) if k))
        e = g.edges[int(rng.integers(g.m))]
        p = Placement(rng.standard_normal((n, d)))
        ok, worst = interlacing_check(g, e, p)
        return _entry(
            "interlacing",
            {"sample": s, "n": n, "d": d, "edge": list(e), "edges": g.m},
            "violation <= 1e-9",
            worst,
            max(worst, 0.0),
            True,
            ok,
        )

    return [one(s) for s in range(samples)]


def suite_kyfan(grid=None, samples=500, seed=0) -> list[dict]:
    ns = _grid_range(grid, "n", range(3, 21))
    samples = 500 if samples is None else int(samples)
    entries = []
    for n in ns:
        P = vertex_star_projection(n)
        idem = float(np.max(np.abs(P @ P - P)))
        sym = float(np.max(np.abs(P - P.T)))
        star_err = max(
            float(np.max(np.abs(P @ vertex_star_vector(n, i) - vertex_star_vector(n, i))))
            for i in range(n)
        )
        trace_err = abs(float(np.trace(P)) - n)
        worst = max(idem, sym, star_err, trace_err)
        entries.append(
            _entry(
                "vertex-star-projection",
                {"n": n},
                "projection fixing all vertex stars, trace n",
                {"idempotency": idem, "symmetry": sym, "star_error": star_err, "trace_error": trace_err},
                worst,
                True,
                worst <= 1e-12,
            )
        )

    def one(s):
        rng = rng_stream(seed, f"topsum:{s}")
        n = int(rng.integers(3, 13))
        d = int(rng.integers(2, 5))
        p = Placement(rng.standard_normal((n, d)))
        check = top_eigenvalue_sum_check(p)
        return _entry(
            "top-n-eigenvalue-sum",
            {"sample": s, "n": n, "d": d},
            check.bound,
            check.total,
            max(-check.margin, 0.0),
            True,
            check.margin >= -1e-9,
        )

    entries.extend(one(s) for s in range(samples))

    equilateral = top_eigenvalue_sum_check(regular_simplex(2))
    entries.append(
        _entry(
            "top-n-eigenvalue-sum",
            {"instance": "equilateral-triangle", "n": 3, "d": 2},
            equilateral.bound,
            equilateral.total,
            abs(equilateral.margin),
            True,
            abs(equilateral.margin) <= 1e-12,
        )
    )
    return entries


def _family_entries(theorem, instance, g, p, families, expected_counts, joint_low=None):
    """Residual and rank entries shared by the two family suites."""
    C = lower_stiffness_direct(g, p)
    entries = []
    for family, expected in zip(families, expected_counts):
        worst = max(
            (eigen_residual(C, v, family.eigenvalue) for v in family.vectors), default=0.0
        )
        rank = numeric_rank(family.vectors) if family.count else 0
        entries.append(
            _entry(
                theorem,
                {**instance, "eigenvalue": family.eigenvalue, "count": family.count},
                {"count": expected, "residual": "<= 1e-10"},
                {"rank": rank, "max_residual": worst},
                worst,
                rank == expected == family.count,
                family.count == expected and rank == expected and worst <= RESIDUAL_TOL,
            )
        )
    if joint_low is not None:
        stacked, expected = joint_low
        rank = numeric_rank(stacked) if stacked.size else 0
        entries.append(
            _entry(
                theorem,
                {**instance, "joint": True},
                {"joint_rank": expected},
                {"joint_rank": rank},
                0.0,
                rank == expected,
                rank == expected,
            )
        )
    return entries


def suite_families(grid=None, samples=20, seed=0) -> list[dict]:
    samples = 20 if samples is None else int(samples)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")

    def turan_job(d, n):
        fam = turan_simplex_families(n, d)
        p = turan_simplex_placement(n, d)
        return _family_entries(
            "turan-simplex-families",
            {"n": n, "d": d},
            fam.graph,
            p,
            (fam.quads, fam.star_differences),
            ((d - 2) * (d + 1) // 2, (n - d - 1) * (d - 1)),
        )

    def cross_job(d, n):
        fam = crosspolytope_families(n, d)
        p = crosspolytope_placement(n, d)
        joint = np.vstack([fam.sign_splits.vectors, fam.vertex_shifts.vectors])
        return _family_entries(
            "crosspolytope-families",
            {"n": n, "d": d},
            fam.graph,
            p,
            (fam.axis_quads, fam.sign_splits, fam.vertex_shifts),
            (d * (d - 1) // 2, d * (d - 2), 2 * d * (d - 1) * (n // (2 * d) - 1)),
            joint_low=(joint, n * (d - 1) - d * d),
        )

    def spherical_job(label, n, p):
        g = complete_graph(n)
        C = lower_stiffness_direct(g, p)
        worst = 0.0
        for s in range(samples):
            rng = rng_stream(seed, f"phi-f:{label}:{s}")
            f = rng.standard_normal(n)
            f -= f.mean()
            worst = max(worst, eigen_residual(C, weighted_length_vector(p, f), n / 2.0))
        return _entry(
            "weighted-length-eigenvectors",
            {"instance": label, "n": n, "samples": samples},
            {"eigenvalue": n / 2.0, "residual": "<= 1e-10"},
            {"max_residual": worst},
            worst,
            True,
            worst <= RESIDUAL_TOL,
        )

    def length_job(s):
        rng = rng_stream(seed, f"length-vec:{s}")
        n = int(rng.integers(3, 11))
        d = int(rng.integers(2, 5))
        p = Placement(rng.standard_normal((n, d)))
        C = lower_stiffness_direct(complete_graph(n), p)
        worst = eigen_residual(C, edge_length_eigenvector(p), float(n))
        return _entry(
            "edge-length-eigenvector",
            {"sample": s, "n": n, "d": d},
            {"eigenvalue": n, "residual": "<= 1e-10"},
            {"max_residual": worst},
            worst,
            True,
            worst <= RESIDUAL_TOL,
        )

    turan_pairs = _grid_pairs(grid, TURAN_GRID, "turan-simplex")
    cross_pairs = _grid_pairs(grid, CROSS_GRID, "crosspolytope")
    entries = [e for d, n in turan_pairs for e in turan_job(d, n)]
    entries += [e for d, n in cross_pairs for e in cross_job(d, n)]
    entries += [spherical_job(f"turan-simplex:{n},{d}", n, turan_simplex_placement(n, d)) for d, n in turan_pairs]
    entries += [spherical_job(f"crosspolytope:{n},{d}", n, crosspolytope_placement(n, d)) for d, n in cross_pairs]
    entries += [length_job(s) for s in range(10)]
    return entries


_SUITE_FUNCS = {
    "simplex": suite_simplex,
    "turan": suite_turan,
    "cross": suite_cross,
    "tetra": suite_tetra,
    "circle": suite_circle,
    "interlacing": suite_interlacing,
    "kyfan": suite_kyfan,
    "families": suite_families,
}


def run_suite(name: str, grid=None, samples=None, seed: int = 0) -> dict:
    """Run one named sweep (or 'all') and aggregate a pass/fail report."""
    if name == "all":
        reports = [run_suite(s, grid=None, samples=samples, seed=seed) for s in SUITES]
        return {
            "suite": "all",
            "suites": reports,
            "count": sum(r["count"] for r in reports),
            "failures": [f for r in reports for f in r["failures"]],
            "pass": all(r["pass"] for r in reports),
        }
    if name not in _SUITE_FUNCS:
        raise ValueError(f"unknown suite {name!r}; valid: {', '.join(SUITES)} or 'all'")
    for key in ("d", "n"):
        if grid and any(v < 1 for v in grid.get(key, ())):
            raise ValueError(f"grid {key} values must be >= 1, got {grid[key]}")
    entries = _SUITE_FUNCS[name](grid=grid, samples=samples, seed=seed)
    if not entries:
        raise ValueError(f"suite {name!r} has no instances for this grid and sample count")
    failures = [e for e in entries if not e["pass"]]
    return {
        "suite": name,
        "entries": entries,
        "count": len(entries),
        "failures": failures,
        "pass": not failures,
    }
