"""Verification sweeps: every closed-form spectrum, eigenvector family,
interlacing relation, and projection identity checked on a grid of instances.

Each sweep is a function of keyword parameters, and its signature holds the
only default of each one.  run_suite binds a grid and a sample count against
that signature and refuses any value the sweep does not read.  The simplex,
Turán-simplex and crosspolytope sweeps take their instances from the
closedform.CANONICAL rows, the families sweep from the rows with families;
a custom (d, n) grid keeps the pairs a row admits.

Each sweep yields uniform report entries
    {theorem, instance, predicted, computed, max_value_error,
     multiplicity_match, pass}
so a single JSON schema covers all suites.
"""

from __future__ import annotations

import inspect
import math

import numpy as np

from .bounds import (
    circle_identity_residual,
    top_eigenvalue_sum_check,
    top_eigenvalue_sum_checks,
    vertex_star_projection,
    vertex_star_vector,
)
from .closedform import (
    CANONICAL,
    circle_spectrum_closed_form,
    pyramid_spectrum_closed_form,
    spectrum_matches,
)
from .families import edge_length_eigenvector, eigen_residual, weighted_length_vectors
from .framework import Placement, lower_stiffness_direct, stiffness
from .graphs import Graph, complete_graph
from .placements import (
    centered_circle_angles,
    regular_simplex,
    roots_of_unity_angles,
    triangular_pyramid,
    unit_circle_placement,
)
from .seeding import as_index, rng_stream
from .spectral import interlacing_check, numeric_rank, stiffness_spectrum, symmetric_eigenvalues

SUITES = ("simplex", "turan", "cross", "tetra", "circle", "interlacing", "kyfan", "families")

VALUE_TOL = 1e-9
RESIDUAL_TOL = 1e-10

GRIDS = {
    "turan-simplex": ((2, 6), (2, 12), (3, 8), (3, 12), (3, 24), (4, 10), (4, 20), (5, 12)),
    "crosspolytope": ((2, 4), (2, 8), (3, 6), (3, 12), (3, 24), (4, 8), (4, 16)),
}
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


def _grid_pairs(ds, ns, row: str) -> list[tuple[int, int]]:
    """(d, n) pairs either straight from the row's default grid or as the
    product of the given d and n values (a missing one takes the default
    grid's values), filtered by the CANONICAL row's admissibility."""
    if ds is None and ns is None:
        return list(GRIDS[row])
    ds = sorted({d for d, _ in GRIDS[row]}) if ds is None else ds
    ns = sorted({n for _, n in GRIDS[row]}) if ns is None else ns
    return [(d, n) for d in ds for n in ns if CANONICAL[row].admits(n, d)]


def _canonical_entries(row: str, pairs, instance) -> list[dict]:
    """One closed-form spectrum entry per (d, n) pair of a CANONICAL row."""
    fw = CANONICAL[row]
    return [
        _spectrum_entry(row, instance(n, d), fw.spectrum(n, d), fw.graph(n, d), fw.placement(n, d))
        for d, n in pairs
    ]


def suite_simplex(d=range(2, 11), *, seed) -> list[dict]:
    pairs = [(k, k + 1) for k in d]
    return _canonical_entries("simplex", pairs, lambda n, d: {"d": d})


def suite_turan(d=None, n=None, *, seed) -> list[dict]:
    pairs = _grid_pairs(d, n, "turan-simplex")
    return _canonical_entries("turan-simplex", pairs, lambda n, d: {"n": n, "d": d})


def suite_cross(d=None, n=None, *, seed) -> list[dict]:
    pairs = _grid_pairs(d, n, "crosspolytope")
    return _canonical_entries("crosspolytope", pairs, lambda n, d: {"n": n, "d": d})


def suite_tetra(h=PYRAMID_HEIGHTS, *, seed) -> list[dict]:
    entries = []
    for height in h:
        g, p = complete_graph(4), triangular_pyramid(height)
        entry = _spectrum_entry("pyramid", {"h": height}, pyramid_spectrum_closed_form(height), g, p)
        if height >= 1.0 / math.sqrt(6.0) - 1e-12:
            lam7 = float(symmetric_eigenvalues(stiffness(g, p))[6])
            entry["computed_gap"] = lam7
            entry["pass"] = entry["pass"] and abs(lam7 - 1.0) <= VALUE_TOL
        entries.append(entry)
    return entries


def suite_circle(n=range(3, 21), samples=5, *, seed) -> list[dict]:
    check_samples(samples, least=0)

    def one(k, label, angles):
        circle = unit_circle_placement(angles)
        predicted = circle_spectrum_closed_form(k)
        entry = _spectrum_entry("circle", {"n": k, "instance": label}, predicted, complete_graph(k), circle.placement)
        residual = circle_identity_residual(circle.placement)
        entry["identity_residual"] = residual
        entry["pass"] = entry["pass"] and circle.centered and circle.injective and residual <= RESIDUAL_TOL
        return entry

    entries = []
    for k in n:
        entries.append(one(k, "roots-of-unity", roots_of_unity_angles(k)))
        for s in range(samples):
            angles = centered_circle_angles(k, rng_stream(seed, f"circle:{k}:{s}"))
            entries.append(one(k, f"random-{s}", angles))
    return entries


def suite_interlacing(n=range(4, 11), d=range(2, 5), samples=100, *, seed) -> list[dict]:
    check_samples(samples, least=0)
    ns, ds = list(n), list(d)
    if min(ns, default=2) < 2:  # each sample removes an edge of a graph on n vertices
        raise ValueError(f"suite 'interlacing' needs n >= 2, got n = {min(ns)}")

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


def suite_kyfan(n=range(3, 21), samples=500, *, seed) -> list[dict]:
    check_samples(samples, least=0)
    entries = []
    for k in n:
        P = vertex_star_projection(k)
        idem = float(np.max(np.abs(P @ P - P)))
        sym = float(np.max(np.abs(P - P.T)))
        star_err = max(
            float(np.max(np.abs(P @ vertex_star_vector(k, i) - vertex_star_vector(k, i))))
            for i in range(k)
        )
        trace_err = abs(float(np.trace(P)) - k)
        worst = max(idem, sym, star_err, trace_err)
        entries.append(
            _entry(
                "vertex-star-projection",
                {"n": k},
                "projection fixing all vertex stars, trace n",
                {"idempotency": idem, "symmetry": sym, "star_error": star_err, "trace_error": trace_err},
                worst,
                True,
                worst <= 1e-12,
            )
        )

    def draw(s):
        rng = rng_stream(seed, f"topsum:{s}")
        n = int(rng.integers(3, 13))
        d = int(rng.integers(2, 5))
        return Placement(rng.standard_normal((n, d)))

    placements = [draw(s) for s in range(samples)]
    for s, (p, check) in enumerate(zip(placements, top_eigenvalue_sum_checks(placements))):
        entries.append(
            _entry(
                "top-n-eigenvalue-sum",
                {"sample": s, "n": p.n, "d": p.d},
                check.bound,
                check.total,
                max(-check.margin, 0.0),
                True,
                check.margin >= -1e-9,
            )
        )

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


def _family_entries(row: str, n: int, d: int) -> list[dict]:
    """Residual and rank entries of a CANONICAL row's eigenvector families at
    (n, d): one per family, then one joint-rank entry per eigenvalue that two
    or more families share, expecting the sum of their counts."""
    fw = CANONICAL[row]
    families = fw.families(n, d)
    C = lower_stiffness_direct(fw.graph(n, d), fw.placement(n, d))
    theorem, instance = f"{row}-families", {"n": n, "d": d}
    entries = []
    for family in families:
        worst = max((eigen_residual(C, v, family.eigenvalue) for v in family.vectors), default=0.0)
        rank = numeric_rank(family.vectors)
        counts_ok = rank == family.expected == family.count
        entries.append(
            _entry(
                theorem,
                {**instance, "eigenvalue": family.eigenvalue, "count": family.count},
                {"count": family.expected, "residual": "<= 1e-10"},
                {"rank": rank, "max_residual": worst},
                worst,
                counts_ok,
                counts_ok and worst <= RESIDUAL_TOL,
            )
        )
    for value in dict.fromkeys(f.eigenvalue for f in families):
        shared = [f for f in families if f.eigenvalue == value]
        if len(shared) > 1:
            expected = sum(f.expected for f in shared)
            rank = numeric_rank(np.vstack([f.vectors for f in shared]))
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


def suite_families(d=None, n=None, samples=20, *, seed) -> list[dict]:
    check_samples(samples, least=1)

    def spherical_job(row, n, d):
        label, p = f"{row}:{n},{d}", CANONICAL[row].placement(n, d)
        C = lower_stiffness_direct(complete_graph(n), p)
        weights = []
        for s in range(samples):
            f = rng_stream(seed, f"phi-f:{label}:{s}").standard_normal(n)
            f -= f.mean()
            weights.append(f)
        worst = 0.0
        for vec in weighted_length_vectors(p, weights):
            worst = max(worst, eigen_residual(C, vec, n / 2.0))
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

    rows = [(row, _grid_pairs(d, n, row)) for row, fw in CANONICAL.items() if fw.families is not None]
    entries = [e for row, pairs in rows for pd, pn in pairs for e in _family_entries(row, pn, pd)]
    entries += [spherical_job(row, pn, pd) for row, pairs in rows for pd, pn in pairs]
    entries += [length_job(s) for s in range(10)]
    return entries


# Each name in SUITES runs the function suite_<name>.
_SUITE_FUNCS = {name: globals()[f"suite_{name}"] for name in SUITES}


def check_samples(samples: int, least: int) -> None:
    """A sample count that is not an integer (seeding.as_index), or is below
    least, is a ValueError."""
    if as_index(samples, "samples") < least:
        raise ValueError(f"samples must be >= {least}, got {samples}")


def bind_params(fn, values: dict, what: str) -> dict:
    """The parameters of fn other than the run-level seed, in signature order,
    each with its value from values or else its signature default; tuples and
    ranges come back as lists.  A value that fn does not take is a ValueError
    that names it and the parameters fn takes."""
    params = inspect.signature(fn).parameters
    names = [k for k in params if k != "seed"]
    refused = [k for k in values if k not in names]
    if refused:
        raise ValueError(f"{what} does not read {', '.join(refused)}; it reads {', '.join(names)}")
    bound = {k: values.get(k, params[k].default) for k in names}
    return {k: list(v) if isinstance(v, (tuple, range)) else v for k, v in bound.items()}


def run_suite(name: str, grid=None, samples=None, seed: int = 0) -> dict:
    """Run one named sweep (or 'all') and aggregate a pass/fail report.

    The grid maps parameters of the suite's function to value lists, and
    samples sets its sample count; either one is a ValueError for a suite
    that does not read it.  'all' runs every suite at its default grid,
    passing samples to the suites that read it, and refuses a grid."""
    if name == "all":
        if grid:
            raise ValueError(f"suite 'all' does not read {', '.join(grid)}; it reads samples")
        takes = {s: inspect.signature(_SUITE_FUNCS[s]).parameters for s in SUITES}
        reports = [run_suite(s, samples=samples if "samples" in takes[s] else None, seed=seed) for s in SUITES]
        return {
            "suite": "all",
            "suites": reports,
            "count": sum(r["count"] for r in reports),
            "failures": [f for r in reports for f in r["failures"]],
            "pass": all(r["pass"] for r in reports),
        }
    if name not in _SUITE_FUNCS:
        raise ValueError(f"unknown suite {name!r}; valid: {', '.join(SUITES)} or 'all'")
    grid = grid or {}
    if "samples" in grid:
        raise ValueError("samples is not a grid key; pass it as samples (--samples)")
    given = grid if samples is None else {**grid, "samples": samples}
    params = bind_params(_SUITE_FUNCS[name], given, f"suite {name!r}")
    for key in ("d", "n"):
        if any(v < 1 for v in grid.get(key, ())):
            raise ValueError(f"grid {key} values must be >= 1, got {grid[key]}")
    entries = _SUITE_FUNCS[name](**params, seed=seed)
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
