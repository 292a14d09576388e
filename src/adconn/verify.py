"""Verification sweeps: every closed-form spectrum, eigenvector family,
interlacing relation, and projection identity checked on a grid of instances.

Each sweep is a function of keyword parameters, and its signature holds the
only default of each one.  run_suite binds a grid and a sample count against
that signature and refuses any value the sweep does not read.  The simplex,
Turán-simplex, crosspolytope and circle sweeps take their instances from the
closedform.CANONICAL rows, the families sweep from the rows with families;
a custom (d, n) grid keeps the pairs a row admits.  Every check of a closed-form
entry reads one assembled stiffness matrix, except the tetra gap (spectral_gap).
A sampled sweep draws its samples in order from one rng_stream per sweep or
grid point (circle one per n, interlacing and kyfan one each, families one per
spherical placement and one for the edge-length samples), so samples=k gives
the first k samples of any larger run.  The circle, interlacing and kyfan
sweeps solve their matrices as one stack per shape, built and solved in
chunks of at most spectral.STACK_BUDGET_BYTES (spectral.stack_chunks; the
default sweeps are one chunk per shape): the circle sweep each n's
stiffness matrices (clustered_spectra) and circle forms, the interlacing
sweep each (n, d)'s pairs (interlacing_checks, which reads each sample's
subgraph as a mask over the edges of K_n), and the kyfan sweep each (n, d)'s
placements (top_eigenvalue_sum_checks, which also sums each stack's top n
eigenvalues with one reduction).  The families sweep takes the residuals of
each family, and of each spherical placement's weighted-length vectors, as
one eigen_residual call, one stacked matrix product, and the kyfan sweep
the star errors of each n as one stacked product P b.  numpy forms each
member of a stacked product or solve as it forms that member alone, so
every report is that of one instance, vector or star at a time, bit for
bit.  Before it builds anything, each sweep refuses an instance whose
matrices would have a side above MAX_MATRIX_SIDE.

Each sweep yields uniform report entries
    {theorem, instance, predicted, computed, max_value_error,
     multiplicity_match, pass}
so a single JSON schema covers all suites.
"""

from __future__ import annotations

import inspect
import math

import numpy as np

from .bounds import circle_identity_matrices, top_eigenvalue_sum_checks, vertex_star_projection
from .closedform import CANONICAL, PYRAMID_START_HEIGHT, float_sized, pyramid_spectrum_closed_form, spectrum_matches
from .families import edge_length_eigenvector, eigen_residual, weighted_length_vectors
from .framework import Placement, lower_stiffness_direct, stiffness
from .graphs import complete_graph
from .placements import centered_sphere_points, regular_simplex, triangular_pyramid
from .seeding import as_index, as_seed, rng_stream
from .spectral import (
    clustered_spectra,
    clustered_spectrum,
    interlacing_checks,
    numeric_rank,
    spectral_gap,
    stack_chunks,
)

SUITES = ("simplex", "turan", "cross", "tetra", "circle", "interlacing", "kyfan", "families")

VALUE_TOL = 1e-9
RESIDUAL_TOL = 1e-10
# Largest side of a matrix that a sweep builds: dn for a stiffness matrix, and
# the C(n, 2) edges of K_n for the kyfan projection and the families' lower
# stiffness matrices.  A 4096 x 4096 matrix of floats takes 128 MiB, and one
# dense eigensolve of it tens of seconds on one core.
MAX_MATRIX_SIDE = 4096

GRIDS = {
    "turan-simplex": ((2, 6), (2, 12), (3, 8), (3, 12), (3, 24), (4, 10), (4, 20), (5, 12)),
    "crosspolytope": ((2, 4), (2, 8), (3, 6), (3, 12), (3, 24), (4, 8), (4, 16)),
}
PYRAMID_HEIGHTS = (0.2, PYRAMID_START_HEIGHT, math.sqrt(2.0 / 3.0), 1.0, 5.0)


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


def _spectrum_entry(theorem, instance, predicted, computed):
    """predicted against a computed clustered spectrum."""
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


def _require_side(side: int, instance: str) -> None:
    """ValueError for an instance that would build a matrix of side above
    MAX_MATRIX_SIDE; each sweep asks before it builds anything."""
    if side > MAX_MATRIX_SIDE:
        raise ValueError(f"{instance} needs a matrix of side above {MAX_MATRIX_SIDE}, the largest that verify builds")


def _canonical_entries(row: str, pairs, instance) -> list[dict]:
    """One closed-form spectrum entry per (d, n) pair of a CANONICAL row."""
    for d, n in pairs:
        float_sized(d, "d")  # past the float range, refused as the closed forms refuse it
        float_sized(n, "n")
        _require_side(d * n, f"{row} at n = {n}, d = {d}")
    fw = CANONICAL[row]
    return [
        _spectrum_entry(
            row, instance(n, d), fw.spectrum(n, d), clustered_spectrum(stiffness(fw.graph(n, d), fw.placement(n, d)))
        )
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
        computed = clustered_spectrum(stiffness(g, p))
        entry = _spectrum_entry("pyramid", {"h": height}, pyramid_spectrum_closed_form(height), computed)
        if height >= PYRAMID_START_HEIGHT - 1e-12:
            entry["computed_gap"] = gap = spectral_gap(g, p)
            entry["pass"] = entry["pass"] and abs(gap - 1.0) <= VALUE_TOL
        entries.append(entry)
    return entries


def suite_circle(n=range(3, 21), samples=5, *, seed) -> list[dict]:
    check_samples(samples, least=0)
    for k in n:
        _require_side(2 * k, f"circle at n = {k}")
    row = CANONICAL["circle"]
    entries = []
    for k in n:
        g, predicted = row.graph(k, 2), row.spectrum(k, 2)
        instances = {"roots-of-unity": row.placement(k, 2)}
        rng = rng_stream(seed, f"circle:{k}")
        for s in range(samples):
            instances[f"random-{s}"] = centered_sphere_points(k, 2, rng)
        for chunk in stack_chunks(list(instances.items()), (2 * k) ** 2 * 8):  # one float matrix of side 2k
            placements = [p for _, p in chunk]
            L = np.stack([stiffness(g, p) for p in placements])
            # circle_identity_matrices refuses a placement not centered, unit-norm and injective
            residuals = np.abs(L - circle_identity_matrices(placements)).max(axis=(1, 2)).tolist()
            for (label, _), computed, residual in zip(chunk, clustered_spectra(L), residuals):
                entry = _spectrum_entry("circle", {"n": k, "instance": label}, predicted, computed)
                entry["identity_residual"] = residual
                entry["pass"] = entry["pass"] and residual <= RESIDUAL_TOL
                entries.append(entry)
    return entries


def suite_interlacing(n=range(4, 11), d=range(2, 5), samples=100, *, seed) -> list[dict]:
    check_samples(samples, least=0)
    ns, ds = list(n), list(d)
    if min(ns, default=2) < 2:  # each sample removes an edge of a graph on n vertices
        raise ValueError(f"suite 'interlacing' needs n >= 2, got n = {min(ns)}")
    if ns and ds:
        _require_side(max(ns) * max(ds), f"interlacing at n = {max(ns)}, d = {max(ds)}")
    rng = rng_stream(seed, "interlacing")
    # each sample is a spanning subgraph of K_n, named by a mask over its edges
    cases = []
    for _ in range(samples):
        full = complete_graph(int(rng.choice(ns)))
        d = int(rng.choice(ds))
        keep = rng.random(full.m) < 0.5
        if not keep.any():
            keep[:] = True
        kept = np.flatnonzero(keep)
        e = full.edges[kept[int(rng.integers(len(kept)))]]
        cases.append((full, e, Placement(rng.standard_normal((full.n, d))), keep))
    return [
        _entry(
            "interlacing",
            {"sample": s, "n": p.n, "d": p.d, "edge": list(e), "edges": int(np.count_nonzero(keep))},
            "violation <= 1e-9",
            worst,
            max(worst, 0.0),
            True,
            ok,
        )
        for s, ((_, e, p, keep), (ok, worst)) in enumerate(zip(cases, interlacing_checks(cases)))
    ]


def suite_kyfan(n=range(3, 21), samples=500, *, seed) -> list[dict]:
    check_samples(samples, least=0)
    for k in n:
        _require_side(math.comb(k, 2), f"kyfan at n = {k}")
    entries = []
    for k in n:
        P = vertex_star_projection(k)
        idem = float(np.max(np.abs(P @ P - P)))
        sym = float(np.max(np.abs(P - P.T)))
        # every star b in one stacked product, each member with the bits of P @ b
        # (P @ B^t, one matrix product, would change the last bits)
        B = complete_graph(k).incidence
        star_err = float(np.abs(np.matmul(P, B[..., None])[..., 0] - B).max())
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

    rng = rng_stream(seed, "topsum")

    def draw():
        n = int(rng.integers(3, 13))
        d = int(rng.integers(2, 5))
        return Placement(rng.standard_normal((n, d)))

    placements = [draw() for _ in range(samples)]
    *checks, equilateral = top_eigenvalue_sum_checks([*placements, regular_simplex(2)])
    for s, (p, check) in enumerate(zip(placements, checks)):
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
        worst = eigen_residual(C, family.vectors, family.eigenvalue)
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


def _residual_entry(theorem, instance, eigenvalue, worst) -> dict:
    """An eigenvector family's worst residual against eigenvalue."""
    return _entry(
        theorem,
        instance,
        {"eigenvalue": eigenvalue, "residual": "<= 1e-10"},
        {"max_residual": worst},
        worst,
        True,
        worst <= RESIDUAL_TOL,
    )


def suite_families(d=None, n=None, samples=20, *, seed) -> list[dict]:
    check_samples(samples, least=1)

    def spherical_job(row, n, d):
        label, p = f"{row}:{n},{d}", CANONICAL[row].placement(n, d)
        C = lower_stiffness_direct(complete_graph(n), p)
        # the rows draw and center as one draw of n values at a time would
        weights = rng_stream(seed, f"phi-f:{label}").standard_normal((samples, n))
        weights -= weights.mean(axis=1, keepdims=True)
        worst = eigen_residual(C, weighted_length_vectors(p, weights), n / 2.0)
        instance = {"instance": label, "n": n, "samples": samples}
        return _residual_entry("weighted-length-eigenvectors", instance, n / 2.0, worst)

    length_rng = rng_stream(seed, "length-vec")

    def length_job(s):
        n = int(length_rng.integers(3, 11))
        d = int(length_rng.integers(2, 5))
        p = Placement(length_rng.standard_normal((n, d)))
        C = lower_stiffness_direct(complete_graph(n), p)
        worst = eigen_residual(C, edge_length_eigenvector(p), float(n))
        return _residual_entry("edge-length-eigenvector", {"sample": s, "n": n, "d": d}, n, worst)

    rows = [(row, _grid_pairs(d, n, row)) for row, fw in CANONICAL.items() if fw.families is not None]
    for row, pairs in rows:
        for pd, pn in pairs:
            _require_side(math.comb(pn, 2), f"{row} families at n = {pn}, d = {pd}")
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
    that does not read it, as is a grid d or n value below 1 or refused by
    seeding.as_index.  'all' runs every suite at its default grid, passing
    samples to the suites that read it, and refuses a grid.  A seed that
    seeding.as_seed refuses is a ValueError even for a seedless suite."""
    seed = as_seed(seed)
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
        if any(as_index(v, f"grid {key}") < 1 for v in grid.get(key, ())):
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
