"""Numerical probes for the open conjectures.

Each probe samples instances, evaluates both sides of the conjectured
statement, and reports per-instance margins together with reproduction data
for any counterexample candidate.  Probes never assert truth; they only
measure.

A probe is a function of keyword parameters whose signature holds the only
default of each one, plus the run-level seed; it returns its instances,
summary and counterexample candidates.  conjecture_probe binds the caller's
parameters against that signature, refuses any the probe does not read, and
records the bound values as the record's params.  Its counts pass
seeding.as_count, but for the spherical probe's n >= 3 and d >= 3, whose
message points d = 2 to verify --suite circle.
"""

from __future__ import annotations

from .bounds import top_eigenvalue_sum_checks
from .closedform import canonical_placements
from .framework import Placement, stiffness
from .graphs import complete_graph, random_regular_graph
from .optimize import OptimizerConfig, gap_ascent
from .placements import centered_sphere_points
from .seeding import as_count, as_index, as_seed, rng_stream
from .spectral import clustered_spectrum
from .verify import bind_params


def _probe_spherical_second_eig(n=8, d=3, samples=50, *, seed) -> tuple[list, dict, list]:
    """Second-largest stiffness eigenvalue of K_n at centered spherical
    placements in R^d, d >= 3: conjectured to be n/2 with multiplicity exactly
    n-1 (at least n-1 is guaranteed; in R^2 the circle closed form gives 2n-4)."""
    samples, n, d = as_count(samples, "samples", 1), as_index(n, "n"), as_index(d, "d")
    if n < 3 or d < 3:
        raise ValueError(f"spherical-second-eig needs n >= 3 and d >= 3, got n = {n}, d = {d}; for d = 2 see verify --suite circle")
    g = complete_graph(n)
    instances, candidates = [], []
    for s in range(samples):
        rng = rng_stream(seed, f"spherical:{n}:{d}:{s}")
        p = centered_sphere_points(n, d, rng)
        spectrum = clustered_spectrum(stiffness(g, p))
        second_value, second_mult = spectrum.clusters[-2]
        half_mult = 0
        for value, mult in spectrum.clusters:
            if abs(value - n / 2) <= 1e-8:
                half_mult = mult
        inst = {
            "sample": s,
            "second_largest_value": second_value,
            "second_largest_multiplicity": second_mult,
            "half_n_cluster_multiplicity": half_mult,
            "margin": second_value - n / 2,
        }
        instances.append(inst)
        if abs(inst["margin"]) > 1e-8 or second_mult != n - 1:
            candidates.append(inst)
    margins = [i["margin"] for i in instances]
    summary = {
        "expected_value": n / 2,
        "expected_multiplicity": n - 1,
        "min_margin": min(margins),
        "max_margin": max(margins),
        "min_half_n_multiplicity": min(i["half_n_cluster_multiplicity"] for i in instances),
    }
    return instances, summary, candidates


def _probe_top_n_sum(ns=range(3, 11), ds=range(2, 5), samples=20, *, seed) -> tuple[list, dict, list]:
    """Sum of the n largest stiffness eigenvalues of K_n at injective
    placements, against the conjectured floor n(n+1)/2, stated for n >= 3."""
    samples = as_count(samples, "samples", 0)
    ns = [as_count(n, "n", 3) for n in ns]
    ds = [as_index(d, "d") for d in ds]
    pool = []
    for n in ns:
        for d in ds:
            pool += [(n, d, name, p) for name, p in canonical_placements(n, d) if p.is_injective()]
            for s in range(samples):
                rng = rng_stream(seed, f"topsum:{n}:{d}:{s}")
                pool.append((n, d, f"random-{s}", Placement(rng.standard_normal((n, d)))))
    instances, candidates = [], []
    for (n, d, label, _), check in zip(pool, top_eigenvalue_sum_checks([p for *_, p in pool])):
        bound = n * (n + 1) / 2.0
        inst = {
            "n": n,
            "d": d,
            "instance": label,
            "top_sum": check.total,
            "conjectured_bound": bound,
            "margin": check.total - bound,
        }
        instances.append(inst)
        if inst["margin"] < -1e-9:
            candidates.append(inst)
    if not instances:
        raise ValueError("top-n-sum has no instances: samples is 0 and no canonical framework fits ns and ds")
    worst = min(instances, key=lambda i: i["margin"])
    summary = {
        "min_margin": worst["margin"],
        "min_margin_instance": {k: worst[k] for k in ("n", "d", "instance")},
        "max_margin": max(i["margin"] for i in instances),
        "equality_hits": [
            {k: i[k] for k in ("n", "d", "instance")}
            for i in instances
            if abs(i["margin"]) <= 1e-9
        ],
    }
    return instances, summary, candidates


def _probe_regular_2d(d=2, ns=(8, 12, 16), samples=3, restarts=4, *, seed) -> tuple[list, dict, list]:
    """Best optimizer gaps of random 2d-regular graphs, each drawn by
    graphs.random_regular_graph from its own (seed, n, sample) stream and
    kept as its optimize.Witness summary, which holds the graph and the
    placement that attain the gap; the conjecture is that the achievable gap
    vanishes as the vertex count grows."""
    samples, d = as_count(samples, "samples", 1), as_count(d, "d", 1)
    ns = [as_index(n, "n") for n in ns]
    if not ns:
        raise ValueError("regular-2d needs at least one vertex count n, got ns = []")
    if min(ns) <= 2 * d:
        raise ValueError(f"regular-2d needs n > 2d for a 2d-regular graph on n vertices, got n = {min(ns)}, d = {d}")
    config = OptimizerConfig(restarts=restarts, seed=seed)
    instances = []
    for n in ns:
        for s in range(samples):
            g = random_regular_graph(2 * d, n, rng_stream(seed, f"regular:{n}:{s}"))
            instances.append({"n": n, "sample": s, "witness": gap_ascent(g, d, config).summary()})
    summary = {
        "max_gap_by_n": {str(n): max(i["witness"]["best_gap"] for i in instances if i["n"] == n) for n in ns},
    }
    return instances, summary, []


PROBES = {
    "spherical-second-eig": _probe_spherical_second_eig,
    "top-n-sum": _probe_top_n_sum,
    "regular-2d": _probe_regular_2d,
}
PROBE_TAGS = tuple(PROBES)


def conjecture_probe(name: str, params: dict | None = None, seed: int = 0) -> dict:
    """Run the named conjecture sweep; see PROBE_TAGS for the valid names.
    A parameter the probe does not read, or a seed that seeding.as_seed
    refuses, is a ValueError."""
    seed = as_seed(seed)
    if name not in PROBES:
        raise ValueError(f"unknown conjecture tag {name!r}; valid tags: {', '.join(PROBE_TAGS)}")
    bound = bind_params(PROBES[name], params or {}, f"conjecture {name!r}")
    instances, summary, candidates = PROBES[name](**bound, seed=seed)
    return {
        "name": name,
        "params": bound,
        "seed": seed,
        "instances": instances,
        "summary": summary,
        "counterexample_candidates": candidates,
    }
