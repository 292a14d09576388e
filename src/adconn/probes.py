"""Numerical probes for the open conjectures.

Each probe samples instances, evaluates both sides of the conjectured
statement, and reports per-instance margins together with reproduction data
for any counterexample candidate.  Probes never assert truth; they only
measure.

A probe is a function of keyword parameters whose signature holds the only
default of each one, plus the run-level seed; it returns its instances,
summary and counterexample candidates.  conjecture_probe binds the caller's
parameters against that signature, refuses any the probe does not read, and
records the bound values as the record's params.

Only the regular-2d probe uses networkx, to sample its random regular graphs,
and it imports networkx when it first runs, so importing adconn does not load
it.
"""

from __future__ import annotations

import math

from .bounds import top_eigenvalue_sum_checks
from .closedform import canonical_placements
from .framework import Placement
from .graphs import complete_graph, make_graph
from .optimize import OptimizerConfig, gap_ascent
from .placements import centered_sphere_points, replicate_placement
from .seeding import rng_stream
from .spectral import spectral_gap, stiffness_spectrum
from .verify import bind_params, check_samples


def _probe_spherical_second_eig(n=8, d=3, samples=50, *, seed) -> tuple[list, dict, list]:
    """Second-largest stiffness eigenvalue of K_n at centered spherical
    placements: conjectured to be n/2 with multiplicity exactly n-1 (the n/2
    cluster is guaranteed to have multiplicity at least n-1)."""
    check_samples(samples, least=1)
    if n < 3 or d < 2:
        raise ValueError(f"spherical-second-eig needs n >= 3 and d >= 2, got n = {n}, d = {d}")
    g = complete_graph(n)
    instances, candidates = [], []
    for s in range(samples):
        rng = rng_stream(seed, f"spherical:{n}:{d}:{s}")
        p = centered_sphere_points(n, d, rng)
        spectrum = stiffness_spectrum(g, p)
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
    check_samples(samples, least=0)
    if min(ns, default=3) < 3:
        raise ValueError(f"top-n-sum needs n >= 3 for the floor n(n+1)/2, got n = {min(ns)}")
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


def _probe_kn_upper(n=12, d=3, restarts=8, *, seed) -> tuple[list, dict, list]:
    """Best optimizer gap for K_n in R^d against the conjectured ceiling n/(2d)."""
    config = OptimizerConfig(restarts=restarts, seed=seed)
    result = gap_ascent(complete_graph(n), d, config)
    ceiling = n / (2 * d)
    inst = {
        "n": n,
        "d": d,
        "best_gap": result.best_gap,
        "conjectured_ceiling": ceiling,
        "margin": ceiling - result.best_gap,
        "best_restart": result.best_restart,
    }
    summary = {"min_margin": inst["margin"], "max_margin": inst["margin"]}
    candidates = [inst] if inst["margin"] < -1e-9 else []
    return [inst], summary, candidates


def _probe_regular_2d(d=2, ns=(8, 12, 16), samples=3, restarts=4, *, seed) -> tuple[list, dict, list]:
    """Best optimizer gaps of random 2d-regular graphs; the conjecture is that
    the achievable gap vanishes as the vertex count grows.  This is the only
    code that uses networkx: it is imported here, when the probe first runs
    and after its arguments are checked, so bad input fails without loading
    it."""
    check_samples(samples, least=1)
    if not ns:
        raise ValueError("regular-2d needs at least one vertex count n, got ns = []")
    if min(ns) <= 2 * d:
        raise ValueError(f"regular-2d needs n > 2d for a 2d-regular graph on n vertices, got n = {min(ns)}, d = {d}")
    import networkx as nx

    instances = []
    for n in ns:
        for s in range(samples):
            graph_seed = int(rng_stream(seed, f"regular:{n}:{s}").integers(2**31))
            nxg = nx.random_regular_graph(2 * d, n, seed=graph_seed)
            g = make_graph(n, nxg.edges())
            result = gap_ascent(g, d, OptimizerConfig(restarts=restarts, seed=seed))
            instances.append({"n": n, "sample": s, "graph_seed": graph_seed, "best_gap": result.best_gap})
    summary = {
        "max_gap_by_n": {str(n): max(i["best_gap"] for i in instances if i["n"] == n) for n in ns},
    }
    return instances, summary, []


def _probe_repeated_points(n=4, d=3, ks=(2, 3, 4), *, seed) -> tuple[list, dict, list]:
    """Gap of K_{kn} with k vertices per image point of a base injective
    placement, against (k/2) times the k=2 gap."""
    if not ks:
        raise ValueError("repeated-points needs at least one replication count k, got ks = []")
    k = min(2, *ks)  # the k = 2 gap is the reference
    if k * n <= d:
        raise ValueError(f"repeated-points needs k*n > d, got k*n = {k * n} at k = {k}, n = {n}, d = {d}")
    rng = rng_stream(seed, f"repeated-base:{n}:{d}")
    base = Placement(rng.standard_normal((n, d)))
    gap2 = spectral_gap(complete_graph(2 * n), replicate_placement(base, 2))
    instances, candidates = [], []
    for k in ks:
        lhs = spectral_gap(complete_graph(k * n), replicate_placement(base, k))
        rhs = (k / 2.0) * gap2
        inst = {
            "k": k,
            "gap_repeated": lhs,
            "scaled_k2_gap": rhs,
            "ratio": lhs / rhs if rhs != 0 else math.inf,
            "margin": lhs - rhs,
        }
        instances.append(inst)
        if k >= 2 and abs(inst["margin"]) > 1e-8 * max(1.0, abs(rhs)):
            candidates.append(inst)
    summary = {
        "min_margin": min(i["margin"] for i in instances),
        "max_margin": max(i["margin"] for i in instances),
    }
    return instances, summary, candidates


PROBES = {
    "spherical-second-eig": _probe_spherical_second_eig,
    "top-n-sum": _probe_top_n_sum,
    "kn-upper": _probe_kn_upper,
    "regular-2d": _probe_regular_2d,
    "repeated-points": _probe_repeated_points,
}
PROBE_TAGS = tuple(PROBES)


def conjecture_probe(name: str, params: dict | None = None, seed: int = 0) -> dict:
    """Run the named conjecture sweep; see PROBE_TAGS for the valid names.
    A parameter the probe does not read is a ValueError."""
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
