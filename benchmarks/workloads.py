"""The three benchmark workloads: inputs from a seed, one pass, its checks.

Every workload drives adconn through its public functions, looked up on the
``adconn`` package at call time so that the tracer's patched bindings are
the ones called.  A workload builds its inputs once (``build``), runs them in
``run`` (the timed pass) and verifies every pass's output in ``check``, which
returns one ``(label, ok)`` pair per check.  Checks never run inside a timed
or traced region.
"""

from __future__ import annotations

from dataclasses import dataclass

import adconn

VALUE_TOL = 1e-9          # closed-form values, as in the repository's acceptance suite
NONZERO_TOL = 1e-6        # clusters above this are the nonzero part of a spectrum
GAP_RECHECK_TOL = 1e-12   # reported best_gap against an independent spectral_gap
K12_DEFICIT_FLOOR = 1e-3  # K12/d3 witness quality floor, as in the repository's optimizer tests

# optimize-k12 run length depends chaotically on the seed (3.8-11 s over seeds
# 0-7), so its timed passes run this fixed reference seed; the --seed pass is
# checked and gives the gap deficit.
K12_REFERENCE_SEED = 0


@dataclass(frozen=True)
class Inputs:
    """``seeded`` runs once, untimed, before the timed passes on ``timed``."""

    seeded: object
    timed: object


class OptimizeK12:
    name = "optimize-k12"
    n, d, restarts = 12, 3, 2

    def build(self, seed: int) -> Inputs:
        g = adconn.complete_graph(self.n)
        report = adconn.bound_report(self.n, self.d)

        def job(s):
            return (g, adconn.OptimizerConfig(restarts=self.restarts, seed=s), report)

        return Inputs(seeded=job(seed), timed=job(K12_REFERENCE_SEED))

    def run(self, job):
        g, config, _ = job
        return adconn.gap_ascent(g, self.d, config)

    def gap_deficit(self, job, result) -> float:
        return job[2].lower_divisible - result.best_gap

    def check(self, job, result) -> list[tuple[str, bool]]:
        g, _, report = job
        gap = result.best_gap
        independent = adconn.spectral_gap(g, result.best_placement)
        return [
            ("best_gap equals spectral_gap(best_placement)", abs(gap - independent) <= GAP_RECHECK_TOL),
            ("best_gap within [lower_general, upper]", report.lower_general <= gap <= report.upper),
            ("gap_deficit within the witness floor", self.gap_deficit(job, result) <= K12_DEFICIT_FLOOR),
        ]


class VerifyAll:
    name = "verify-all"

    def build(self, seed: int) -> Inputs:
        return Inputs(seeded=seed, timed=seed)

    def run(self, seed):
        return adconn.run_suite("all", seed=seed)

    def check(self, seed, report) -> list[tuple[str, bool]]:
        checks = []
        for suite in report["suites"]:
            for k, entry in enumerate(suite["entries"]):
                checks.append((f"{suite['suite']}[{k}]", bool(entry["pass"])))
        all_pass = all(ok for _, ok in checks)
        checks.append(("report pass flag agrees with its entries", report["pass"] == all_pass))
        checks.append(("report count agrees with its entries", report["count"] == len(checks) - 1))
        return checks


@dataclass(frozen=True)
class Framework:
    label: str
    graph: object
    placement: object
    closed_form: object   # PredictedSpectrum, or None
    lower: bool           # also take the edge-basis (lower) spectrum


@dataclass(frozen=True)
class FrameworkSpectra:
    stiffness: object     # MultiplicitySpectrum
    lower: object         # MultiplicitySpectrum, or None


class SpectraLarge:
    name = "spectra-large"

    def build(self, seed: int) -> Inputs:
        a = adconn
        frameworks = (
            Framework("turan:48,6@crosspolytope:48,3", a.turan_graph(48, 6)[0],
                      a.crosspolytope_placement(48, 3), a.crosspolytope_spectrum_closed_form(48, 3), True),
            Framework("turan:48,4@turan-simplex:48,3", a.turan_graph(48, 4)[0],
                      a.turan_simplex_placement(48, 3), a.turan_simplex_spectrum_closed_form(48, 3), True),
            Framework("complete:48@circle:48", a.complete_graph(48),
                      a.unit_circle_placement(a.roots_of_unity_angles(48)).placement,
                      a.circle_spectrum_closed_form(48), True),
            Framework(f"complete:96@random:96,3,{seed}", a.complete_graph(96),
                      a.random_sphere_placement(96, 3, seed), None, False),
        )
        return Inputs(seeded=frameworks, timed=frameworks)

    def run(self, frameworks):
        a = adconn
        out = []
        for fw in frameworks:
            stiff = a.clustered_spectrum(a.stiffness(fw.graph, fw.placement))
            lower = a.clustered_spectrum(a.lower_stiffness_direct(fw.graph, fw.placement)) if fw.lower else None
            out.append(FrameworkSpectra(stiff, lower))
        return out

    def check(self, frameworks, spectra) -> list[tuple[str, bool]]:
        checks = []
        for fw, sp in zip(frameworks, spectra):
            checks.extend(check_framework_spectra(fw, sp))
        return checks


def nonzero_clusters(spectrum) -> list[tuple[float, int]]:
    return [(v, m) for v, m in spectrum.clusters if abs(v) > NONZERO_TOL]


def clusters_agree(a, b) -> bool:
    return len(a) == len(b) and all(
        ma == mb and abs(va - vb) <= VALUE_TOL for (va, ma), (vb, mb) in zip(a, b)
    )


def check_framework_spectra(fw: Framework, sp: FrameworkSpectra) -> list[tuple[str, bool]]:
    """Closed form where one exists; otherwise the trace identity and the top-n
    eigenvalue sum floor; the lower spectrum's nonzero part equals the
    stiffness spectrum's, because R R^t and R^t R share nonzero eigenvalues."""
    g, p, s = fw.graph, fw.placement, sp.stiffness
    trace = sum(v * m for v, m in s.clusters)
    checks = [
        (f"{fw.label}: stiffness dimension", s.total == g.n * p.d),
        # every edge between distinct points adds 2 to trace(R R^t)
        (f"{fw.label}: stiffness trace equals 2|E|", abs(trace - 2 * g.m) <= VALUE_TOL * 2 * g.m),
    ]
    if fw.closed_form is not None:
        match = adconn.spectrum_matches(fw.closed_form, s, VALUE_TOL)
        checks.append((f"{fw.label}: stiffness spectrum matches its closed form", match.ok))
    else:
        top = adconn.top_eigenvalue_sum_check(p)
        eigs = [v for v, m in s.clusters for _ in range(m)]
        computed_top = sum(eigs[-g.n:])
        checks.append((f"{fw.label}: top-n eigenvalue sum floor", top.margin >= -VALUE_TOL))
        checks.append((f"{fw.label}: top-n sum agrees with the computed spectrum",
                       abs(computed_top - top.total) <= VALUE_TOL * top.total))
    if fw.lower:
        checks.append((f"{fw.label}: lower dimension", sp.lower.total == g.m))
        checks.append((f"{fw.label}: lower nonzero clusters equal stiffness nonzero clusters",
                       clusters_agree(nonzero_clusters(sp.lower), nonzero_clusters(s))))
    return checks


WORKLOADS = {w.name: w for w in (OptimizeK12(), VerifyAll(), SpectraLarge())}
