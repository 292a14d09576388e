"""Closed-form stiffness spectra for the canonical frameworks, the table of
those frameworks, and the lower/upper bound formulas for the d-dimensional
algebraic connectivity of complete graphs.

CANONICAL lists each canonical framework once, with its admissibility on
(n, d), graph, placement, closed-form spectrum and, where a row has them, the
eigenvector families behind its multiplicities.  The verify suites, the
optimizer's starts, the probes and the CLI placement specs read it, so a new
family costs one row plus its closed form.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable
from dataclasses import asdict, dataclass

import numpy as np

from .families import EigenvectorFamily, crosspolytope_families, turan_simplex_families
from .framework import Placement
from .graphs import Graph, TuranPartition, complete_graph, turan_graph
from .placements import (
    crosspolytope_placement,
    regular_simplex,
    roots_of_unity_angles,
    triangular_pyramid,
    turan_simplex_placement,
    unit_circle_placement,
)
from .seeding import as_count, as_index
from .spectral import MultiplicitySpectrum, cluster_multiplicities

MERGE_TOL = 1e-12


def float_sized(k, name: str) -> int:
    """k as an index (seeding.as_index), refused beyond the float range: each
    float formula below gives values no larger than its n, and n > d."""
    k = as_index(k, name)
    if k > sys.float_info.max:
        raise ValueError(f"{name} must be at most {sys.float_info.max:.4g} for the float formulas, got a {k.bit_length()}-bit {name}")
    return k


def _predicted(tag: str, pairs, expected_total: int) -> MultiplicitySpectrum:
    """Sorted clusters of the (value, multiplicity) pairs, values within MERGE_TOL merged."""
    if expected_total > np.iinfo(np.intp).max:  # np.repeat would raise OverflowError
        raise ValueError(f"{tag}: a spectrum of {expected_total} eigenvalues is more than an array holds")
    values, mults = zip(*pairs)
    spectrum = cluster_multiplicities(np.sort(np.repeat(values, mults)), MERGE_TOL)
    if spectrum.clusters[0][0] < 0:
        raise AssertionError(f"{tag}: negative predicted eigenvalue")
    if spectrum.total != expected_total:
        raise AssertionError(f"{tag}: multiplicities sum to {spectrum.total}, expected {expected_total}")
    return spectrum


def simplex_spectrum_closed_form(d: int) -> MultiplicitySpectrum:
    """Stiffness spectrum of K_{d+1} at the regular simplex: the Turán simplex form at n = d+1."""
    return turan_simplex_spectrum_closed_form(d + 1, d)


def turan_simplex_spectrum_closed_form(n: int, d: int) -> MultiplicitySpectrum:
    """Stiffness spectrum of the balanced (d+1)-partite graph at the simplex placement."""
    d = float_sized(as_count(d, "d", 2), "d")
    TuranPartition(float_sized(n, "n"), d + 1)  # refuses an n that is not d+1 equal blocks
    pairs = [
        (0.0, d * (d + 1) // 2),
        (n / (2 * (d + 1)), (n - d - 1) * (d - 1)),
        (n / (d + 1), (d - 2) * (d + 1) // 2),
        (n / 2, n - 1),
        (float(n), 1),
    ]
    return _predicted("turan-simplex", pairs, d * n)


def crosspolytope_spectrum_closed_form(n: int, d: int) -> MultiplicitySpectrum:
    """Stiffness spectrum of the balanced 2d-partite graph at the crosspolytope placement."""
    d = float_sized(as_count(d, "d", 2), "d")
    TuranPartition(float_sized(n, "n"), 2 * d)  # refuses an n that is not 2d equal blocks
    pairs = [
        (0.0, d * (d + 1) // 2),
        (n / (2 * d), n * (d - 1) - d * d),
        (n / d, d * (d - 1) // 2),
        (n / 2, n - 1),
        (float(n), 1),
    ]
    return _predicted("crosspolytope", pairs, d * n)


def pyramid_spectrum_closed_form(apex_height: float) -> MultiplicitySpectrum:
    """Stiffness spectrum of the 4-point pyramid family, parameterized by apex height.

    With ell^2 = h^2 + 1/3 the squared apex-edge length, the nonzero part is
    1^(2), (3 - 1/ell^2)^(1), (3/2 + 1/(2 ell^2))^(2), 4^(1); h = 0 degenerates
    to a planar image and is rejected.
    """
    h = float(apex_height)
    if h <= 0:
        raise ValueError(f"need apex height > 0, got {h}")
    ell2 = h * h + 1.0 / 3.0
    pairs = [
        (0.0, 6),
        (1.0, 2),
        (3.0 - 1.0 / ell2, 1),
        (1.5 + 0.5 / ell2, 2),
        (4.0, 1),
    ]
    return _predicted("pyramid", pairs, 12)


def circle_spectrum_closed_form(n: int) -> MultiplicitySpectrum:
    """Stiffness spectrum of K_n at any injective centered unit-circle placement."""
    n = float_sized(as_count(n, "n", 3), "n")
    pairs = [(0.0, 3), (n / 2, 2 * n - 4), (float(n), 1)]
    return _predicted("circle", pairs, 2 * n)


PYRAMID_START_HEIGHT = 1.0 / math.sqrt(6.0)


@dataclass(frozen=True)
class CanonicalFramework:
    """A canonical framework family, each field a function of (n, d); admits
    says where graph and placement exist, and the closed form and the
    families (None for a row without eigenvector families) also need d >= 2."""

    admits: Callable[[int, int], bool]
    graph: Callable[[int, int], Graph]
    placement: Callable[[int, int], Placement]
    spectrum: Callable[[int, int], MultiplicitySpectrum]
    families: Callable[[int, int], tuple[EigenvectorFamily, ...]] | None = None


# Row names are the closed-form tags; row order is the optimizer's start order.
# The families lambdas look their builder up per call, as the benchmark tracer needs.
CANONICAL: dict[str, CanonicalFramework] = {
    "simplex": CanonicalFramework(
        lambda n, d: d >= 1 and n == d + 1,
        lambda n, d: complete_graph(n),
        lambda n, d: regular_simplex(d),
        lambda n, d: simplex_spectrum_closed_form(d),
    ),
    "pyramid": CanonicalFramework(
        lambda n, d: (n, d) == (4, 3),
        lambda n, d: complete_graph(4),
        lambda n, d: triangular_pyramid(PYRAMID_START_HEIGHT),
        lambda n, d: pyramid_spectrum_closed_form(PYRAMID_START_HEIGHT),
    ),
    "crosspolytope": CanonicalFramework(
        lambda n, d: TuranPartition.exists(n, 2 * d),
        lambda n, d: turan_graph(n, 2 * d)[0],
        crosspolytope_placement,
        crosspolytope_spectrum_closed_form,
        lambda n, d: crosspolytope_families(n, d),
    ),
    "turan-simplex": CanonicalFramework(
        lambda n, d: TuranPartition.exists(n, d + 1),
        lambda n, d: turan_graph(n, d + 1)[0],
        turan_simplex_placement,
        turan_simplex_spectrum_closed_form,
        lambda n, d: turan_simplex_families(n, d),
    ),
    "circle": CanonicalFramework(
        lambda n, d: d == 2 and n >= 3,
        lambda n, d: complete_graph(n),
        lambda n, d: unit_circle_placement(roots_of_unity_angles(n)).placement,
        lambda n, d: circle_spectrum_closed_form(n),
    ),
}


def canonical_placements(n: int, d: int) -> list[tuple[str, Placement]]:
    """(row name, placement) of the rows admitting (n, d), in table order, less
    repeats: at n = d+1 the Turán simplex placement is the regular simplex."""
    n, d = as_count(n, "n", 1), as_count(d, "d", 1)
    out: list[tuple[str, Placement]] = []
    for name, row in CANONICAL.items():
        if row.admits(n, d):
            p = row.placement(n, d)
            if not any(np.array_equal(p.points, q.points) for _, q in out):
                out.append((name, p))
    return out


@dataclass(frozen=True)
class SpectrumMatch:
    ok: bool
    max_value_error: float
    multiplicity_match: bool


def spectrum_matches(
    predicted: MultiplicitySpectrum,
    computed: MultiplicitySpectrum,
    value_tol: float = 1e-9,
) -> SpectrumMatch:
    """Cluster-by-cluster comparison: multiplicities exact, values within value_tol."""
    if len(predicted.clusters) != len(computed.clusters):
        return SpectrumMatch(False, math.inf, False)
    mult_ok = predicted.multiplicities() == computed.multiplicities()
    max_err = max(
        (abs(pv - cv) for (pv, _), (cv, _) in zip(predicted.clusters, computed.clusters)),
        default=0.0,
    )
    return SpectrumMatch(mult_ok and max_err <= value_tol, max_err, mult_ok)


@dataclass(frozen=True)
class BoundReport:
    """Lower/upper bounds on the best achievable spectral gap of K_n in R^d,
    for d >= 3 and n >= d+1, where the upper bound 2n/(3(d-1)) + 1/3 holds.

    The other formula fields are present only where they apply:
    lower_general = ceil(n/(2d)) - 2d + 1 needs n >= 2d, lower_divisible =
    n/(2d) needs 2d | n, and ceiling = n/(2d), conjectured, not proven, needs
    n >= 2d.  witness is an optimizer's Witness summary (optimize.Witness),
    gap_observed its best gap, and margin = ceiling - gap_observed where both
    are present; a negative margin would be a counterexample candidate to the
    ceiling.
    """

    n: int
    d: int
    lower_divisible: float | None
    lower_general: float | None
    upper: float
    ceiling: float | None
    gap_observed: float | None = None
    margin: float | None = None
    witness: dict | None = None

    def to_json_dict(self) -> dict:
        return asdict(self)


def bound_report(n: int, d: int) -> BoundReport:
    n, d = float_sized(n, "n"), as_count(d, "d", 3)
    if n <= d:
        raise ValueError(f"no bound formula applies to n={n}, d={d}")
    ceiling = n / (2 * d) if n >= 2 * d else None
    lower_divisible = ceiling if TuranPartition.exists(n, 2 * d) else None
    lower_general = float(-(-n // (2 * d)) - 2 * d + 1) if n >= 2 * d else None
    upper = 2 * n / (3 * (d - 1)) + 1.0 / 3.0
    return BoundReport(n, d, lower_divisible, lower_general, upper, ceiling)
