"""Stiffness-matrix spectra of graph frameworks and numerical maximization of
the d-dimensional algebraic connectivity."""

__version__ = "0.1.0"

from .bounds import (
    circle_identity_matrices,
    k4_gap_upper_bound,
    top_eigenvalue_sum_check,
    vertex_star_projection,
)
from .closedform import (
    BoundReport,
    bound_report,
    circle_spectrum_closed_form,
    crosspolytope_spectrum_closed_form,
    pyramid_spectrum_closed_form,
    simplex_spectrum_closed_form,
    spectrum_matches,
    turan_simplex_spectrum_closed_form,
)
from .families import (
    crosspolytope_families,
    edge_length_eigenvector,
    eigen_residual,
    eigenvector_condition_check,
    turan_simplex_families,
    weighted_length_vector,
)
from .framework import (
    Placement,
    edge_lengths,
    lower_stiffness_direct,
    placement_from_json,
    placement_to_json,
    rigidity_matrix,
    stiffness,
)
from .graphs import (
    Graph,
    TuranPartition,
    complete_graph,
    make_graph,
    random_regular_graph,
    turan_graph,
    turan_partition,
)
from .optimize import OptimizerConfig, Witness, gap_ascent, seeded_restarts
from .placements import (
    CirclePlacement,
    crosspolytope_placement,
    random_sphere_placement,
    regular_simplex,
    roots_of_unity_angles,
    triangular_pyramid,
    turan_simplex_placement,
    unit_circle_placement,
)
from .probes import conjecture_probe
from .spectral import (
    MultiplicitySpectrum,
    cluster_multiplicities,
    clustered_spectrum,
    interlacing_checks,
    numeric_rank,
    spectral_gap,
    symmetric_eigenvalues,
)
from .verify import run_suite
