"""Symmetric eigenvalue computation, multiplicity clustering, and interlacing checks."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .framework import Placement, rigidity_matrix, stiffness
from .graphs import Edge, Graph, remove_edge

DEFAULT_CLUSTER_TOL_FACTOR = 1e-8
DEFAULT_RANK_TOL = 1e-9
DEFAULT_INTERLACING_SLACK = 1e-9


def _require_symmetric(M: np.ndarray) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"matrix must be square, got shape {M.shape}")
    if M.size:
        asym = float(np.max(np.abs(M - M.T)))
        scale = max(1.0, float(np.max(np.abs(M))))
        if asym > 1e-12 * scale:
            raise ValueError(f"matrix is not symmetric: max |M - M^t| = {asym:.3e}")
    return M


def symmetric_eigenvalues(M: np.ndarray) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, ascending."""
    M = _require_symmetric(M)
    if M.size == 0:
        return np.zeros(0)
    return np.linalg.eigvalsh(M)


@dataclass(frozen=True)
class MultiplicitySpectrum:
    """Eigenvalues grouped into (value, multiplicity) clusters.

    Cluster values are strictly increasing with gaps larger than cluster_tol,
    and the multiplicities sum to the matrix dimension.
    """

    clusters: tuple[tuple[float, int], ...]
    total: int
    cluster_tol: float

    def __post_init__(self):
        if self.total != sum(m for _, m in self.clusters):
            raise ValueError("total must equal the sum of multiplicities")
        for _, m in self.clusters:
            if m < 1:
                raise ValueError("multiplicities must be >= 1")
        vals = [v for v, _ in self.clusters]
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("cluster values must be strictly increasing")

    def values(self) -> tuple[float, ...]:
        return tuple(v for v, _ in self.clusters)

    def multiplicities(self) -> tuple[int, ...]:
        return tuple(m for _, m in self.clusters)

    def to_csv(self) -> str:
        return "\n".join(f"{v!r},{m}" for v, m in self.clusters) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "clusters": [[v, m] for v, m in self.clusters],
            "total": self.total,
            "cluster_tol": self.cluster_tol,
        }


def cluster_multiplicities(eigs, tol: float) -> MultiplicitySpectrum:
    """Greedy left-to-right clustering of a sorted eigenvalue list.

    A value joins the current cluster iff it lies within tol of the cluster's
    running mean; the reported cluster value is the mean of its members.
    """
    eigs = np.asarray(eigs, dtype=float)
    if eigs.ndim != 1:
        raise ValueError("eigenvalues must be a 1-d sequence")
    if np.any(np.diff(eigs) < 0):
        raise ValueError("eigenvalues must be sorted ascending")
    clusters: list[tuple[float, int]] = []
    run_sum = 0.0
    run_count = 0
    for x in eigs:
        if run_count and abs(x - run_sum / run_count) <= tol:
            run_sum += float(x)
            run_count += 1
        else:
            if run_count:
                clusters.append((run_sum / run_count, run_count))
            run_sum, run_count = float(x), 1
    if run_count:
        clusters.append((run_sum / run_count, run_count))
    return MultiplicitySpectrum(tuple(clusters), int(eigs.size), tol)


def default_cluster_tol(M: np.ndarray) -> float:
    M = np.asarray(M, dtype=float)
    peak = float(np.max(np.abs(M))) if M.size else 0.0
    return DEFAULT_CLUSTER_TOL_FACTOR * max(1.0, peak)


def clustered_spectrum(M: np.ndarray, tol: float | None = None) -> MultiplicitySpectrum:
    """Eigenvalues of a symmetric matrix clustered at the default tolerance."""
    if tol is None:
        tol = default_cluster_tol(M)
    return cluster_multiplicities(symmetric_eigenvalues(M), tol)


def stiffness_spectrum(g: Graph, p: Placement, tol: float | None = None) -> MultiplicitySpectrum:
    return clustered_spectrum(stiffness(g, p), tol)


def trivial_motion_count(d: int) -> int:
    """Dimension of the space of infinitesimal translations and rotations in R^d."""
    return math.comb(d + 1, 2)


def spectral_gap(g: Graph, p: Placement) -> float:
    """The smallest eigenvalue of the stiffness matrix beyond the trivial-motion count."""
    if g.n <= p.d:
        raise ValueError(f"need n > d, got n={g.n}, d={p.d}")
    eigs = symmetric_eigenvalues(stiffness(g, p))
    return float(eigs[trivial_motion_count(p.d)])


def numeric_rank(M: np.ndarray, tol: float = DEFAULT_RANK_TOL) -> int:
    """Number of singular values above tol times the largest one; 0 for the zero matrix."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.size == 0:
        return 0
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > tol * sv[0]))


def is_infinitesimally_rigid(g: Graph, p: Placement, tol: float = DEFAULT_RANK_TOL) -> bool:
    """True iff the numeric rank of R equals dn - (d+1 choose 2)."""
    if g.n <= p.d:
        raise ValueError(f"need n > d, got n={g.n}, d={p.d}")
    return numeric_rank(rigidity_matrix(g, p), tol) == p.d * g.n - trivial_motion_count(p.d)


def interlacing_check(
    g: Graph, e: Edge, p: Placement, slack: float = DEFAULT_INTERLACING_SLACK
) -> tuple[bool, float]:
    """Eigenvalue sandwich between a framework and the same framework minus one edge.

    With ascending stiffness eigenvalues lam (of g) and lam' (of g minus e) and
    lam_0 := 0, checks lam_{i-1} <= lam'_i <= lam_i for all i up to the given
    slack.  Returns (holds, worst signed violation).
    """
    lam = symmetric_eigenvalues(stiffness(g, p))
    lam_prime = symmetric_eigenvalues(stiffness(remove_edge(g, e), p))
    lam_shift = np.concatenate(([0.0], lam[:-1]))
    worst = float(max(np.max(lam_shift - lam_prime), np.max(lam_prime - lam)))
    return worst <= slack, worst
