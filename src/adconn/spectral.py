"""Symmetric eigenvalue computation, multiplicity clustering, and interlacing checks.

``symmetric_eigenvalues`` takes one matrix or a stack of matrices of one
size, shape (..., m, m), and answers with the ascending eigenvalues of each.
It reads its input once: the pass refuses a non-finite or non-symmetric
member and finds max|M| of each, which the later steps reuse, and which
``clustered_spectrum`` takes its default tolerance from.  When m is at most
SYMMETRY_TILE the whole stack is checked by two reductions over its last two
axes and solved by one eigvalsh call, since per-call overhead, not reading the
matrices, dominates at those sizes; numpy solves each member of a stack as it
would solve that matrix alone, so stacking changes no bit.  A larger matrix is
read in pairs of mirrored SYMMETRY_TILE x SYMMETRY_TILE tiles, one member at a
time.  A matrix of size at least LOW_RANK_MIN_SIZE then tries a certified
low-rank route, built for edge-basis stiffness matrices R^t R, whose rank is
at most dn - C(d+1, 2) and often far below their size.  A semidefinite matrix of
rank r has tr(M)^2 <= r ||M||_F^2, so the route is skipped when that ratio
lies above its pivot budget (with a margin of LOW_RANK_SKIP_MARGIN): such a
matrix would exhaust the budget.  A greedy diagonal-pivoted Cholesky
factorization (Higham, "Analysis of the Cholesky decomposition of a
semi-definite matrix", 1990) stops at the numerical rank k, when no
remaining pivot exceeds m * eps * max|M|, and gives M ~ L L^t with L of
shape (m, k).  The residual E = L L^t - M is then formed in full: by
Weyl's inequality no eigenvalue of L L^t is farther than ||E||_F from the
matching eigenvalue of M.  Only when that bound is at most
LOW_RANK_RESIDUAL_TOL * max(1, max|M|) does the route answer, with the
eigenvalues of the k x k matrix L^t L and m - k zeros; every other matrix
(full rank, indefinite, or out of pivots) gets the full eigensolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .framework import Placement, rigidity_matrix, stiffness
from .graphs import Edge, Graph

DEFAULT_CLUSTER_TOL_FACTOR = 1e-8
DEFAULT_RANK_TOL = 1e-9
DEFAULT_INTERLACING_SLACK = 1e-9
# Below this size a low-rank attempt costs about as much as the full solve
# (twice it at 36 x 36), so the optimizer's and verify's many small matrices
# never try the route.
LOW_RANK_MIN_SIZE = 256
# The factorization gives up after m // LOW_RANK_PIVOT_DIVISOR pivots, so a
# matrix of nearly full rank that the trace test below lets through wastes
# little on an aborted attempt.
LOW_RANK_PIVOT_DIVISOR = 4
# The route is skipped when tr(M)^2 exceeds (1 + this) times the pivot budget
# times ||M||_F^2.  Rounding moves that ratio of a matrix the route can answer
# above its pivot count by far less; the K96/d3 stiffness matrix (rank 282 of
# 288) has a ratio of 245 against a budget of 72 and goes straight to eigvalsh.
LOW_RANK_SKIP_MARGIN = 0.01
# Largest certified eigenvalue error of the route, relative to max(1, max|M|).
LOW_RANK_RESIDUAL_TOL = 1e-10
# Edge of the mirrored tiles of the symmetry check.  M - M^t reads the
# transpose with stride m; a pair of 128 x 128 tiles stays in cache.  A
# matrix of size at most this is a single tile.
SYMMETRY_TILE = 128


def _finite_peak(tile: np.ndarray) -> float:
    # max propagates a NaN, and |inf| is inf, so one max finds both
    peak = float(np.abs(tile).max(initial=0.0))
    if not math.isfinite(peak):
        raise ValueError("matrix must be finite")
    return peak


def _require_symmetric(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """M as a float array of shape (..., m, m) and the max|M| of each matrix in
    it, after refusing a non-square stack, or a non-finite or non-symmetric
    member, in one pass: over the whole stack when m <= SYMMETRY_TILE, else over
    pairs of mirrored tiles of each member."""
    M = np.asarray(M, dtype=float)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError(f"matrix must be square, got shape {M.shape}")
    if M.shape[-1] <= SYMMETRY_TILE:
        axes = (-2, -1)
        peak = np.abs(M).max(axis=axes, initial=0.0)
        # max propagates a NaN, and |inf| is inf, so one max finds both
        if not math.isfinite(peak.max(initial=0.0)):
            raise ValueError("matrix must be finite")
        asym = np.abs(M - M.swapaxes(-2, -1)).max(axis=axes, initial=0.0)
    else:
        peak, asym = np.zeros(M.shape[:-2]), np.zeros(M.shape[:-2])
        for i in np.ndindex(M.shape[:-2]):
            peak[i], asym[i] = _tiled_peak_and_asymmetry(M[i])
    # each member's threshold 1e-12 max(1, max|M|) is at least 1e-12
    if asym.max(initial=0.0) > 1e-12:
        refused = asym > 1e-12 * np.maximum(1.0, peak)
        if refused.any():
            raise ValueError(f"matrix is not symmetric: max |M - M^t| = {asym[refused].flat[0]:.3e}")
    return M, peak


def _tiled_peak_and_asymmetry(M: np.ndarray) -> tuple[float, float]:
    """max|M| and max|M - M^t| of one matrix, read in pairs of mirrored tiles."""
    b, peak, asym = SYMMETRY_TILE, 0.0, 0.0
    for i in range(0, len(M), b):
        for j in range(i, len(M), b):
            upper, lower = M[i:i + b, j:j + b], M[j:j + b, i:i + b]
            peak = max(peak, _finite_peak(upper), _finite_peak(lower) if j > i else 0.0)
            asym = max(asym, float(np.max(np.abs(upper - lower.T))))
    return peak, asym


def symmetric_eigenvalues(M: np.ndarray) -> np.ndarray:
    """All eigenvalues of a finite symmetric matrix, ascending, or of each
    matrix of a (..., m, m) stack as a (..., m) array; certified low-rank when
    that succeeds (see the module docstring)."""
    return _eigenvalues(*_require_symmetric(M))


def _eigenvalues(M: np.ndarray, peak: np.ndarray) -> np.ndarray:
    """symmetric_eigenvalues of a stack that _require_symmetric has passed,
    with the max|M| of each member.  Below LOW_RANK_MIN_SIZE the whole stack
    is one eigvalsh call."""
    m = M.shape[-1]
    if m == 0:
        return np.zeros(M.shape[:-1])
    if m < LOW_RANK_MIN_SIZE:
        return np.linalg.eigvalsh(M)
    eigs = np.empty(M.shape[:-1])
    for i in np.ndindex(M.shape[:-2]):
        eigs[i] = _large_eigenvalues(M[i], float(peak[i]))
    return eigs


def _large_eigenvalues(M: np.ndarray, peak: float) -> np.ndarray:
    """Eigenvalues of one matrix of size at least LOW_RANK_MIN_SIZE."""
    if not _rank_exceeds_pivot_budget(M, peak):
        eigs = _low_rank_eigenvalues(M, peak)
        if eigs is not None:
            return eigs
    return np.linalg.eigvalsh(M)


def _rank_exceeds_pivot_budget(M: np.ndarray, peak: float) -> bool:
    """True when tr(M)^2 > (1 + LOW_RANK_SKIP_MARGIN) * budget * ||M||_F^2.

    A semidefinite matrix of rank k has tr(M)^2 <= k ||M||_F^2 (Cauchy-Schwarz
    on its eigenvalues), so the pivoted Cholesky factorization of a matrix past
    this test would run out of its budget of m // LOW_RANK_PIVOT_DIVISOR
    pivots.  Skipping the route only ever chooses the exact eigensolve.
    """
    if peak > 2.0**400 or 0.0 < peak < 2.0**-400:
        # the ratio does not depend on the scale; on M / max|M| no square can
        # overflow, and none that matters can underflow
        M = M / peak
    trace = float(np.trace(M))
    squares = float(np.vdot(M, M))
    return trace * trace > (1 + LOW_RANK_SKIP_MARGIN) * (M.shape[0] // LOW_RANK_PIVOT_DIVISOR) * squares


def _low_rank_eigenvalues(M: np.ndarray, peak: float) -> np.ndarray | None:
    """Eigenvalues of M, whose largest |entry| is peak, from a pivoted Cholesky
    factor L, or None unless the residual bound ||L L^t - M||_F is certified small."""
    m = M.shape[0]
    # relative to max|M| alone, so that a matrix of tiny entries keeps its rank
    stop = m * np.finfo(float).eps * peak
    Lt = np.empty((m // LOW_RANK_PIVOT_DIVISOR, m))  # rows are the columns of L
    remaining = np.diagonal(M).copy()
    k = 0
    # Huge entries can overflow; a non-finite residual or Gram matrix falls back.
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            p = int(np.argmax(remaining))
            pivot = remaining[p]
            if pivot <= stop:
                break
            if k == len(Lt):
                return None
            col = M[p] - Lt[:k, p] @ Lt[:k]
            col /= math.sqrt(pivot)
            Lt[k] = col
            remaining -= col * col
            remaining[p] = -math.inf
            k += 1
        Lt = Lt[:k]
        residual = Lt.T @ Lt
        residual -= M
        bound = float(np.linalg.norm(residual))
        if not bound <= LOW_RANK_RESIDUAL_TOL * max(1.0, peak):
            return None
        gram = Lt @ Lt.T
    if not np.all(np.isfinite(gram)):
        return None
    return np.sort(np.concatenate((np.zeros(m - k), np.linalg.eigvalsh(gram))))


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
    if not 0 <= tol < math.inf:
        raise ValueError(f"clustering tolerance must be finite and >= 0, got {tol}")
    eigs = np.asarray(eigs, dtype=float)
    if eigs.ndim != 1:
        raise ValueError("eigenvalues must be a 1-d sequence")
    # a NaN would pass the sortedness test, which compares it to nothing
    if not np.all(np.isfinite(eigs)):
        raise ValueError("eigenvalues must be finite")
    if np.any(np.diff(eigs) < 0):
        raise ValueError("eigenvalues must be sorted ascending")
    clusters: list[tuple[float, int]] = []
    run_sum = 0.0
    run_count = 0
    for x in eigs.tolist():
        if run_count and abs(x - run_sum / run_count) <= tol:
            run_sum += x
            run_count += 1
        else:
            if run_count:
                clusters.append((run_sum / run_count, run_count))
            run_sum, run_count = x, 1
    if run_count:
        clusters.append((run_sum / run_count, run_count))
    return MultiplicitySpectrum(tuple(clusters), int(eigs.size), tol)


def default_cluster_tol(M: np.ndarray) -> float:
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return DEFAULT_CLUSTER_TOL_FACTOR
    # max|M| without an m x m temporary; a NaN makes both extremes NaN, so
    # Python's max, which can drop a NaN, still returns one
    peak = max(float(M.max()), -float(M.min()))
    if not math.isfinite(peak):
        raise ValueError("matrix must be finite")
    return DEFAULT_CLUSTER_TOL_FACTOR * max(1.0, peak)


def clustered_spectrum(M: np.ndarray, tol: float | None = None) -> MultiplicitySpectrum:
    """Eigenvalues of a symmetric matrix clustered at tol, by default
    default_cluster_tol(M), here from the max|M| of the symmetry check."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"matrix must be square, got shape {M.shape}")
    M, peak = _require_symmetric(M)
    if tol is None:
        tol = DEFAULT_CLUSTER_TOL_FACTOR * max(1.0, float(peak))
    return cluster_multiplicities(_eigenvalues(M, peak), tol)


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
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix must be finite")
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
    slack.  Returns (holds, worst signed violation).  The rigidity matrix of g
    minus e is that of g without the column of e, and the two stiffness
    matrices are solved as one stack of two.
    """
    R = rigidity_matrix(g, p)
    R_minus = np.delete(R, g.index_of(*e), axis=1)
    lam, lam_prime = symmetric_eigenvalues(np.stack((R @ R.T, R_minus @ R_minus.T)))
    lam_shift = np.concatenate(([0.0], lam[:-1]))
    worst = float(max(np.max(lam_shift - lam_prime), np.max(lam_prime - lam)))
    return worst <= slack, worst
