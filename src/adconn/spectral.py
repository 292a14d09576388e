"""Symmetric eigenvalue computation, multiplicity clustering, and interlacing checks.

``symmetric_eigenvalues`` takes one matrix or a stack of matrices of one
size, shape (..., m, m), and answers with the ascending eigenvalues of each.
It reads its input once, in pairs of mirrored SYMMETRY_TILE x SYMMETRY_TILE
tiles of the whole stack (one tile when m is at most SYMMETRY_TILE): the pass
refuses a non-finite or non-symmetric member and finds max|M| of each, which
the later steps reuse, and which ``clustered_spectrum`` (one matrix) and
``clustered_spectra`` (a stack) take each member's default tolerance from.
``interlacing_checks`` solves the stiffness matrix pairs of a batch of
edge removals as one stack per shape, built and solved in chunks of at most
STACK_BUDGET_BYTES (``stack_chunks``).  Below LOW_RANK_MIN_SIZE the whole
stack is one eigvalsh call, since per-call overhead, not reading the
matrices, dominates at those sizes; numpy solves each member of a stack as
it would solve that matrix alone, so stacking changes no bit.  A larger
matrix first tries a certified low-rank route, built for edge-basis
stiffness matrices R^t R, whose rank is at most dn - C(d+1, 2) and often far
below their size.  A greedy
diagonal-pivoted Cholesky factorization (Higham, "Analysis of the Cholesky
decomposition of a semi-definite matrix", 1990) stops at the numerical rank
k, when no remaining pivot exceeds m * eps * max|M|, and gives M ~ L L^t
with L of shape (m, k); a matrix that would need more than its budget of
m // LOW_RANK_PIVOT_DIVISOR pivots is handed to eigvalsh at that point.
The residual E = L L^t - M is then formed one
SYMMETRY_TILE-row panel of its lower block triangle at a time, each block
left of the diagonal counted twice for its mirror image, which halves the
flops of the full product; it reads the lower triangle of M, the one that
eigvalsh solves, which the symmetry check has held to the upper one.  By
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

from .framework import Placement, stiffness
from .graphs import Graph

DEFAULT_CLUSTER_TOL_FACTOR = 1e-8
DEFAULT_RANK_TOL = 1e-9
INTERLACING_SLACK = 1e-9
# Below this size a low-rank attempt costs about as much as the full solve
# (twice it at 36 x 36), so the optimizer's and verify's many small matrices
# never try the route.
LOW_RANK_MIN_SIZE = 256
# The factorization gives up after m // LOW_RANK_PIVOT_DIVISOR pivots, so a
# matrix of nearly full rank wastes little on an aborted attempt: on the K96/d3
# stiffness matrix (rank 282 of 288, budget 72) it costs a quarter or less of
# the eigvalsh call that follows.
LOW_RANK_PIVOT_DIVISOR = 4
# Largest certified eigenvalue error of the route, relative to max(1, max|M|).
LOW_RANK_RESIDUAL_TOL = 1e-10
# Largest stack, in bytes of its matrices, that a batched check builds and
# solves at once: interlacing_checks, bounds.top_eigenvalue_sum_checks and
# verify's circle sweep build and solve each shape's members in consecutive
# chunks (stack_chunks), so that their memory does not grow with the sample
# count.  A member above it is a chunk of its own.  verify's default sweeps
# stay one chunk per shape, each under 1 MiB.
STACK_BUDGET_BYTES = 1 << 26
# Edge of the mirrored tiles of the symmetry check.  M - M^t reads the
# transpose with stride m; a pair of 128 x 128 tiles stays in cache.  A
# matrix of size at most this is a single tile.
SYMMETRY_TILE = 128


def _require_symmetric(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """M as a float array of shape (..., m, m) and the max|M| of each matrix in
    it, after refusing a non-square stack, or a non-finite or non-symmetric
    member, in one pass over mirrored tile pairs (see the module docstring)."""
    M = np.asarray(M, dtype=float)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise ValueError(f"matrix must be square, got shape {M.shape}")
    m, b, axes = M.shape[-1], SYMMETRY_TILE, (-2, -1)
    peak, asym = np.zeros(M.shape[:-2]), np.zeros(M.shape[:-2])
    for i in range(0, m, b):
        for j in range(i, m, b):
            upper, lower = M[..., i:i + b, j:j + b], M[..., j:j + b, i:i + b]
            for tile in (upper, lower) if j > i else (upper,):
                np.maximum(peak, np.abs(tile).max(axis=axes, initial=0.0), out=peak)
            # max propagates NaN and |inf| is inf; checked before inf - inf can form
            if not math.isfinite(peak.max(initial=0.0)):
                raise ValueError("matrix must be finite")
            np.maximum(asym, np.abs(upper - lower.swapaxes(-2, -1)).max(axis=axes, initial=0.0), out=asym)
    # each member's threshold 1e-12 max(1, max|M|) is at least 1e-12
    if asym.max(initial=0.0) > 1e-12:
        refused = asym > 1e-12 * np.maximum(1.0, peak)
        if refused.any():
            raise ValueError(f"matrix is not symmetric: max |M - M^t| = {asym[refused].flat[0]:.3e}")
    return M, peak


def symmetric_eigenvalues(M: np.ndarray) -> np.ndarray:
    """All eigenvalues of a finite symmetric matrix, ascending, or of each
    matrix of a (..., m, m) stack as a (..., m) array; certified low-rank when
    that succeeds (see the module docstring)."""
    return _eigenvalues(*_require_symmetric(M))


def _eigenvalues(M: np.ndarray, peak: np.ndarray) -> np.ndarray:
    """symmetric_eigenvalues of a stack that _require_symmetric has passed,
    with the max|M| of each member."""
    if M.shape[-1] < LOW_RANK_MIN_SIZE:
        return np.linalg.eigvalsh(M)
    eigs = np.empty(M.shape[:-1])
    for i in np.ndindex(M.shape[:-2]):
        low_rank = _low_rank_eigenvalues(M[i], float(peak[i]))
        eigs[i] = np.linalg.eigvalsh(M[i]) if low_rank is None else low_rank
    return eigs


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
        if not _residual_norm(Lt, M) <= LOW_RANK_RESIDUAL_TOL * max(1.0, peak):
            return None
        gram = Lt @ Lt.T
    if not np.all(np.isfinite(gram)):
        return None
    return np.sort(np.concatenate((np.zeros(m - k), np.linalg.eigvalsh(gram))))


def _residual_norm(Lt: np.ndarray, M: np.ndarray) -> float:
    """||L L^t - M||_F for L = Lt^t, from the SYMMETRY_TILE-row panels of the
    lower block triangle: a block left of the diagonal counts twice, for its
    mirror image, and a diagonal block once.  The largest temporary is one
    panel, SYMMETRY_TILE x m."""
    L, b, squares = Lt.T, SYMMETRY_TILE, 0.0
    for i in range(0, M.shape[0], b):
        E = L[i:i + b] @ Lt[:, :i + b]
        E -= M[i:i + b, :i + b]
        E *= E
        squares += 2.0 * float(E[:, :i].sum()) + float(E[:, i:].sum())
    return math.sqrt(squares)


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


def _default_cluster_tol(peak) -> float:
    """DEFAULT_CLUSTER_TOL_FACTOR * max(1, max|M|), from the max|M| of the symmetry check."""
    return DEFAULT_CLUSTER_TOL_FACTOR * max(1.0, float(peak))


def clustered_spectrum(M: np.ndarray, tol: float | None = None) -> MultiplicitySpectrum:
    """Eigenvalues of a symmetric matrix clustered at tol, by default
    _default_cluster_tol of its max|M|."""
    M, peak = _require_symmetric(M)
    if M.ndim != 2:
        raise ValueError(f"matrix must be square, got shape {M.shape}")
    if tol is None:
        tol = _default_cluster_tol(peak)
    return cluster_multiplicities(_eigenvalues(M, peak), tol)


def clustered_spectra(M: np.ndarray) -> list[MultiplicitySpectrum]:
    """clustered_spectrum of each matrix of a (k, m, m) stack at its own
    default tolerance, in order, from one symmetry pass and one stacked eigensolve."""
    M, peak = _require_symmetric(M)
    if M.ndim != 3:
        raise ValueError(f"need a (k, m, m) stack of matrices, got shape {M.shape}")
    return [cluster_multiplicities(eigs, _default_cluster_tol(top)) for eigs, top in zip(_eigenvalues(M, peak), peak)]


def stack_chunks(members: list, member_bytes: int) -> list[list]:
    """members in order as consecutive chunks whose matrices, member_bytes
    for each member, take at most STACK_BUDGET_BYTES; one member at least."""
    size = max(1, STACK_BUDGET_BYTES // member_bytes)
    return [members[i:i + size] for i in range(0, len(members), size)]


def trivial_motion_count(d: int) -> int:
    """Dimension of the space of infinitesimal translations and rotations in R^d."""
    return math.comb(d + 1, 2)


def spectral_gap(g: Graph, p: Placement) -> float:
    """The smallest eigenvalue of the stiffness matrix beyond the trivial-motion count."""
    if g.n <= p.d:
        raise ValueError(f"need n > d, got n={g.n}, d={p.d}")
    eigs = symmetric_eigenvalues(stiffness(g, p))
    return float(eigs[trivial_motion_count(p.d)])


def numeric_rank(M: np.ndarray) -> int:
    """Number of singular values above DEFAULT_RANK_TOL times the largest one; 0 for the zero matrix."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.size == 0:
        return 0
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix must be finite")
    sv = np.linalg.svd(M, compute_uv=False)
    if sv[0] == 0.0:
        return 0
    return int(np.count_nonzero(sv > DEFAULT_RANK_TOL * sv[0]))


def interlacing_checks(cases) -> list[tuple[bool, float]]:
    """Eigenvalue sandwich between a framework and the same framework minus
    one edge, for each case (g, e, p, keep), in order.

    keep is a boolean mask over the edges of g that leaves the spanning
    subgraph h of g whose framework (h, p) is checked; the stiffness
    matrices of h and of h minus e come from one stiffness call with the two
    masks, with the bits of the two subgraphs' own.  With ascending stiffness
    eigenvalues lam (of h) and lam' (of h minus e) and lam_0 := 0, checks
    lam_{i-1} <= lam'_i <= lam_i for all i up to INTERLACING_SLACK, and
    returns (holds, worst signed violation).  Every mask is checked and
    every edge looked up, one missing from its h refused, before the first
    eigensolve; then the stiffness matrix pairs of each shape (n, d) are
    built and solved as one stack per stack_chunks chunk.
    """
    cases = list(cases)
    groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for i, (g, e, p, keep) in enumerate(cases):
        if np.asarray(keep).dtype != bool or np.shape(keep) != (g.m,):
            raise ValueError(f"keep must be a boolean mask over the {g.m} edges of g")
        j = g.index_of(*e)
        if not keep[j]:
            raise ValueError(f"edge {{{e[0]}, {e[1]}}} not in graph")
        groups.setdefault(p.points.shape, []).append((i, j))
    results: list = [None] * len(cases)
    for (n, d), members in groups.items():
        for chunk in stack_chunks(members, 2 * (n * d) ** 2 * 8):  # two float matrices of side dn
            pairs = []
            for i, j in chunk:
                g, _, p, keep = cases[i]
                minus = np.array(keep)
                minus[j] = False
                pairs.append(stiffness(g, p, np.stack((keep, minus))))
            lam, lam_prime = symmetric_eigenvalues(np.stack(pairs)).swapaxes(0, 1)
            lam_shift = np.concatenate((np.zeros((len(chunk), 1)), lam[:, :-1]), axis=1)
            worst = np.maximum((lam_shift - lam_prime).max(axis=1), (lam_prime - lam).max(axis=1))
            for (i, _), w in zip(chunk, worst.tolist()):
                results[i] = (w <= INTERLACING_SLACK, w)
    return results
