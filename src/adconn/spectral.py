"""Symmetric eigenvalue computation, multiplicity clustering, and interlacing checks.

One rule picks the solver.  A matrix the package assembled goes straight to
numpy.linalg.eigvalsh: its assemblies are finite and symmetric bit for bit
(tests/test_framework.py holds them to it), so ``spectral_gap`` and the pair
stacks of ``interlacing_checks`` solve them unchecked, as ``bounds``, verify's
circle sweep and ``optimize`` do.  numpy solves each member of a stack as it
would solve that matrix alone, so stacking changes no bit.
``interlacing_checks`` solves the stiffness matrix pairs of a batch of edge
removals as one stack per graph and shape, built and solved in chunks of at
most STACK_BUDGET_BYTES (``stack_chunks``, with
``framework.stack_member_bytes``); each chunk's pairs are one
``framework.masked_stiffness`` assembly, two masks per case.

Only the public checked solves, ``symmetric_eigenvalues`` and
``clustered_spectrum``, take a matrix from outside.  Each takes one (m, m)
matrix and refuses any other shape, a stack among them, before the symmetry
walk.  It then checks the matrix (``_require_symmetric``) in pairs of
mirrored SYMMETRY_TILE x SYMMETRY_TILE tiles (one tile when m is at most
SYMMETRY_TILE): it refuses a non-finite entry anywhere before an asymmetry
anywhere and finds max|M|, which the low-rank route reuses and
``clustered_spectrum`` takes its default tolerance from
(``default_cluster_tol``).  From LOW_RANK_MIN_SIZE on, the checked matrix
first tries a certified low-rank route, built for edge-basis stiffness
matrices R^t R, whose rank is at most dn - C(d+1, 2) and often far below
their size.  A greedy diagonal-pivoted Cholesky factorization (Higham,
"Analysis of the Cholesky decomposition of a semi-definite matrix", 1990)
stops at the numerical rank k, when no remaining pivot exceeds
m * eps * max|M|, and gives M ~ L L^t with L of shape (m, k); a matrix that
would need more than its budget of m // LOW_RANK_PIVOT_DIVISOR pivots is
handed to eigvalsh at that point.  The residual E = L L^t - M is then formed
one SYMMETRY_TILE-row panel of its lower block triangle at a time, each block
left of the diagonal counted twice for its mirror image, which halves the
flops of the full product; it reads the lower triangle of M, the one that
eigvalsh solves, which the symmetry check has found to mirror the upper one.
By Weyl's inequality no eigenvalue of L L^t is farther than ||E||_F from the
matching eigenvalue of M.  Only when that bound is at most
LOW_RANK_RESIDUAL_TOL * max(1, max|M|) does the route answer, with the
eigenvalues of the k x k matrix L^t L and m - k zeros; every other matrix
(full rank, indefinite, or out of pivots) gets the full eigensolve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .framework import Placement, masked_stiffness, stack_member_bytes, stiffness
from .graphs import Graph
from .seeding import as_count

DEFAULT_CLUSTER_TOL_FACTOR = 1e-8
DEFAULT_RANK_TOL = 1e-9
INTERLACING_SLACK = 1e-9
# Size from which the checked solves try the low-rank route; below it an
# attempt costs about as much as the full solve (twice it at 36 x 36).  What
# the package assembled never tries it, at any size: a rigid stiffness matrix,
# of rank dn - C(d+1, 2), always runs out of pivots.
LOW_RANK_MIN_SIZE = 256
# The factorization gives up after m // LOW_RANK_PIVOT_DIVISOR pivots, so a
# matrix of nearly full rank wastes little on an aborted attempt: on the K96/d3
# stiffness matrix (rank 282 of 288, budget 72) it costs a quarter or less of
# the eigvalsh call that follows.
LOW_RANK_PIVOT_DIVISOR = 4
# Largest certified eigenvalue error of the route, relative to max(1, max|M|).
LOW_RANK_RESIDUAL_TOL = 1e-10
# Largest stack, in bytes, that interlacing_checks,
# bounds.top_eigenvalue_sums and verify's circle sweep build and solve
# at once, in chunks per shape (stack_chunks), with what each member holds
# while its stack is built (framework.stack_member_bytes); a larger member is
# a chunk of its own, and verify's default sweeps are one chunk per shape,
# under 1 MiB.  A chunk peaks under twice it.
STACK_BUDGET_BYTES = 1 << 26
# Edge of the mirrored tiles of the symmetry check.  M - M^t reads the
# transpose with stride m; a pair of 128 x 128 tiles stays in cache.  A
# matrix of size at most this is a single tile.
SYMMETRY_TILE = 128


def _require_symmetric(M: np.ndarray) -> tuple[np.ndarray, float]:
    """M as a float (m, m) array and its max|M|, after refusing any other
    shape, a stack among them, and then a non-finite or non-symmetric matrix
    in one walk over its mirrored tile pairs (see the module docstring)."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"matrix must be square, got shape {M.shape}")
    m, b = len(M), SYMMETRY_TILE
    peak = asym = 0.0
    for r in range(0, m, b):
        for c in range(r, m, b):
            upper, lower = M[r:r + b, c:c + b], M[c:c + b, r:r + b]
            for tile in (upper, lower) if c > r else (upper,):
                # max propagates NaN and |inf| is inf; checked before inf - inf can form
                top = float(np.abs(tile).max(initial=0.0))
                if not math.isfinite(top):
                    raise ValueError("matrix must be finite")
                peak = max(peak, top)
            diff = upper - lower.T
            asym = max(asym, float(np.abs(diff, out=diff).max(initial=0.0)))
            del diff  # freed before the next temporary
    # every finite entry was read before any asymmetry is refused
    if asym > 1e-12 * max(1.0, peak):
        raise ValueError(f"matrix is not symmetric: max |M - M^t| = {asym:.3e}")
    return M, peak


def symmetric_eigenvalues(M: np.ndarray) -> np.ndarray:
    """All eigenvalues of a finite symmetric matrix from outside the package,
    ascending; certified low-rank when that succeeds (see the module docstring)."""
    return _checked_solve(*_require_symmetric(M))


def _checked_solve(M: np.ndarray, peak: float) -> np.ndarray:
    """symmetric_eigenvalues of M, which _require_symmetric passed with max|M| = peak."""
    low_rank = _low_rank_eigenvalues(M, peak) if len(M) >= LOW_RANK_MIN_SIZE else None
    return np.linalg.eigvalsh(M) if low_rank is None else low_rank


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
        # a Python int of at least 1 is already what as_count would return
        clusters = tuple(
            (v, m if type(m) is int and m >= 1 else as_count(m, "multiplicity", 1)) for v, m in self.clusters
        )
        object.__setattr__(self, "clusters", clusters)
        object.__setattr__(self, "total", as_count(self.total, "total", 0))
        _require_cluster_tol(self.cluster_tol)
        if self.total != sum(m for _, m in clusters):
            raise ValueError("total must equal the sum of multiplicities")
        vals = [v for v, _ in clusters]
        if not all(map(math.isfinite, vals)):
            raise ValueError("cluster values must be finite")
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


def _require_cluster_tol(tol) -> None:
    """ValueError unless tol is a finite clustering tolerance >= 0 (a NaN fails every comparison)."""
    if not 0 <= tol < math.inf:
        raise ValueError(f"clustering tolerance must be finite and >= 0, got {tol}")


def cluster_multiplicities(eigs, tol: float) -> MultiplicitySpectrum:
    """Greedy left-to-right clustering of a sorted eigenvalue list.

    A value joins the current cluster iff it lies within tol of the cluster's
    running mean; the reported cluster value is the mean of its members.
    """
    _require_cluster_tol(tol)
    eigs = np.asarray(eigs, dtype=float)
    if eigs.ndim != 1:
        raise ValueError("eigenvalues must be a 1-d sequence")
    # a NaN would pass the sortedness test, which compares it to nothing
    if not np.logical_and.reduce(np.isfinite(eigs)):
        raise ValueError("eigenvalues must be finite")
    if np.logical_or.reduce(eigs[1:] < eigs[:-1]):
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


def default_cluster_tol(peak) -> float:
    """clustered_spectrum's default tolerance at max|M| = peak: DEFAULT_CLUSTER_TOL_FACTOR * max(1, peak)."""
    return DEFAULT_CLUSTER_TOL_FACTOR * max(1.0, float(peak))


def clustered_spectrum(M: np.ndarray, tol: float | None = None) -> MultiplicitySpectrum:
    """Eigenvalues of a symmetric matrix clustered at tol, by default
    default_cluster_tol of its max|M|."""
    M, peak = _require_symmetric(M)
    if tol is None:
        tol = default_cluster_tol(peak)
    return cluster_multiplicities(_checked_solve(M, peak), tol)


def stack_chunks(members: list, member_bytes: int) -> list[list]:
    """members in order as consecutive chunks of as many members, at
    member_bytes each, as fit STACK_BUDGET_BYTES; one member at least."""
    size = max(1, STACK_BUDGET_BYTES // member_bytes)
    return [members[i:i + size] for i in range(0, len(members), size)]


def trivial_motion_count(d: int) -> int:
    """Dimension of the space of infinitesimal translations and rotations in R^d."""
    return math.comb(as_count(d, "d", 1) + 1, 2)


def spectral_gap(g: Graph, p: Placement) -> float:
    """The smallest eigenvalue of the stiffness matrix beyond the trivial-motion count."""
    if g.n <= p.d:
        raise ValueError(f"need n > d, got n={g.n}, d={p.d}")
    return float(np.linalg.eigvalsh(stiffness(g, p))[trivial_motion_count(p.d)])


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
    matrices of h and of h minus e are those of the two masks, with the bits
    of the two subgraphs' own.  With ascending stiffness eigenvalues lam (of
    h) and lam' (of h minus e) and lam_0 := 0, checks lam_{i-1} <= lam'_i <=
    lam_i for all i up to INTERLACING_SLACK, and returns (holds, worst signed
    violation).  Every mask is checked, every edge looked up, one missing
    from its h refused, and every placement's point count matched with its
    graph, the first failing case refused, before the first eigensolve.  The
    cases are then grouped by graph (the object) and shape (n, d), and each
    group cut into stack_chunks chunks, at framework.stack_member_bytes of a
    pair each; a chunk of k cases is one framework.masked_stiffness call on
    its (k, n, d) points with two masks per case, whose (k, 2, dn, dn) pairs
    are solved as one stack.
    """
    cases = list(cases)
    groups: dict[tuple[int, tuple[int, int]], list[tuple[int, int]]] = {}
    for i, (g, e, p, keep) in enumerate(cases):
        if np.asarray(keep).dtype != bool or np.shape(keep) != (g.m,):
            raise ValueError(f"keep must be a boolean mask over the {g.m} edges of g")
        j = g.index_of(*e)
        if not keep[j]:
            raise ValueError(f"edge {{{e[0]}, {e[1]}}} not in graph")
        if p.n != g.n:
            raise ValueError(f"placement has {p.n} points but graph has {g.n} vertices")
        groups.setdefault((id(g), p.points.shape), []).append((i, j))
    results: list = [None] * len(cases)
    for (_, (_, d)), members in groups.items():
        g = cases[members[0][0]][0]
        for chunk in stack_chunks(members, stack_member_bytes(g, d, matrices=2)):
            for (i, _), w in zip(chunk, _worst_violations(g, cases, chunk)):
                results[i] = (w <= INTERLACING_SLACK, w)
    return results


def _worst_violations(g: Graph, cases, chunk) -> list[float]:
    """The worst signed interlacing violation of each (case, edge position)
    of a chunk of cases on g, from the chunk's stiffness matrix pairs, one
    (k, 2, dn, dn) masked_stiffness stack that is freed on return."""
    points = np.array([cases[i][2].points for i, _ in chunk])
    keeps = np.array([cases[i][3] for i, _ in chunk], dtype=bool)
    masks = np.stack((keeps, keeps), axis=1)
    masks[np.arange(len(chunk)), 1, [j for _, j in chunk]] = False
    lam, lam_prime = np.linalg.eigvalsh(masked_stiffness(g, points, masks)).swapaxes(0, 1)
    lam_shift = np.concatenate((np.zeros((len(chunk), 1)), lam[:, :-1]), axis=1)
    return np.maximum((lam_shift - lam_prime).max(axis=1), (lam_prime - lam).max(axis=1)).tolist()
