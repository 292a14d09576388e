"""Maximization of the stiffness spectral gap over placements.

The search is a multi-restart first-order ascent on a smoothed objective: a
softmin over the eigenvalue cluster sitting at the first non-trivial position,
which tames the non-smoothness caused by the high multiplicity of the gap
eigenvalue near optima.  The gradient is analytic, the derivative of a
spectral function (Lewis, Math. Oper. Res. 1996): the softmax-weighted sum of
the cluster eigenvalues' gradients.  Every trial point gets the eigenvalues of
its stiffness matrix, which decide whether the step is accepted; only an
accepted point gets its eigenvectors, from which the gradient is read off.
Every start and trial point is centered and scaled to root-mean-square point
norm 1, which projects out the gauge freedom (translation, scale).  A rejected
step shrinks the step length and an accepted one grows it back, up to its
initial value, so a restart whose steps shrank at a multiple gap eigenvalue
(Overton, SIAM J. Optim. 1992) can lengthen them again once it is past it.
Restarts mix jittered canonical placements with uniform sphere starts and
draw from per-restart seeded streams, so a seed fixes the result.
Below BLOCK_ASSEMBLY_MIN_VERTICES each restart allocates one zeroed rigidity
buffer of n d m floats and passes it to every evaluation's
_stiffness_geometry, which rewrites only the entries that every placement
of the graph fills, so the stiffness matrices keep their bits; on the block
path nothing reads a rigidity matrix and no buffer is allocated.
OptimizerConfig holds what a caller sets (restarts, max_iters, seed); the
module constants STEP_INIT, STEP_DECAY, SMOOTHING, TOL, PATIENCE and JITTER
fix the rest.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .closedform import canonical_placements
from .framework import BLOCK_ASSEMBLY_MIN_VERTICES, Placement, _stiffness_geometry, placement_to_json
from .graphs import Graph
from .seeding import as_index, as_seed, rng_stream
from .spectral import spectral_gap, trivial_motion_count

STEP_INIT = 0.1     # first and longest step length
STEP_DECAY = 0.7    # step factor after a rejected step; its inverse after an accepted one
SMOOTHING = 1e-6    # softmin width as a fraction of the current gap
TOL = 1e-8          # minimum gap improvement that counts as progress
PATIENCE = 50       # iterations without progress before a restart stops
JITTER = 1e-3       # applied to canonical starts to restore injectivity
# Range of the largest |coordinate| in which _normalized_points takes the mean
# square of the centered points as it is: that sum is at least the square of
# the largest centered coordinate, which is at least about 2^-54 of the largest
# coordinate, and at most 4 n d times its square, so it neither underflows nor
# overflows.  Outside it the points are first scaled by a power of two.
_SAFE_PEAK = (2.0 ** -450, 2.0 ** 480)


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 8
    max_iters: int = 400
    seed: int = 0

    def __post_init__(self):
        for name in ("restarts", "max_iters"):
            object.__setattr__(self, name, as_index(getattr(self, name), name))
        object.__setattr__(self, "seed", as_seed(self.seed))
        if self.restarts < 1 or self.max_iters < 1:
            raise ValueError("restarts and max_iters must be positive")

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True, eq=False)
class OptimizeResult:
    best_gap: float
    best_placement: Placement
    best_restart: int
    traces: tuple[tuple[tuple[int, float], ...], ...]
    config: OptimizerConfig

    def to_json_dict(self) -> dict:
        return {
            "best_gap": self.best_gap,
            "best_restart": self.best_restart,
            "best_placement": json.loads(placement_to_json(self.best_placement)),
            "traces": [[[i, g] for i, g in tr] for tr in self.traces],
            "config": self.config.to_json_dict(),
        }


def _normalized_points(points: np.ndarray) -> np.ndarray:
    """The (n, d) points centered at the origin and scaled to root-mean-square
    point norm 1, which projects out the gauge freedom, at any scale of
    finite floats; the points must be finite and not all equal."""
    n = len(points)
    # the reductions as ufunc reductions, without the wrappers of their methods
    top = np.maximum.reduce(np.abs(points), axis=None)
    if not top < math.inf:  # also NaN
        raise ValueError("points must be finite")
    if np.logical_and.reduce(points == points[0], axis=None):
        raise ValueError("cannot normalize a constant placement")
    if not _SAFE_PEAK[0] <= top <= _SAFE_PEAK[1]:
        # a power of two to a largest |coordinate| in [1/2, 1), which changes
        # no ratio that the result can hold
        points = np.ldexp(points, -np.frexp(top)[1])
    pts = points - np.add.reduce(points, axis=0) / n  # points.mean(axis=0)
    return pts / math.sqrt(np.add.reduce(np.add.reduce(pts * pts, axis=1)) / n)


def _smoothed_objective(eigs: np.ndarray, t: int, width: float) -> tuple[float, np.ndarray]:
    """Softmin of positive width over the cluster of the ascending eigenvalues
    eigs that starts at index t, and its softmax weights over
    eigs[t:t + len(weights)]; equals eigs[t] as the width shrinks or when the
    cluster is a singleton."""
    tail = eigs[t:]
    lam_t = float(tail[0])
    size = tail.searchsorted(lam_t + width, "right")
    if size == 1:
        # exp(0) = 1 and log(1) = 0 exactly, so these are the bits that the
        # arithmetic below gives a singleton
        return lam_t, np.ones(1)
    cluster = tail[:size]
    z = np.exp((lam_t - cluster) / width)
    total = float(np.add.reduce(z))  # z.sum() without its wrapper
    return lam_t - width * math.log(total), z / total


@dataclass(eq=False, slots=True)
class _Evaluation:
    """The (n, d) points of a trial placement with their edge geometry,
    stiffness matrix, eigenvalues and objective; eigenvectors are computed from
    the stored matrix only for the gradient at an accepted point."""

    points: np.ndarray
    unit: np.ndarray       # (m, d) edge directions
    lengths: np.ndarray    # (m,) edge lengths
    stiffness: np.ndarray  # the stiffness matrix
    eigs: np.ndarray
    gap: float
    value: float          # the softmin objective
    weights: np.ndarray   # its softmax weights over eigs[t:t + len(weights)]


def _evaluate(
    g: Graph, points: np.ndarray, t: int, smoothing: float, rigidity: np.ndarray | None = None
) -> _Evaluation:
    """The evaluation of the (n, d) points; rigidity is the buffer that
    _stiffness_geometry takes, or None for a new rigidity matrix."""
    L, unit, lengths = _stiffness_geometry(g, points, rigidity)
    eigs = np.linalg.eigvalsh(L)
    gap = float(eigs[t])
    value, weights = _smoothed_objective(eigs, t, smoothing * max(gap, 1e-9))
    return _Evaluation(points, unit, lengths, L, eigs, gap, value, weights)


def _objective_gradient(g: Graph, ev: _Evaluation, t: int) -> np.ndarray:
    """Gradient of ev.value with respect to the points, as an (n, d) array.

    The eigenvectors come from one eigensolve of ev.stiffness.  A cluster
    eigenvalue with unit eigenvector v has gradient
    2 s_e (w_e - s_e d_e) / l_e at u and its negative at v, summed over the
    edges e = (u, v), where w_e = v_u - v_v and s_e = d_e . w_e.  Edges with
    coincident endpoints contribute zero.  The objective weights these by its
    softmax weights, plus a term for the softmin width, which is proportional
    to the gap eigs[t].  The per-edge terms are summed into the points by one
    bincount over the coordinates of the first endpoints, then of the second
    (g.scatter_index(d)), which adds them in the same order as two
    np.add.at calls would.
    """
    k = len(ev.weights)
    coef = ev.weights.copy()
    if ev.gap > 1e-9:
        coef[0] += (ev.value - float(ev.weights @ ev.eigs[t:t + k])) / ev.gap
    n, d = ev.points.shape
    coords = g.scatter_index(d)[0]
    # the cluster eigenvectors' coordinates at the first endpoints, then at
    # the second, gathered through the same index, as (2, m, d, k)
    ends = np.linalg.eigh(ev.stiffness)[1][:, t:t + k].take(coords, axis=0).reshape(2, g.m, d, k)
    w = (ends[0] - ends[1]).transpose(2, 0, 1)  # (k, m, d), k innermost in memory
    s = np.einsum("kmd,md->km", w, ev.unit)
    inv_len = np.divide(1.0, ev.lengths, out=np.zeros(g.m), where=ev.lengths > 0)
    per_edge = np.einsum("km,kmd->md", (2.0 * coef)[:, None] * s, w - s[..., None] * ev.unit)
    per_edge *= inv_len[:, None]
    grad = np.bincount(coords, np.concatenate((per_edge, -per_edge)).ravel(), n * d)
    return grad.reshape(n, d)


def seeded_restarts(g: Graph, d: int, config: OptimizerConfig) -> list[Placement]:
    """Initial placements: jittered canonical configurations first (the
    distinct placements of the CANONICAL rows admitting (n, d), in table
    order), then uniform sphere starts.  In d = 1 the 0-sphere has only the
    two points +-1, so there a start keeps its Gaussian draw unprojected; n > d
    Gaussian rows never all coincide, so each start is drawn once."""
    n, d = g.n, as_index(d, "d")
    if n <= d:
        raise ValueError(f"need n > d, got n={n}, d={d}")
    canonical = [p for _, p in canonical_placements(n, d)]

    starts: list[Placement] = []
    for i in range(config.restarts):
        rng = rng_stream(config.seed, f"restart-{i}")
        if i < len(canonical):
            pts = canonical[i].points + JITTER * rng.standard_normal((n, d))
        else:
            pts = rng.standard_normal((n, d))
            if d > 1:
                pts /= np.linalg.norm(pts, axis=1)[:, None]
        starts.append(Placement(pts))
    return starts


@dataclass
class _RestartOutcome:
    index: int
    gap: float
    placement: Placement
    trace: list = field(default_factory=list)


def _ascend(g: Graph, d: int, config: OptimizerConfig, index: int, start: Placement) -> _RestartOutcome:
    t = trivial_motion_count(d)
    # One zeroed rigidity buffer for all of the restart's evaluations, on the
    # R R^t path only (_stiffness_geometry)
    rigidity = np.zeros(g.n * d * g.m) if g.n < BLOCK_ASSEMBLY_MIN_VERTICES else None
    cur = _evaluate(g, _normalized_points(start.points), t, SMOOTHING, rigidity)
    grad = _objective_gradient(g, cur, t)
    best_gap, best_points = cur.gap, cur.points
    trace = [(0, best_gap)]
    step = STEP_INIT
    snapshot, stalled = best_gap, 0

    for it in range(1, config.max_iters + 1):
        flat = grad.ravel()
        gnorm = math.sqrt(flat.dot(flat))  # np.linalg.norm(grad) without its wrapper
        if gnorm > 1e-14:
            moved = cur.points + (step / gnorm) * grad
            trial = _evaluate(g, _normalized_points(moved), t, SMOOTHING, rigidity)
            if trial.value > cur.value:
                cur = trial
                grad = _objective_gradient(g, cur, t)
                step = min(step / STEP_DECAY, STEP_INIT)
            else:
                step *= STEP_DECAY
        else:
            step *= STEP_DECAY
        if cur.gap > best_gap:
            best_gap, best_points = cur.gap, cur.points
            trace.append((it, best_gap))
        if best_gap >= snapshot + TOL:
            snapshot, stalled = best_gap, 0
        else:
            stalled += 1
        if stalled >= PATIENCE or step < 1e-13:
            break

    return _RestartOutcome(index, best_gap, Placement(best_points), trace)


def gap_ascent(g: Graph, d: int, config: OptimizerConfig | None = None) -> OptimizeResult:
    """Maximize the spectral gap of (g, p) over placements p in R^d.

    Returns the best gap seen over all restarts together with the placement
    attaining it; the reported value is a lower bound witness, never a claim
    that the supremum is attained.
    """
    config = config or OptimizerConfig()
    outcomes = [_ascend(g, d, config, i, s) for i, s in enumerate(seeded_restarts(g, d, config))]
    best = max(outcomes, key=lambda r: (r.gap, -r.index))
    recomputed = spectral_gap(g, best.placement)
    return OptimizeResult(
        best_gap=recomputed,
        best_placement=best.placement,
        best_restart=best.index,
        traces=tuple(tuple(o.trace) for o in outcomes),
        config=config,
    )
