"""Placements of graph vertices in R^d and the matrices of a framework.

A framework is a graph together with a placement p of its vertices in R^d.
Its rigidity matrix R has one column per edge, built from the normalized
direction between the placed endpoints; the nonzero entries are written into
a zeroed array through a flat index that the graph builds once per dimension
(Graph.scatter_index).  The stiffness matrix is R R^t and the edge-basis
(lower) stiffness matrix R^t R is assembled from its entry rule.
Coincident endpoints contribute zero columns: coincidence is detected by exact
coordinate equality, never by a tolerance.  Directions do not depend on the
scale of the placement, down to the smallest and up to the largest floats.

The direction and rigidity kernels (_edge_geometry, _rigidity_from_directions)
take one placement, (n, d), or a stack of placements of one shape,
(..., n, d), so that callers with many small frameworks assemble them in one
call.  One placement runs the same code with no leading axes, and no
arithmetic mixes placements, so each member of a stack gets the bits it would
get alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graphs import Graph


@dataclass(frozen=True, eq=False)
class Placement:
    """Points p(0), ..., p(n-1) in R^d as a read-only (n, d) array."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2:
            raise ValueError(f"points must have shape (n, d), got ndim={pts.ndim}")
        if pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError(f"need n >= 1 points in d >= 1 dimensions, got shape {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def is_injective(self) -> bool:
        """True iff no two points coincide exactly."""
        return self.image_size() == self.n

    def image_size(self) -> int:
        """Number of distinct points; -0.0 and 0.0 are the same coordinate."""
        return len(set(map(tuple, self.points.tolist())))

    def is_constant(self) -> bool:
        return bool(np.all(self.points == self.points[0]))


def _check_match(g: Graph, p: Placement) -> None:
    if p.n != g.n:
        raise ValueError(f"placement has {p.n} points but graph has {g.n} vertices")


# Edge lengths in this range are computed from the sum of squared coordinate
# differences, which neither overflows nor underflows there.
_SAFE_LENGTHS = (1e-150, 1e150)


def _edge_geometry(g: Graph, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(..., m, d) array of d_uv and (..., m) array of |p(u) - p(v)| for each
    edge (u, v), u < v, from the (..., n, d) points p: one placement, or a stack
    of placements on the leading axes.  Coincident endpoints give a zero row and
    length 0.  Every row is computed on its own, so a placement gives the same
    bits alone as in any stack."""
    ends = points.take(g.endpoints.T, axis=-2)
    pu, pv = ends[..., 0, :, :], ends[..., 1, :, :]
    with np.errstate(over="ignore"):
        diffs = pu - pv
        lengths = np.sqrt(np.add.reduce(diffs * diffs, axis=-1))  # np.linalg.norm without its wrapper
    lo, hi = _SAFE_LENGTHS
    if lengths.min(initial=lo) >= lo and lengths.max(initial=hi) <= hi:
        return diffs / lengths[..., None], lengths
    # Some edge has coincident endpoints, or a length outside the safe range;
    # the fallback works on the rows of all placements flattened into one list.
    shape, d = diffs.shape, diffs.shape[-1]
    diffs, lengths = diffs.reshape(-1, d), lengths.reshape(-1)
    coincident = np.all(diffs == 0.0, axis=1)
    far = ~coincident & ((lengths < lo) | (lengths > hi))
    safe = ~coincident & ~far
    unit = np.zeros_like(diffs)
    unit[safe] = diffs[safe] / lengths[safe, None]
    if far.any():
        unit[far], lengths[far] = _rescaled_geometry(pu.reshape(-1, d)[far], pv.reshape(-1, d)[far])
    return unit.reshape(shape), lengths.reshape(shape[:-1])


def _rescaled_geometry(pu: np.ndarray, pv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Directions and lengths of p(u) - p(v) for distinct points whose squared
    distance would overflow or underflow: each difference is scaled by a power
    of two to a largest coordinate in [1/2, 1) before it is normalized.  A
    difference that overflows is taken as twice the difference of the halves."""
    with np.errstate(over="ignore"):  # a length above the largest float is inf
        diffs = pu - pv
        overflow = ~np.all(np.isfinite(diffs), axis=1)
        diffs[overflow] = 0.5 * pu[overflow] - 0.5 * pv[overflow]
        _, exps = np.frexp(np.max(np.abs(diffs), axis=1))
        scaled = np.ldexp(diffs, -exps[:, None])
        norms = np.linalg.norm(scaled, axis=1)
        return scaled / norms[:, None], np.ldexp(norms, exps + overflow)


def _rigidity_from_directions(g: Graph, unit: np.ndarray) -> np.ndarray:
    """The rigidity matrices, (..., n d, m), from the (..., m, d) edge
    directions of _edge_geometry: d_uv at the rows of u and -d_uv at the rows
    of v, written into zeroed flat arrays, one per placement, in one assignment
    through g.scatter_index(d)."""
    *lead, m, d = unit.shape
    R = np.zeros((*lead, g.n * d * m))
    # (idx,) alone for one placement: numpy's fast path for a flat fancy index
    R[(slice(None),) * len(lead) + (g.scatter_index(d)[1],)] = (
        np.concatenate((unit, -unit), axis=-2).reshape(*lead, -1)
    )
    return R.reshape(*lead, g.n * d, m)


def rigidity_matrix(g: Graph, p: Placement) -> np.ndarray:
    """dn x |E| matrix whose column for edge {u, v} is (1_u - 1_v) (x) d_uv."""
    _check_match(g, p)
    return _rigidity_from_directions(g, _edge_geometry(g, p.points)[0])


def stiffness(g: Graph, p: Placement) -> np.ndarray:
    """R R^t: dn x dn, symmetric positive semidefinite."""
    R = rigidity_matrix(g, p)
    return R @ R.T


def lower_stiffness_direct(g: Graph, p: Placement) -> np.ndarray:
    """Edge-basis stiffness matrix R^t R from its entry rule, bypassing R.

    Assembled one vertex star at a time: the directions of the edges at a
    vertex, each pointing away from it, give the cosines of the angles there
    (0 if either direction degenerates) as their Gram matrix, written into the
    rows and columns of those edges.  The diagonal is then set to exactly 2 for
    edges with distinct endpoint images and exactly 0 otherwise; disjoint
    edges give 0.
    """
    _check_match(g, p)
    L = np.zeros((g.m, g.m))
    unit = _edge_geometry(g, p.points)[0]
    uv = g.endpoints
    # Two distinct edges of a simple graph share at most one vertex, so the
    # off-diagonal entries written for different stars never overlap.
    for s in range(g.n):
        at_u, at_v = np.flatnonzero(uv[:, 0] == s), np.flatnonzero(uv[:, 1] == s)
        star = np.concatenate((at_u, at_v))
        D = np.concatenate((-unit[at_u], unit[at_v]))
        L[np.ix_(star, star)] = D @ D.T
    np.fill_diagonal(L, np.where(np.all(unit == 0.0, axis=1), 0.0, 2.0))
    return L


def edge_lengths(g: Graph, p: Placement) -> np.ndarray:
    """Length of each placed edge, in canonical edge order."""
    _check_match(g, p)
    return _edge_geometry(g, p.points)[1]


def placement_to_json(p: Placement) -> str:
    return json.dumps({"d": p.d, "points": p.points.tolist()})


def placement_from_json(text: str) -> Placement:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"placement JSON is malformed: {exc}") from None
    if not isinstance(obj, dict) or "d" not in obj or "points" not in obj:
        raise ValueError("placement JSON must be an object with fields 'd' and 'points'")
    if type(obj["d"]) is not int or obj["d"] < 1:
        raise ValueError(f"field 'd' must be a positive integer, got {obj['d']!r}")
    try:
        pts = np.asarray(obj["points"], dtype=float)
    except (TypeError, ValueError):
        raise ValueError("field 'points' must be an n x d array of numbers") from None
    if pts.ndim != 2 or pts.shape[1] != obj["d"]:
        raise ValueError(
            f"field 'points' must be an n x d array with d={obj['d']}, got shape {pts.shape}"
        )
    return Placement(pts)


def read_placement(path: str | Path) -> Placement:
    return placement_from_json(Path(path).read_text())
