"""Placements of graph vertices in R^d and the matrices of a framework.

A framework is a graph together with a placement p of its vertices in R^d.
Its rigidity matrix R has one column per edge, built from the normalized
direction between the placed endpoints; the nonzero entries are written into
a zeroed array through a flat index that the graph builds once per dimension
(Graph.scatter_index).  The stiffness matrix is R R^t.  Its off-diagonal
block (u, v) is -d_uv d_uv^t for an edge (u, v) and zero otherwise, and the
diagonal block of a vertex is the sum of d_uv d_uv^t over its edges, so from
n = BLOCK_ASSEMBLY_MIN_VERTICES vertices on it is assembled from those
blocks in O(m d^2) (Graph.block_index) rather than as the O((dn)^2 m)
product.  Below that the product is no slower and is kept, bit for bit: the
optimizer's K12 witnesses in R^3 depend chaotically on the order of the
arithmetic.  The two paths give the same bits off the diagonal blocks and
agree to rounding on them.  The edge-basis (lower) stiffness matrix R^t R
is assembled from its entry rule.
Coincident endpoints contribute zero columns and zero blocks: coincidence is
detected by exact coordinate equality, never by a tolerance.  Directions do
not depend on the scale of the placement, down to the smallest and up to the
largest floats.  Placement.require_centered_unit is the one check of the
unit-norm, zero-sum and image-size hypotheses that the centered-unit n/2
facts rest on.

The direction, rigidity and block kernels (_edge_geometry,
_rigidity_from_directions, _block_stiffness) take one placement, (n, d), or
a stack of placements of one shape, (..., n, d), so that callers with many
small frameworks assemble them in one call, and _stiffness_geometry chains
them into the stiffness matrices for other modules, on the path that
stiffness takes for that size.  A caller that assembles many placements of
one graph below BLOCK_ASSEMBLY_MIN_VERTICES, as the optimizer does, can pass
_stiffness_geometry one zeroed rigidity buffer for all of them: the nonzero
positions of R are the same for every placement of the graph, so rewriting
them leaves nothing of an earlier placement, and R R^t keeps its bits.  The
block kernel fills its stack one member at a time, so its temporaries are
one member's.  No arithmetic mixes placements, so each member of a stack
gets the bits it would get alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graphs import Graph

HYPOTHESIS_TOL = 1e-9  # on the unit norms and the zero sum of require_centered_unit
# Vertex count from which stiffness matrices are assembled from their d x d
# blocks rather than as R R^t.  The product costs about (dn)^2 m and the
# blocks about m d^2, so their ratio goes with n^2 whatever d and the density:
# timed on one core (complete, Turan and 4-, 6- and 8-regular graphs,
# d = 2..10), the crossover sat at n = 14..16, where a crossover on dn moved
# from 30 in d = 2 to past 110 in d = 10.
BLOCK_ASSEMBLY_MIN_VERTICES = 16


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
        if not np.isfinite(pts).all():
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

    def require_centered_unit(self, min_image: int) -> None:
        """ValueError unless the points are unit-norm and sum to zero, within
        HYPOTHESIS_TOL, and at least min_image of them are distinct."""
        pts = self.points
        norms = np.sqrt(np.add.reduce(pts * pts, axis=1))  # np.linalg.norm without its wrapper
        if np.maximum.reduce(np.abs(norms - 1.0)) > HYPOTHESIS_TOL:
            raise ValueError("placement must have unit-norm points")
        total = np.add.reduce(pts, axis=0)
        if math.sqrt(np.add.reduce(total * total)) > HYPOTHESIS_TOL:
            raise ValueError("placement must sum to zero")
        if self.image_size() < min_image:
            raise ValueError(f"placement image must have at least {min_image} distinct points")


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
    # min and max as ufunc reductions, without their wrappers; an empty reduction has no identity
    if not lengths.size or (
        np.minimum.reduce(lengths, axis=None) >= lo and np.maximum.reduce(lengths, axis=None) <= hi
    ):
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


def _rigidity_from_directions(g: Graph, unit: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The rigidity matrices, (..., n d, m), from the (..., m, d) edge
    directions of _edge_geometry: d_uv at the rows of u and -d_uv at the rows
    of v, written into zeroed flat arrays, one per placement, in one assignment
    through g.scatter_index(d).  out, a (..., n d m) array that is zero off
    the positions of g.scatter_index(d)[1], is written into and reshaped
    instead of a new array: those positions are the same for every
    placement of g in R^d, so the assignment leaves no entry of an earlier
    placement behind."""
    *lead, m, d = unit.shape
    R = np.zeros((*lead, g.n * d * m)) if out is None else out
    # (idx,) alone for one placement: numpy's fast path for a flat fancy index
    R[(slice(None),) * len(lead) + (g.scatter_index(d)[1],)] = (
        np.concatenate((unit, -unit), axis=-2).reshape(*lead, -1)
    )
    return R.reshape(*lead, g.n * d, m)


def _block_stiffness(g: Graph, unit: np.ndarray, keep: np.ndarray | None = None) -> np.ndarray:
    """The stiffness matrices, (..., n d, n d), from the (..., m, d) edge
    directions of _edge_geometry, assembled from their d x d blocks through
    g.block_index(d), one member at a time into one preallocated array:
    -d_uv d_uv^t is written into the blocks (u, v) and (v, u) of each edge,
    and one bincount adds d_uv d_uv^t into the diagonal blocks of u and of v,
    each vertex's sum in edge order.  With a mask keep over the edges, the
    matrices of the spanning subgraph with the kept edges, with the bits of
    that subgraph's own."""
    *lead, _, d = unit.shape
    diag, off = g.block_index(d)
    if keep is not None:
        unit, diag, off = unit[..., keep, :], diag[:, keep], off[:, keep]
    diag, off, side = diag.ravel(), off.ravel(), g.n * d
    L = np.empty((*lead, side, side))
    for member, u in zip(L.reshape(-1, side * side), unit.reshape(math.prod(lead), *unit.shape[-2:])):
        outer = u[:, :, None] * u[:, None, :]
        blocks = np.concatenate((outer, outer)).ravel()  # the edges at u, then at v
        member[:] = np.bincount(diag, blocks, side * side)
        # 0 - x rather than -x: a zero product is written as 0.0, as R R^t has it
        member[off] = np.subtract(0.0, blocks, out=blocks)
    return L


def _stiffness_geometry(
    g: Graph, points: np.ndarray, rigidity: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stiffness matrices, (..., dn, dn), with the (..., m, d) edge
    directions and (..., m) lengths of _edge_geometry, from the (..., n, d)
    points of one placement or a stack: R R^t below BLOCK_ASSEMBLY_MIN_VERTICES
    and _block_stiffness from there, as stiffness assembles them.

    Without rigidity, the rigidity matrices are new arrays, freed before the
    caller's eigensolve.  rigidity, a zeroed (..., n d m) buffer that a caller
    passes to every call for one graph and dimension, holds them instead:
    only the positions of g.scatter_index(d)[1] are rewritten, since the zero
    pattern is the same for every placement, and R R^t is formed from the
    same values in the same layout, so the matrices keep their bits.  The
    block path reads no buffer."""
    unit, lengths = _edge_geometry(g, points)
    if g.n >= BLOCK_ASSEMBLY_MIN_VERTICES:
        return _block_stiffness(g, unit), unit, lengths
    R = _rigidity_from_directions(g, unit, rigidity)
    return R @ R.swapaxes(-1, -2), unit, lengths


def stack_member_bytes(g: Graph, d: int, matrices: int = 1) -> int:
    """Bytes that one member of a _stiffness_geometry stack of g in R^d holds:
    its edge geometry, below BLOCK_ASSEMBLY_MIN_VERTICES its rigidity matrix,
    and matrices float matrices of side dn (its own and its caller's)."""
    side = g.n * d
    rigidity = side * g.m if g.n < BLOCK_ASSEMBLY_MIN_VERTICES else 0
    return 8 * (matrices * side * side + g.m * (d + 1) + rigidity)


def rigidity_matrix(g: Graph, p: Placement) -> np.ndarray:
    """dn x |E| matrix whose column for edge {u, v} is (1_u - 1_v) (x) d_uv."""
    _check_match(g, p)
    return _rigidity_from_directions(g, _edge_geometry(g, p.points)[0])


def stiffness(g: Graph, p: Placement, keep: np.ndarray | None = None) -> np.ndarray:
    """R R^t: dn x dn, symmetric positive semidefinite; formed as the product
    below BLOCK_ASSEMBLY_MIN_VERTICES and from its d x d blocks from there.

    keep, a boolean (k, m) array, gives instead the (k, dn, dn) stack of the
    stiffness matrices of the k spanning subgraphs of g whose edges each row
    keeps, each with the bits of stiffness of that subgraph built as a Graph.
    """
    if keep is not None:
        keep = np.asarray(keep)
        if keep.dtype != bool or keep.ndim != 2 or keep.shape[1] != g.m:
            raise ValueError(f"keep must be a (k, {g.m}) boolean array of masks over the edges of g")
    if g.n < BLOCK_ASSEMBLY_MIN_VERTICES:
        R = rigidity_matrix(g, p)
        if keep is None:
            return R @ R.T
        return np.stack([(R_h := R[:, mask]) @ R_h.T for mask in keep])
    _check_match(g, p)
    unit = _edge_geometry(g, p.points)[0]
    if keep is None:
        return _block_stiffness(g, unit)
    return np.stack([_block_stiffness(g, unit, mask) for mask in keep])


def lower_stiffness_direct(g: Graph, p: Placement) -> np.ndarray:
    """Edge-basis stiffness matrix R^t R from its entry rule, bypassing R.

    Assembled from the vertex stars that the graph groups by size once
    (Graph.stars), one stacked step per size: the directions of the edges at
    each vertex of the group, each pointing away from it, give the cosines of
    the angles there (0 if either direction degenerates) as one stacked Gram
    product D D^t, which one assignment writes into the rows and columns of
    each star's edges.  numpy forms each member of the stack as it forms that
    star's product alone, so each star keeps its bits.  The diagonal is then
    set to exactly 2 for edges with distinct endpoint images and exactly 0
    otherwise; disjoint edges give 0.
    """
    _check_match(g, p)
    L = np.zeros((g.m, g.m))
    unit = _edge_geometry(g, p.points)[0]
    # Two distinct edges of a simple graph share at most one vertex, so the
    # off-diagonal entries written for different stars never overlap.
    for edges, signs in g.stars:
        D = unit[edges] * signs[..., None]
        L[edges[:, :, None], edges[:, None, :]] = D @ D.swapaxes(1, 2)
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
    points = np.asarray(obj["points"], dtype=object)
    # float() would also read a string or a bool; ragged rows stay lists here
    if not all(type(x) in (int, float) for x in points.flat):
        raise ValueError("field 'points' must be an n x d array of numbers")
    try:
        pts = points.astype(float)
    except OverflowError:  # an integer beyond the float range, refused as 1e999 would be
        pts = np.full(points.shape, np.inf)
    if pts.ndim != 2 or pts.shape[1] != obj["d"]:
        raise ValueError(
            f"field 'points' must be an n x d array with d={obj['d']}, got shape {pts.shape}"
        )
    return Placement(pts)


def read_placement(path: str | Path) -> Placement:
    return placement_from_json(Path(path).read_text())
