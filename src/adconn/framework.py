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
largest floats.  require_centered_unit is the one check of the
unit-norm, zero-sum and image-size hypotheses that the centered-unit n/2
facts rest on; it checks a list of placements on one stack per shape, and
image_sizes counts the distinct points of a stack of placements with one
sort, the count Placement.image_size takes of one.

The direction, rigidity and block kernels (_edge_geometry,
_rigidity_from_directions, _block_stiffness) take one placement, (n, d), or
a stack of placements of one shape, (..., n, d), so that callers with many
small frameworks assemble them in one call, and _stiffness_geometry chains
them into the stiffness matrices for other modules, on the path that
stiffness takes for that size.  masked_stiffness is the one assembly of
spanning subgraphs named by edge masks: one direction call for a (k, n, d)
stack, then below BLOCK_ASSEMBLY_MIN_VERTICES one rigidity stack and R_h R_h^t
from the kept columns of each mask, and from there one block assembly of the
directions with the dropped edges' rows zeroed; stiffness with masks is its
call on one placement.  _ascent_kernel binds the _stiffness_geometry chain once per
optimizer restart, with its bits, for one normalized placement at a time:
an endpoint index and, below BLOCK_ASSEMBLY_MIN_VERTICES, one rigidity
buffer.  The block kernel fills its stack one member at a time, so its
temporaries are one member's.  No arithmetic mixes placements, so each
member of a stack gets the bits it would get alone.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graphs import Graph
from .seeding import as_count

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
        """Number of distinct points (image_sizes of this placement alone)."""
        return int(image_sizes(self.points[None])[0])

    def is_constant(self) -> bool:
        return bool(np.all(self.points == self.points[0]))


def image_sizes(points: np.ndarray) -> np.ndarray:
    """The number of distinct points of each placement of a (k, n, d) stack;
    -0.0 and 0.0 are the same coordinate.  One lexicographic sort of each
    member's rows leaves equal points next to each other."""
    k, n, _ = points.shape
    order = np.lexsort(points.transpose(2, 0, 1)[::-1], axis=-1)
    ordered = points[np.arange(k)[:, None], order]
    repeats = np.logical_and.reduce(ordered[:, 1:] == ordered[:, :-1], axis=2)
    return n - np.add.reduce(repeats, axis=1)


def require_centered_unit(placements, min_image: int | None = None) -> None:
    """ValueError unless the points of each placement are unit-norm and sum
    to zero, within HYPOTHESIS_TOL, and at least min_image of them (all of
    them when min_image is None) are distinct.  The placements of each shape
    are checked together, on one stack, with the bits of one placement alone;
    the first failing placement in order is refused, for the first of these
    hypotheses that it fails."""
    placements = list(placements)
    groups: dict[tuple[int, int], list[int]] = {}
    for i, p in enumerate(placements):
        groups.setdefault(p.points.shape, []).append(i)
    refused = None  # (position, message) of the first placement refused
    for (n, _), members in groups.items():
        pts = np.array([placements[i].points for i in members])
        norms = np.sqrt(np.add.reduce(pts * pts, axis=2))  # np.linalg.norm without its wrapper
        totals = np.add.reduce(pts, axis=1)
        floor = n if min_image is None else min_image
        failed = (
            np.maximum.reduce(np.abs(norms - 1.0), axis=1) > HYPOTHESIS_TOL,
            np.sqrt(np.add.reduce(totals * totals, axis=1)) > HYPOTHESIS_TOL,
            image_sizes(pts) < floor,
        )
        bad = np.flatnonzero(failed[0] | failed[1] | failed[2])
        if bad.size and (refused is None or members[bad[0]] < refused[0]):
            messages = (
                "placement must have unit-norm points",
                "placement must sum to zero",
                f"placement image must have at least {floor} distinct points",
            )
            refused = members[bad[0]], next(m for m, f in zip(messages, failed) if f[bad[0]])
    if refused is not None:
        raise ValueError(refused[1])


def _check_match(g: Graph, p: Placement) -> None:
    if p.n != g.n:
        raise ValueError(f"placement has {p.n} points but graph has {g.n} vertices")


# Edge lengths in this range are computed from the sum of squared coordinate
# differences, which neither overflows nor underflows there.
_SAFE_LENGTHS = (1e-150, 1e150)


def _edge_differences(ends: np.ndarray, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The unguarded core of _edge_geometry: the (..., m, d) differences
    p(u) - p(v) and their (..., m) lengths through the (2, m) endpoint index
    ends.  A squared difference above the largest float overflows."""
    pair = points.take(ends, axis=-2)
    diffs = pair[..., 0, :, :] - pair[..., 1, :, :]
    return diffs, np.sqrt(np.add.reduce(diffs * diffs, axis=-1))  # np.linalg.norm without its wrapper


def _edge_geometry(g: Graph, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(..., m, d) array of d_uv and (..., m) array of |p(u) - p(v)| for each
    edge (u, v), u < v, from the (..., n, d) points p: one placement, or a stack
    of placements on the leading axes.  Coincident endpoints give a zero row and
    length 0.  Every row is computed on its own, so a placement gives the same
    bits alone as in any stack."""
    with np.errstate(over="ignore"):
        diffs, lengths = _edge_differences(g.endpoints.T, points)
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
        pu, pv = np.moveaxis(points.take(g.endpoints.T, axis=-2), -3, 0).reshape(2, -1, d)[:, far]
        unit[far], lengths[far] = _rescaled_geometry(pu, pv)
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


def _rigidity_entries(unit: np.ndarray) -> np.ndarray:
    """The nonzero entries of the rigidity matrices in the order of
    g.scatter_index(d)[1]: d_uv at the rows of each u, then -d_uv at those of v."""
    return np.concatenate((unit, -unit), axis=-2)


def _rigidity_from_directions(g: Graph, unit: np.ndarray) -> np.ndarray:
    """The rigidity matrices, (..., n d, m), from the (..., m, d) edge
    directions of _edge_geometry, written into zeroed flat arrays, one per
    placement, in one assignment through g.scatter_index(d)."""
    *lead, m, d = unit.shape
    R = np.zeros((*lead, g.n * d * m))
    # (idx,) alone for one placement: numpy's fast path for a flat fancy index
    R[(slice(None),) * len(lead) + (g.scatter_index(d)[1],)] = _rigidity_entries(unit).reshape(*lead, 2 * m * d)
    return R.reshape(*lead, g.n * d, m)


def _block_stiffness(g: Graph, unit: np.ndarray) -> np.ndarray:
    """The stiffness matrices, (..., n d, n d), from the (..., m, d) edge
    directions of _edge_geometry, assembled from their d x d blocks through
    g.block_index(d), one member at a time into one preallocated array:
    -d_uv d_uv^t is written into the blocks (u, v) and (v, u) of each edge,
    and one bincount adds d_uv d_uv^t into the diagonal blocks of u and of v,
    each vertex's sum in edge order.  An edge whose direction is zeroed gives
    the bits of the spanning subgraph without it: it adds +0.0 to diagonal
    sums that start at +0.0 and writes 0.0 - 0.0 off the diagonal."""
    *lead, _, d = unit.shape
    diag, off = g.block_index(d)
    diag, off, side = diag.ravel(), off.ravel(), g.n * d
    L = np.empty((*lead, side, side))
    for member, u in zip(L.reshape(-1, side * side), unit.reshape(math.prod(lead), *unit.shape[-2:])):
        outer = u[:, :, None] * u[:, None, :]
        blocks = np.concatenate((outer, outer)).ravel()  # the edges at u, then at v
        member[:] = np.bincount(diag, blocks, side * side)
        # 0 - x rather than -x: a zero product is written as 0.0, as R R^t has it
        member[off] = np.subtract(0.0, blocks, out=blocks)
    return L


def _stiffness_geometry(g: Graph, points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The stiffness matrices, (..., dn, dn), with the (..., m, d) edge
    directions and (..., m) lengths of _edge_geometry, from the (..., n, d)
    points of one placement or a stack: R R^t below BLOCK_ASSEMBLY_MIN_VERTICES
    and _block_stiffness from there, as stiffness assembles them.  The
    rigidity matrices are new arrays, freed before the caller's eigensolve."""
    unit, lengths = _edge_geometry(g, points)
    if g.n >= BLOCK_ASSEMBLY_MIN_VERTICES:
        return _block_stiffness(g, unit), unit, lengths
    R = _rigidity_from_directions(g, unit)
    return R @ R.swapaxes(-1, -2), unit, lengths


def _ascent_kernel(g: Graph, d: int):
    """points -> _stiffness_geometry(g, points), bit for bit and from the same
    kernels, for one (n, d) placement at a time, with its indexes and, below
    BLOCK_ASSEMBLY_MIN_VERTICES, one zeroed rigidity buffer bound once per
    optimizer restart: the nonzero positions of R are the same for every
    placement, so rewriting them leaves nothing of an earlier one.  The points
    must be normalized, so that no squared difference overflows and no
    errstate is entered; an edge length outside _SAFE_LENGTHS, such as a
    coincident pair's, sends the placement through _edge_geometry."""
    ends, entries = np.ascontiguousarray(g.endpoints.T), g.scatter_index(d)[1]
    block = g.n >= BLOCK_ASSEMBLY_MIN_VERTICES
    rigidity = None if block else np.zeros(g.n * d * g.m)
    R = None if block else rigidity.reshape(g.n * d, g.m)

    def assemble(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        diffs, lengths = _edge_differences(ends, points)
        # normalized points lie within sqrt(n) of the origin, so no length
        # exceeds the upper end of _SAFE_LENGTHS
        if not lengths.size or np.minimum.reduce(lengths) >= _SAFE_LENGTHS[0]:
            unit = diffs / lengths[:, None]
        else:
            unit, lengths = _edge_geometry(g, points)
        if block:
            return _block_stiffness(g, unit), unit, lengths
        rigidity[entries] = _rigidity_entries(unit).ravel()
        return R @ R.T, unit, lengths

    return assemble


def stack_member_bytes(g: Graph, d: int, matrices: int = 1) -> int:
    """Bytes that one member of a _stiffness_geometry or masked_stiffness
    stack of g in R^d holds: its edge geometry, below
    BLOCK_ASSEMBLY_MIN_VERTICES its rigidity matrix, and matrices float
    matrices of side dn: its own, or one per mask, and those that its caller
    forms beside them."""
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
    keeps, each with the bits of stiffness of that subgraph built as a Graph:
    masked_stiffness of this one placement.
    """
    if keep is None:
        if g.n < BLOCK_ASSEMBLY_MIN_VERTICES:
            R = rigidity_matrix(g, p)
            return R @ R.T
        _check_match(g, p)
        return _block_stiffness(g, _edge_geometry(g, p.points)[0])
    keep = np.asarray(keep)
    if keep.dtype != bool or keep.ndim != 2 or keep.shape[1] != g.m:
        raise ValueError(f"keep must be a (k, {g.m}) boolean array of masks over the edges of g")
    _check_match(g, p)
    return masked_stiffness(g, p.points[None], keep[None])[0]


def masked_stiffness(g: Graph, points: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The (k, j, dn, dn) stiffness matrices of the spanning subgraphs of g
    that the (k, j, m) boolean masks keep over its edges, the j masks of each
    member at that member of the (k, n, d) stack of placements, each with the
    bits of stiffness of that subgraph built as a Graph.  One _edge_geometry
    call gives the directions of the whole stack; below
    BLOCK_ASSEMBLY_MIN_VERTICES one rigidity stack follows, and each subgraph
    is R_h R_h^t from the columns R_h of R that its mask keeps, written into
    its place in the result; from there one _block_stiffness call assembles
    every subgraph from the directions with those of its dropped edges zeroed.
    """
    points, keep = np.asarray(points, dtype=float), np.asarray(keep)
    if points.ndim != 3 or points.shape[1] != g.n or points.shape[2] < 1:
        raise ValueError(f"points must be a (k, {g.n}, d) stack of placements with d >= 1, got shape {points.shape}")
    k, _, d = points.shape
    if keep.dtype != bool or keep.ndim != 3 or keep.shape[0] != k or keep.shape[2] != g.m:
        raise ValueError(f"keep must be a ({k}, j, {g.m}) boolean array of masks over the edges of g")
    if not np.logical_and.reduce(np.isfinite(points), axis=None):
        raise ValueError("points must be finite")
    unit = _edge_geometry(g, points)[0]
    if g.n >= BLOCK_ASSEMBLY_MIN_VERTICES:
        return _block_stiffness(g, np.where(keep[..., None], unit[:, None], 0.0))
    side = g.n * d
    L = np.empty((*keep.shape[:2], side, side))
    for member, R, masks in zip(L, _rigidity_from_directions(g, unit), keep):
        for matrix, mask in zip(member, masks):
            R_h = R[:, mask]
            np.matmul(R_h, R_h.T, out=matrix)
    return L


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
    d = as_count(obj["d"], "field 'd'", 1)
    points = np.asarray(obj["points"], dtype=object)
    # float() would also read a string or a bool; ragged rows stay lists here
    if not all(type(x) in (int, float) for x in points.flat):
        raise ValueError("field 'points' must be an n x d array of numbers")
    try:
        pts = points.astype(float)
    except OverflowError:  # an integer beyond the float range, refused as 1e999 would be
        pts = np.full(points.shape, np.inf)
    if pts.ndim != 2 or pts.shape[1] != d:
        raise ValueError(f"field 'points' must be an n x d array with d={d}, got shape {pts.shape}")
    return Placement(pts)


def read_placement(path: str | Path) -> Placement:
    return placement_from_json(Path(path).read_text())
