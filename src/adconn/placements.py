"""Canonical placements: simplex and crosspolytope embeddings, circle and
sphere configurations, and the equilateral-base pyramid family.

All constructors are closed-form and deterministic; random ones draw from a
seed's tag-separated stream (rng_stream) or from the caller's generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .framework import Placement
from .graphs import turan_partition
from .seeding import as_count, as_index, rng_stream


def _helmert_basis(d: int) -> np.ndarray:
    """d orthonormal rows in R^(d+1), each orthogonal to the all-ones vector."""
    H = np.zeros((d, d + 1))
    for k in range(1, d + 1):
        H[k - 1, :k] = 1.0
        H[k - 1, k] = -k
        H[k - 1] /= math.sqrt(k * (k + 1))
    return H


def regular_simplex(d: int) -> Placement:
    """d+1 unit-norm, zero-sum, equidistant points in R^d.

    The standard basis of R^(d+1) is centered onto the sum-zero hyperplane,
    rescaled to unit norm, and expressed in an orthonormal (Helmert) basis of
    that hyperplane, so the Gram matrix is exactly 1 on the diagonal and -1/d
    off it, with no orthogonalization drift.
    """
    d = as_count(d, "d", 1)
    scale = math.sqrt((d + 1) / d)
    pts = -scale * _helmert_basis(d).T
    return Placement(pts)


def turan_simplex_placement(n: int, d: int) -> Placement:
    """n points on the d+1 regular-simplex vertices, in the blocks of turan_partition(n, d+1)."""
    verts = regular_simplex(d).points
    return Placement(np.take(verts, turan_partition(n, d + 1).part_of, axis=0))


def crosspolytope_placement(n: int, d: int) -> Placement:
    """n points on {+-e_1, ..., +-e_d}, parts ordered (1,+1), (1,-1), (2,+1), ...

    Each of the 2d unit vectors carries a block of turan_partition(n, 2d).
    """
    d = as_count(d, "d", 1)
    part_of = turan_partition(n, 2 * d).part_of
    verts = np.zeros((2 * d, d))
    for i in range(d):
        verts[2 * i, i] = 1.0
        verts[2 * i + 1, i] = -1.0
    return Placement(np.take(verts, part_of, axis=0))


@dataclass(frozen=True)
class CirclePlacement:
    """A unit-circle placement."""

    placement: Placement


def unit_circle_placement(angles) -> CirclePlacement:
    """Points (cos t, sin t) for the given angles; centering and injectivity are
    the caller's (centered_sphere_points draws centered unit points in R^2)."""
    angles = np.asarray(angles, dtype=float)
    return CirclePlacement(Placement(np.column_stack([np.cos(angles), np.sin(angles)])))


def roots_of_unity_angles(n: int) -> np.ndarray:
    n = as_count(n, "n", 1)
    return 2.0 * np.pi * np.arange(n) / n


def triangular_pyramid(apex_height: float) -> Placement:
    """Unit equilateral triangle at height 0, centered on the z-axis, apex at
    (0, 0, h).  The three apex edges have length sqrt(h^2 + 1/3)."""
    h = float(apex_height)
    if h < 0:
        raise ValueError(f"apex height must be >= 0, got {h}")
    r = 1.0 / math.sqrt(3.0)  # circumradius giving side length 1
    base_angles = np.pi / 2 + 2.0 * np.pi * np.arange(3) / 3
    pts = np.zeros((4, 3))
    pts[:3, 0] = r * np.cos(base_angles)
    pts[:3, 1] = r * np.sin(base_angles)
    pts[3, 2] = h
    return Placement(pts)


def random_sphere_placement(n: int, d: int, seed: int) -> Placement:
    """n points uniform on the unit sphere in R^d, from the stream
    (seed, "sphere:n:d:0")."""
    n, d = as_count(n, "n", 1), as_count(d, "d", 1)
    rng = rng_stream(seed, f"sphere:{n}:{d}:0")
    return Placement(_unit_rows(rng.standard_normal((n, d))))


def centered_sphere_points(n: int, d: int, rng: np.random.Generator) -> Placement:
    """Random unit-norm points with zero sum, for even n >= 2 and d >= 1 or
    odd n >= 3 and d >= 2: the one-sample case of centered_sphere_stack."""
    return Placement(centered_sphere_stack(n, d, 1, rng)[0])


# the angles of an equilateral triple on the unit circle, from its first point
_THIRDS = np.array([0.0, 2 * np.pi / 3, 4 * np.pi / 3])


def centered_sphere_stack(n: int, d: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """k samples of centered_sphere_points as a (k, n, d) array.

    Even n uses antipodal pairs x, -x, whose sum is exactly zero; odd n puts
    one equilateral triple inside a random 2-plane first (three unit vectors
    summing to zero must be coplanar), whose sum is zero up to rounding.
    Each sample reads one record of standard normals, and the k records are
    one draw: for odd n, two vectors whose Gram-Schmidt frame spans the
    plane and two values whose atan2 is the angle of the triple's first
    point in it; then one vector x per pair, scaled to unit norm.  Every
    step works on each sample alone, so k draws of one sample give the bits
    of one draw of k.
    """
    n, d = as_index(n, "n"), as_index(d, "d")
    if n < 2 or d < 1 or (n % 2 and d < 2):
        raise ValueError(f"need even n >= 2 and d >= 1, or odd n >= 3 and d >= 2, got n={n}, d={d}")
    k = as_count(k, "k", 0)
    triple = 3 * (n % 2)
    pairs = (n - triple) // 2
    offset = (2 * d + 2) * (n % 2)  # a record's frame and angle values, before its pairs
    record = rng.standard_normal((k, offset + pairs * d))
    points = np.empty((k, n, d))
    if triple:
        e1 = _unit_rows(record[:, :d])
        b = record[:, d:2 * d]
        e2 = _unit_rows(b - np.add.reduce(b * e1, axis=-1)[:, None] * e1)
        t = np.arctan2(record[:, 2 * d + 1], record[:, 2 * d])[:, None] + _THIRDS
        points[:, :3] = _unit_rows(np.cos(t)[..., None] * e1[:, None] + np.sin(t)[..., None] * e2[:, None])
    half = _unit_rows(record[:, offset:].reshape(k, pairs, d))
    points[:, triple::2] = half  # x1, -x1, x2, -x2, ...
    points[:, triple + 1::2] = -half
    return points


def _unit_rows(a: np.ndarray) -> np.ndarray:
    """Each row along the last axis divided by its norm."""
    return a / np.linalg.norm(a, axis=-1)[..., None]
