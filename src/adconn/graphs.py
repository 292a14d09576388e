"""Simple graphs with a canonical edge order: the complete, balanced Turán and random regular families.

Vertices are always the integers 0..n-1.  Edges are unordered pairs stored as
(u, v) tuples with u < v, sorted lexicographically; every matrix in this
package keys its edge axis off that order, so the layout is bit-stable across
runs.  A Graph, its cached indexes (edge positions, endpoints, incidence,
vertex stars, scatter and block indexes, each built on first use) and a
TuranPartition (fixed by n and r) are immutable; ``complete_graph`` builds
one shared K_n per n, ``turan_partition`` one shared partition per (n, r)
and ``turan_graph`` one shared pair per (n, r) per process, so their
indexes are built once too.  The vertex stars are grouped by size, so that
framework.lower_stiffness_direct stacks the stars of each size into one
Gram product, in which every star keeps the bits of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .seeding import as_count, as_index

Edge = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1 with canonically ordered edges."""

    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        object.__setattr__(self, "n", as_count(self.n, "n", 1))
        prev = None
        for u, v in self.edges:
            u, v = as_index(u, "edge endpoint"), as_index(v, "edge endpoint")
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u}, {v}) violates 0 <= u < v < n={self.n}")
            if prev is not None and (u, v) <= prev:
                raise ValueError("edges must be strictly increasing lexicographically")
            prev = (u, v)

    @cached_property
    def edge_index(self) -> Mapping[Edge, int]:
        """Read-only bijection edge -> position in the canonical order."""
        return MappingProxyType({e: k for k, e in enumerate(self.edges)})

    @cached_property
    def endpoints(self) -> np.ndarray:
        """Read-only (m, 2) index array whose row k is edge k as (u, v), u < v."""
        uv = np.array(self.edges, dtype=np.intp).reshape(self.m, 2)
        uv.flags.writeable = False
        return uv

    @cached_property
    def incidence(self) -> np.ndarray:
        """Read-only n x m 0/1 matrix whose column k marks the two endpoints of edge k."""
        B = np.zeros((self.n, self.m))
        B[self.endpoints.T, np.arange(self.m)] = 1.0
        B.flags.writeable = False
        return B

    @cached_property
    def stars(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Read-only vertex stars grouped by size: one pair per star size s
        that some vertex has, s ascending, whose k rows are the vertices of
        degree s, ascending.  The (k, s) edge array lists at each row the
        edges at which its vertex is u, then those at which it is v, each
        ascending; the (k, s) sign array holds -1.0 where the vertex is u and
        1.0 where it is v, so that it turns d_uv to point away from the vertex.
        Each vertex of positive degree is one row of one group, so a kernel
        over stars takes one stacked step per size."""
        uv = self.endpoints
        # every edge twice, at u and then at v; a stable sort by vertex keeps
        # that order within each star
        at = uv.T.ravel()
        order = np.argsort(at, kind="stable")
        edges = np.tile(np.arange(self.m), 2)[order]
        signs = np.repeat([-1.0, 1.0], self.m)[order]
        degree = np.bincount(at, minlength=self.n)
        first = np.cumsum(degree) - degree
        groups = []
        for s in np.unique(degree[degree > 0]).tolist():
            rows = first[degree == s, None] + np.arange(s)
            group = edges[rows], signs[rows]
            for a in group:
                a.flags.writeable = False
            groups.append(group)
        return tuple(groups)

    def scatter_index(self, d: int) -> tuple[np.ndarray, np.ndarray]:
        """Read-only flat index arrays for placements in R^d, built once per d.

        Both list the coordinates of the endpoints of every edge: the first
        endpoint u of each edge in canonical order, then the second endpoint v
        of each, with coordinates 0..d-1 innermost.  The first array gives the
        position of coordinate j of endpoint w in a flattened (n, d) array,
        w d + j; the second the position of entry (w d + j, k) of edge k in a
        flattened (n d, m) array with one column per edge.
        """
        index = self._indexes.get(("scatter", d))
        if index is None:
            coords = self.endpoints.T.reshape(-1, 1) * d + np.arange(d)
            entries = coords * self.m + np.tile(np.arange(self.m), 2)[:, None]
            index = self._keep_read_only(("scatter", d), (coords.ravel(), entries.ravel()))
        return index

    def block_index(self, d: int) -> tuple[np.ndarray, np.ndarray]:
        """Read-only flat index arrays of the d x d blocks of a stiffness
        matrix in R^d, built once per d.

        Both have shape (2, m, d, d) and give positions in a flattened
        (n d, n d) array.  Entry [s, k, i, j] of the first is the position of
        entry (w d + i, w d + j) of the diagonal block of w, the endpoint u
        (s = 0) or v (s = 1) of edge k = (u, v); of the second, that of entry
        (w d + i, x d + j) of the off-diagonal block (w, x) = (u, v) (s = 0)
        or (v, u) (s = 1).  Their rows at the edges a mask keeps are the
        arrays of the spanning subgraph with those edges.
        """
        index = self._indexes.get(("block", d))
        if index is None:
            ends = self.endpoints.T * d
            rows = ends[:, :, None, None] + np.arange(d)[:, None]
            cols = ends[:, :, None, None] + np.arange(d)
            side = self.n * d
            diag, off = rows * side + cols, rows * side + cols[::-1]
            index = self._keep_read_only(("block", d), (np.ascontiguousarray(diag), np.ascontiguousarray(off)))
        return index

    def _keep_read_only(self, key, index: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Make the arrays of index read-only and cache it under key."""
        for a in index:
            a.flags.writeable = False
        self._indexes[key] = index
        return index

    @cached_property
    def _indexes(self) -> dict[tuple[str, int], tuple[np.ndarray, np.ndarray]]:
        return {}

    @cached_property
    def m(self) -> int:
        return len(self.edges)

    def index_of(self, u: int, v: int) -> int:
        try:
            return self.edge_index[(u, v) if u < v else (v, u)]
        except KeyError:
            raise ValueError(f"edge {{{u}, {v}}} not in graph") from None


@dataclass(frozen=True)
class TuranPartition:
    """0..n-1 as r contiguous blocks of n // r vertices, for integers n >= r >= 2 with r | n."""

    n: int
    r: int

    def __post_init__(self):
        object.__setattr__(self, "n", as_index(self.n, "n"))
        object.__setattr__(self, "r", as_count(self.r, "r", 2))
        if not self.exists(self.n, self.r):
            raise ValueError(f"r={self.r} does not divide n={self.n} into nonempty blocks")

    @staticmethod
    def exists(n: int, r: int) -> bool:
        """Whether 0..n-1 splits into r >= 2 equal nonempty blocks."""
        return r >= 2 and n >= r and n % r == 0

    @cached_property
    def parts(self) -> tuple[tuple[int, ...], ...]:
        size = self.n // self.r
        return tuple(tuple(range(i * size, (i + 1) * size)) for i in range(self.r))

    @cached_property
    def part_of(self) -> tuple[int, ...]:
        """part_of[v] = index of the part containing vertex v."""
        return tuple(v // (self.n // self.r) for v in range(self.n))


def make_graph(n: int, edges: Iterable[Edge]) -> Graph:
    """Build a Graph from an arbitrary edge iterable, canonicalizing the order."""
    canon = []
    seen = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop ({u}, {v}) not allowed")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise ValueError(f"duplicate edge {e}")
        seen.add(e)
        canon.append(e)
    return Graph(n, tuple(sorted(canon)))


def complete_graph(n: int) -> Graph:
    """K_n, the same object on every call with the same n; n must be an integer
    and not a bool (seeding.as_index), and a numpy integer becomes a Python int
    before the cache sees it."""
    return _complete_graph(as_index(n, "n"))


@cache
def _complete_graph(n: int) -> Graph:
    edges = tuple((u, v) for u in range(n) for v in range(u + 1, n))
    return Graph(n, edges)


complete_graph.cache_clear = _complete_graph.cache_clear


def turan_partition(n: int, r: int) -> TuranPartition:
    """TuranPartition(n, r), the same object on every call with the same
    (n, r), whose n and r pass seeding.as_index before the cache sees them,
    as in complete_graph."""
    return _turan_partition(as_index(n, "n"), as_index(r, "r"))


@cache
def _turan_partition(n: int, r: int) -> TuranPartition:
    return TuranPartition(n, r)


def turan_graph(n: int, r: int) -> tuple[Graph, TuranPartition]:
    """Complete balanced r-partite graph on n vertices, parts = contiguous
    blocks: the same pair on every call with the same (n, r), whose n and r
    pass seeding.as_index before the cache sees them, as in complete_graph."""
    return _turan_graph(as_index(n, "n"), as_index(r, "r"))


@cache
def _turan_graph(n: int, r: int) -> tuple[Graph, TuranPartition]:
    partition = _turan_partition(n, r)
    part_of = partition.part_of
    edges = tuple(
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if part_of[u] != part_of[v]
    )
    return Graph(n, edges), partition


turan_graph.cache_clear = _turan_graph.cache_clear


def random_regular_graph(k: int, n: int, rng: np.random.Generator) -> Graph:
    """A k-regular simple graph on n vertices drawn from rng by the algorithm of
    Steger and Wormald (Combin. Probab. Comput. 1999): pair the shuffled stubs,
    keep each pair that is a new edge, re-pair the stubs left over, and start
    over when no two vertices left over can still be joined."""
    k, n = as_index(k, "k"), as_index(n, "n")
    if not 0 <= k < n or k * n % 2:
        raise ValueError(f"need 0 <= k < n and k*n even for a k-regular graph, got k={k}, n={n}")
    while True:
        edges, stubs = set(), np.repeat(np.arange(n), k)
        while stubs.size:
            left = []
            for u, v in np.sort(rng.permutation(stubs).reshape(-1, 2), axis=1).tolist():
                if u != v and (u, v) not in edges:
                    edges.add((u, v))
                else:
                    left += [u, v]
            stubs, free = np.array(left, dtype=np.intp), sorted(set(left))
            if left and all((u, v) in edges for i, u in enumerate(free) for v in free[i + 1:]):
                break
        else:
            return Graph(n, tuple(sorted(edges)))


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format: first line "n m", then m lines "u v"."""
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines:
        raise ValueError("edge list is empty: missing header line 'n m'")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ValueError(f"header fields 'n m' must be integers, got {lines[0]!r}") from None
    if len(lines) - 1 != m:
        raise ValueError(f"header declares m={m} edges but {len(lines) - 1} lines follow")
    edges = []
    for ln in lines[1:]:
        fields = ln.split()
        if len(fields) != 2:
            raise ValueError(f"edge line must be 'u v', got {ln!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise ValueError(f"edge endpoints must be integers, got {ln!r}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge endpoint out of range 0..{n - 1} in line {ln!r}")
        edges.append((u, v))
    return make_graph(n, edges)


def read_edge_list(path: str | Path) -> Graph:
    return parse_edge_list(Path(path).read_text())
