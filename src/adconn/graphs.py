"""Simple graphs with a canonical edge order, and the complete / balanced Turán families.

Vertices are always the integers 0..n-1.  Edges are unordered pairs stored as
(u, v) tuples with u < v, sorted lexicographically; every matrix in this
package keys its edge axis off that order, so the layout is bit-stable across
runs.  A Graph and its cached indexes are immutable, so ``complete_graph``
builds each K_n once per process and hands every caller the same object.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping

import numpy as np

from .seeding import as_index

Edge = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on vertices 0..n-1 with canonically ordered edges."""

    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"vertex count must be >= 1, got {self.n}")
        prev = None
        for u, v in self.edges:
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

    def scatter_index(self, d: int) -> tuple[np.ndarray, np.ndarray]:
        """Read-only flat index arrays for placements in R^d, built once per d.

        Both list the coordinates of the endpoints of every edge: the first
        endpoint u of each edge in canonical order, then the second endpoint v
        of each, with coordinates 0..d-1 innermost.  The first array gives the
        position of coordinate j of endpoint w in a flattened (n, d) array,
        w d + j; the second the position of entry (w d + j, k) of edge k in a
        flattened (n d, m) array with one column per edge.
        """
        index = self._scatter_indexes.get(d)
        if index is None:
            coords = self.endpoints.T.reshape(-1, 1) * d + np.arange(d)
            entries = coords * self.m + np.tile(np.arange(self.m), 2)[:, None]
            index = (coords.ravel(), entries.ravel())
            for a in index:
                a.flags.writeable = False
            self._scatter_indexes[d] = index
        return index

    @cached_property
    def _scatter_indexes(self) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        return {}

    @property
    def m(self) -> int:
        return len(self.edges)

    def normalize_edge(self, e: Edge) -> Edge:
        u, v = e
        return (u, v) if u < v else (v, u)

    def index_of(self, u: int, v: int) -> int:
        e = self.normalize_edge((u, v))
        try:
            return self.edge_index[e]
        except KeyError:
            raise ValueError(f"edge {{{u}, {v}}} not in graph") from None


@dataclass(frozen=True)
class TuranPartition:
    """Balanced partition of 0..n-1 into r contiguous parts of equal size."""

    r: int
    parts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.r != len(self.parts):
            raise ValueError("r must equal the number of parts")
        sizes = {len(p) for p in self.parts}
        if len(sizes) != 1:
            raise ValueError("all parts must have equal size")
        flat = sorted(v for p in self.parts for v in p)
        if flat != list(range(len(flat))):
            raise ValueError("parts must partition 0..n-1")

    @property
    def n(self) -> int:
        return sum(len(p) for p in self.parts)

    @cached_property
    def part_of(self) -> tuple[int, ...]:
        """part_of[v] = index of the part containing vertex v."""
        out = [0] * self.n
        for i, p in enumerate(self.parts):
            for v in p:
                out[v] = i
        return tuple(out)


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
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    edges = tuple((u, v) for u in range(n) for v in range(u + 1, n))
    return Graph(n, edges)


complete_graph.cache_clear = _complete_graph.cache_clear


def turan_graph(n: int, r: int) -> tuple[Graph, TuranPartition]:
    """Complete balanced r-partite graph on n vertices, parts = contiguous blocks."""
    if r < 2:
        raise ValueError(f"number of parts must be >= 2, got {r}")
    if n % r != 0:
        raise ValueError(f"r={r} does not divide n={n}")
    size = n // r
    parts = tuple(tuple(range(i * size, (i + 1) * size)) for i in range(r))
    part_of = [v // size for v in range(n)]
    edges = tuple(
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if part_of[u] != part_of[v]
    )
    return Graph(n, edges), TuranPartition(r, parts)


def remove_edge(g: Graph, e: Edge) -> Graph:
    """Same vertex set with one edge removed; canonical order is preserved."""
    e = g.normalize_edge(e)
    if e not in g.edge_index:
        raise ValueError(f"edge {e} not in graph")
    return Graph(g.n, tuple(x for x in g.edges if x != e))


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


def write_edge_list(g: Graph, path: str | Path) -> None:
    lines = [f"{g.n} {g.m}"] + [f"{u} {v}" for u, v in g.edges]
    Path(path).write_text("\n".join(lines) + "\n")
