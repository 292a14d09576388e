import importlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adconn.closedform import crosspolytope_spectrum_closed_form, turan_simplex_spectrum_closed_form
from adconn.families import crosspolytope_families, turan_simplex_families
from adconn.graphs import (
    Graph,
    TuranPartition,
    complete_graph,
    make_graph,
    parse_edge_list,
    random_regular_graph,
    read_edge_list,
    turan_graph,
    turan_partition,
)
from adconn.placements import crosspolytope_placement, turan_simplex_placement
from adconn.seeding import rng_stream


def brute_force_cross_part_pairs(n, r):
    """Independent count of vertex pairs with endpoints in distinct contiguous blocks."""
    size = n // r
    return sum(
        1
        for u in range(n)
        for v in range(u + 1, n)
        if u // size != v // size
    )


@pytest.mark.parametrize("n,expected", [(1, 0), (4, 6), (12, 66)])
def test_complete_graph_edge_count(n, expected):
    g = complete_graph(n)
    assert g.m == expected == math.comb(n, 2)


def test_complete_graph_k4_edges():
    assert complete_graph(4).edges == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def test_complete_graph_is_built_once_and_read_only():
    g = complete_graph(6)
    assert complete_graph(6) is g
    assert not g.endpoints.flags.writeable
    assert not g.incidence.flags.writeable
    with pytest.raises(TypeError):
        g.edge_index[(0, 1)] = 5
    assert g.edge_index[(0, 1)] == 0


def test_complete_graph_caches_a_numpy_integer_as_an_int():
    complete_graph.cache_clear()
    g = complete_graph(np.int64(5))
    assert type(g.n) is int
    assert complete_graph(5) is g


def test_complete_graph_refuses_a_float_that_equals_a_cached_int():
    complete_graph(3)
    with pytest.raises(ValueError, match=r"^n must be an integer, got 3\.0$"):
        complete_graph(3.0)


@pytest.mark.parametrize("n", [0, -1])
def test_complete_graph_refuses_n_below_one_on_every_call(n):
    for _ in range(2):
        with pytest.raises(ValueError, match=f"vertex count must be >= 1, got {n}"):
            complete_graph(n)


def test_turan_graph_is_built_once_per_n_and_r():
    pair = turan_graph(12, 4)
    assert turan_graph(12, 4) is pair
    assert turan_graph(12, 3) is not pair
    assert not pair[0].incidence.flags.writeable


def test_turan_graph_caches_numpy_integers_as_ints():
    turan_graph.cache_clear()
    g, part = turan_graph(np.int64(12), np.int64(4))
    assert (type(g.n), type(part.n), type(part.r)) == (int, int, int)
    assert turan_graph(12, 4)[0] is g


def test_turan_partition_is_built_once_per_n_and_r_and_shared():
    part = turan_partition(np.int64(12), np.int64(4))
    assert (type(part.n), type(part.r)) == (int, int)
    assert turan_partition(12, 4) is part and turan_partition(12, 3) is not part
    assert turan_graph(12, 4)[1] is part


@pytest.mark.parametrize(
    "module", ["adconn"] + [f"adconn.{m}" for m in ("verify", "bounds", "families", "closedform", "probes", "cli")]
)
def test_every_module_binds_the_one_cached_complete_graph(module):
    # the benchmark tracer counts calls by rebinding this one object everywhere
    assert importlib.import_module(module).complete_graph is complete_graph


def test_edges_sorted_with_consistent_index():
    g = complete_graph(7)
    assert list(g.edges) == sorted(g.edges)
    for k, e in enumerate(g.edges):
        assert g.edge_index[e] == k
        assert g.index_of(*e) == k
        assert g.index_of(e[1], e[0]) == k


@pytest.mark.parametrize(
    "n,r,expected",
    [
        (4, 4, 6),
        (8, 4, brute_force_cross_part_pairs(8, 4)),   # 24
        (12, 6, brute_force_cross_part_pairs(12, 6)),  # 60
    ],
)
def test_turan_graph_edge_count(n, r, expected):
    g, part = turan_graph(n, r)
    assert g.m == expected
    assert part.r == r
    assert all(len(p) == n // r for p in part.parts)


def test_turan_counts_frozen():
    assert brute_force_cross_part_pairs(8, 4) == 24
    assert brute_force_cross_part_pairs(12, 6) == 60


def test_turan_with_singleton_parts_is_complete():
    for n in (3, 4, 6):
        g, _ = turan_graph(n, n)
        assert g == complete_graph(n)


def test_turan_edge_count_formula_full_grid():
    for n in range(2, 25):
        for r in range(2, n + 1):
            if n % r == 0:
                g, _ = turan_graph(n, r)
                assert g.m == math.comb(n, 2) - r * math.comb(n // r, 2)


def test_turan_partition_is_the_contiguous_blocks_of_n_and_r():
    for n in range(2, 25):
        for r in range(2, n + 1):
            if n % r == 0:
                size = n // r
                part = TuranPartition(n, r)
                assert part.parts == tuple(tuple(range(i * size, (i + 1) * size)) for i in range(r))
                assert part.part_of == tuple(i for i in range(r) for _ in range(size))
                assert turan_graph(n, r)[1] == part


@pytest.mark.parametrize(
    "n,r,message",
    [
        (6, 1, "number of parts must be >= 2, got 1"),
        (10, 4, "r=4 does not divide n=10"),
        (0, 2, "r=2 does not divide n=0 into nonempty blocks"),
        (-6, 3, "r=3 does not divide n=-6 into nonempty blocks"),
        (2, 4, "r=4 does not divide n=2 into nonempty blocks"),
        (12.0, 4, "n must be an integer, got 12.0"),
        (12, 4.0, "r must be an integer, got 4.0"),
        (True, 2, "n must be an integer, got True"),
        (2, True, "r must be an integer, got True"),
    ],
)
def test_turan_partition_refuses_what_turan_graph_refuses(n, r, message):
    # with (12, 4) cached, 12.0 and 4.0 are refused all the same, and no
    # refusal is cached
    turan_graph(12, 4)
    for build in (TuranPartition, turan_partition, turan_graph):
        for _ in range(2):
            with pytest.raises(ValueError, match=f"^{message}"):
                build(n, r)


# The entry points of the two balanced rows, each with its block count r(d).
BALANCED_ENTRY_POINTS = {
    "turan-simplex-placement": (turan_simplex_placement, lambda d: d + 1),
    "crosspolytope-placement": (crosspolytope_placement, lambda d: 2 * d),
    "turan-simplex-closed-form": (turan_simplex_spectrum_closed_form, lambda d: d + 1),
    "crosspolytope-closed-form": (crosspolytope_spectrum_closed_form, lambda d: 2 * d),
    "turan-simplex-families": (turan_simplex_families, lambda d: d + 1),
    "crosspolytope-families": (crosspolytope_families, lambda d: 2 * d),
}


@pytest.mark.parametrize("entry", list(BALANCED_ENTRY_POINTS))
@pytest.mark.parametrize(
    "case",
    [
        lambda r: (0, 3),
        lambda r: (-r, 3),  # a multiple of r, so only n >= r refuses it
        lambda r: (r + 1, 3),
        lambda r: (float(2 * r), 3),
        lambda r: (12, 3.0),  # 12 is admitted by both rows at d = 3
    ],
    ids=["n-zero", "n-negative", "n-not-divided", "n-float", "d-float"],
)
def test_balanced_entry_points_refuse_through_turan_partition(entry, case):
    # every balanced (n, d) is refused by TuranPartition or by seeding.as_index,
    # never by numpy further down
    build, blocks = BALANCED_ENTRY_POINTS[entry]
    n, d = case(blocks(3))
    refusal = r"does not divide n=-?\d+ into nonempty blocks|must be an integer, got"
    with pytest.raises(ValueError, match=refusal) as info:
        build(n, d)
    raised_in = info.traceback[-1]
    assert (Path(raised_in.path).name, raised_in.name) in {("graphs.py", "__post_init__"), ("seeding.py", "as_index")}


def test_turan_edges_cross_parts_only():
    g, part = turan_graph(12, 4)
    for u, v in g.edges:
        assert part.part_of[u] != part.part_of[v]


@pytest.mark.parametrize(
    "g",
    [complete_graph(5), turan_graph(6, 3)[0], make_graph(6, [(4, 1), (0, 5), (2, 3)])],
    ids=["K5", "turan-6-3", "matching"],
)
def test_incidence_marks_the_two_endpoints_of_each_edge(g):
    B = g.incidence
    assert B.shape == (g.n, g.m)
    np.testing.assert_array_equal(B.sum(axis=0), np.full(g.m, 2.0))
    for k, (u, v) in enumerate(g.edges):
        assert np.flatnonzero(B[:, k]).tolist() == [u, v]
    assert not B.flags.writeable
    with pytest.raises(ValueError):
        B[0, 0] = 0.0


def test_incidence_without_edges():
    assert complete_graph(1).incidence.shape == (1, 0)
    assert Graph(3, ()).incidence.shape == (3, 0)


@pytest.mark.parametrize(
    "g",
    [complete_graph(5), turan_graph(6, 3)[0], make_graph(6, [(4, 1), (0, 5), (2, 3)])],
    ids=["K5", "turan-6-3", "matching"],
)
def test_endpoints_list_the_edges_in_canonical_order(g):
    uv = g.endpoints
    assert uv.shape == (g.m, 2) and uv.dtype == np.intp
    np.testing.assert_array_equal(uv, np.array(g.edges))
    assert g.endpoints is uv
    assert not uv.flags.writeable
    with pytest.raises(ValueError):
        uv[0, 0] = 0


def test_endpoints_without_edges():
    g = complete_graph(1)
    assert g.endpoints.shape == (0, 2) and g.endpoints.dtype == np.intp
    assert g.endpoints is g.endpoints


@pytest.mark.parametrize(
    "g",
    [
        complete_graph(5),
        turan_graph(6, 3)[0],
        make_graph(6, [(4, 1), (0, 5), (2, 3)]),
        make_graph(7, [(0, 1), (1, 2), (2, 3), (1, 4), (4, 5), (3, 1)]),
        Graph(3, ()),
    ],
    ids=["K5", "turan-6-3", "matching", "mixed-degrees", "edgeless"],
)
def test_stars_list_the_edges_at_each_vertex_once_and_read_only(g):
    stars = g.stars
    assert g.stars is stars
    sizes = [edges.shape[1] for edges, _ in stars]
    assert sizes == sorted(set(sizes)) and 0 not in sizes
    seen = []
    for edges, signs in stars:
        assert edges.dtype == np.intp and signs.dtype == float and signs.shape == edges.shape
        vertices = []
        for row, sign in zip(edges.tolist(), signs.tolist()):
            s = g.edges[row[0]][0 if sign[0] < 0 else 1]  # u of the first edge at -1, v at +1
            at_u = [k for k, (u, _) in enumerate(g.edges) if u == s]
            at_v = [k for k, (_, v) in enumerate(g.edges) if v == s]
            assert row == at_u + at_v
            assert sign == [-1.0] * len(at_u) + [1.0] * len(at_v)
            vertices.append(s)
        assert vertices == sorted(vertices)
        seen += vertices
        for a in (edges, signs):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a.flat[0] = 0
    # each vertex with an edge is the row of one star, and no other vertex is
    assert sorted(seen) == [s for s in range(g.n) if any(s in e for e in g.edges)]


def test_turan_rejects_non_divisor():
    with pytest.raises(ValueError):
        turan_graph(10, 4)
    with pytest.raises(ValueError):
        turan_graph(6, 1)


@st.composite
def regular_sizes(draw):
    n = draw(st.integers(1, 16))
    k = draw(st.sampled_from([k for k in range(n) if k * n % 2 == 0]))
    return k, n


@settings(max_examples=200, deadline=None)
@given(size=regular_sizes(), seed=st.integers(0, 2**32 - 1), tag=st.text(max_size=8))
def test_random_regular_graph_is_simple_k_regular_and_fixed_by_its_stream(size, seed, tag):
    k, n = size
    g = random_regular_graph(k, n, rng_stream(seed, tag))
    # Graph itself refuses loops, repeats and vertices outside 0..n-1
    assert g.n == n and g.m == k * n // 2
    assert np.bincount(g.endpoints.ravel(), minlength=n).tolist() == [k] * n
    assert random_regular_graph(k, n, rng_stream(seed, tag)) == g


NO_REGULAR_GRAPH = r"need 0 <= k < n and k\*n even for a k-regular graph"


@pytest.mark.parametrize(
    "k,n,message",
    [
        (6, 6, f"{NO_REGULAR_GRAPH}, got k=6, n=6"),
        (3, 7, f"{NO_REGULAR_GRAPH}, got k=3, n=7"),
        (-1, 6, f"{NO_REGULAR_GRAPH}, got k=-1, n=6"),
        (2, 6.0, "n must be an integer, got 6.0"),
    ],
    ids=["k-equals-n", "k-n-odd", "k-negative", "n-float"],
)
def test_random_regular_graph_refuses_sizes_without_a_graph(k, n, message):
    # k >= n would otherwise re-pair its stubs forever
    with pytest.raises(ValueError, match=f"^{message}$"):
        random_regular_graph(k, n, rng_stream(0, "refused"))


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(3, ((0, 0),))
    with pytest.raises(ValueError):
        Graph(3, ((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        Graph(3, ((1, 2), (0, 1)))  # out of order
    with pytest.raises(ValueError):
        Graph(2, ((0, 2),))
    with pytest.raises(ValueError):
        make_graph(4, [(1, 1)])
    with pytest.raises(ValueError):
        make_graph(4, [(0, 1), (1, 0)])
    # a float or a bool is refused, not truncated
    for build, message in [
        (lambda: make_graph(3, [(0, 1.5), (1, 2)]), "edge endpoint must be an integer, got 1.5"),
        (lambda: Graph(3, ((0.5, 2),)), "edge endpoint must be an integer, got 0.5"),
        (lambda: Graph(2.5, ((0, 1),)), "n must be an integer, got 2.5"),
        (lambda: Graph(True, ()), "n must be an integer, got True"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            build()


def test_edge_list_roundtrip(tmp_path):
    g, _ = turan_graph(6, 3)
    path = tmp_path / "g.edges"
    path.write_text("6 12\n" + "".join(f"{u} {v}\n" for u, v in g.edges))
    assert read_edge_list(path) == g


def test_edge_list_parses_unsorted_input():
    g = parse_edge_list("3 2\n2 1\n1 0\n")
    assert g.edges == ((0, 1), (1, 2))


@pytest.mark.parametrize(
    "text,msg",
    [
        ("", "header"),
        ("3\n", "header"),
        ("3 2\n0 1\n", "declares"),
        ("3 1\n0 3\n", "out of range"),
        ("3 1\nx y\n", "integers"),
        ("3 1\n0\n", "u v"),
    ],
)
def test_edge_list_rejects_malformed(text, msg):
    with pytest.raises(ValueError, match=msg):
        parse_edge_list(text)
