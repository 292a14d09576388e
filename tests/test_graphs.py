import importlib
import math

import numpy as np
import pytest

from adconn.graphs import (
    Graph,
    complete_graph,
    make_graph,
    parse_edge_list,
    read_edge_list,
    remove_edge,
    turan_graph,
    write_edge_list,
)


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
        with pytest.raises(ValueError, match=f"n must be >= 1, got {n}"):
            complete_graph(n)


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


def test_turan_rejects_non_divisor():
    with pytest.raises(ValueError):
        turan_graph(10, 4)
    with pytest.raises(ValueError):
        turan_graph(6, 1)


def test_remove_edge():
    g = remove_edge(complete_graph(3), (0, 1))
    assert g.edges == ((0, 2), (1, 2))
    g4 = remove_edge(complete_graph(4), (2, 3))
    assert g4.m == 5
    assert list(g4.edges) == sorted(g4.edges)
    with pytest.raises(ValueError):
        remove_edge(g4, (2, 3))


def test_remove_edge_accepts_reversed_pair():
    g = remove_edge(complete_graph(3), (1, 0))
    assert g.edges == ((0, 2), (1, 2))


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


def test_edge_list_roundtrip(tmp_path):
    g, _ = turan_graph(6, 3)
    path = tmp_path / "g.edges"
    write_edge_list(g, path)
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
