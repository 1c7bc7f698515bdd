"""Unit tests for the Graph substrate."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.graphs.core import Graph


def test_empty_graph():
    g = Graph(0, [])
    assert g.n == 0
    assert g.m == 0
    assert list(g.vertices()) == []


def test_single_vertex():
    g = Graph(1, [])
    assert g.degree(0) == 0
    assert g.neighbors(0) == ()


def test_basic_edges(path4):
    assert path4.m == 3
    assert path4.neighbors(1) == (0, 2)
    assert path4.degree(0) == 1
    assert path4.degree(1) == 2


def test_duplicate_edges_collapse():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.m == 1


def test_self_loop_rejected():
    with pytest.raises(ReproError):
        Graph(3, [(1, 1)])


def test_out_of_range_rejected():
    with pytest.raises(ReproError):
        Graph(3, [(0, 3)])


def test_negative_n_rejected():
    with pytest.raises(ReproError):
        Graph(-1, [])


def test_has_edge(path4):
    assert path4.has_edge(0, 1)
    assert path4.has_edge(1, 0)
    assert not path4.has_edge(0, 2)
    assert (1, 2) in path4
    assert (0, 3) not in path4


def test_edges_canonical_sorted(triangle):
    assert triangle.edges() == ((0, 1), (0, 2), (1, 2))


def test_max_degree(star6):
    assert star6.max_degree() == 5


def test_equality_and_hash():
    a = Graph(3, [(0, 1), (1, 2)])
    b = Graph(3, [(1, 2), (0, 1)])
    c = Graph(3, [(0, 1)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != c


def test_subgraph_relabels(path4):
    sub = path4.subgraph([1, 2, 3])
    assert sub.n == 3
    assert sub.edges() == ((0, 1), (1, 2))


def test_subgraph_with_mapping(path4):
    sub, mapping = path4.subgraph_with_mapping([0, 2, 3])
    assert mapping == {0: 0, 2: 1, 3: 2}
    assert sub.edges() == ((1, 2),)


def test_induced_edge_count(k5):
    assert k5.induced_edge_count([0, 1, 2]) == 3
    assert k5.induced_edge_count([0]) == 0
    assert k5.induced_edge_count(range(5)) == 10


def test_union_disjoint(triangle, path4):
    u = triangle.union_disjoint(path4)
    assert u.n == 7
    assert u.m == triangle.m + path4.m
    assert u.has_edge(3, 4)
    assert not u.has_edge(2, 3)


def test_with_edges_add_remove(path4):
    g = path4.with_edges(added=[(0, 3)], removed=[(1, 2)])
    assert g.has_edge(0, 3)
    assert not g.has_edge(1, 2)
    assert g.m == 3


def test_with_edges_remove_absent_raises(path4):
    with pytest.raises(ReproError):
        path4.with_edges(removed=[(0, 2)])


def test_to_networkx_roundtrip(gnp_small):
    nxg = gnp_small.to_networkx()
    assert nxg.number_of_nodes() == gnp_small.n
    assert nxg.number_of_edges() == gnp_small.m


@given(st.integers(2, 30), st.data())
@settings(max_examples=40, deadline=None)
def test_degree_sum_equals_twice_edges(n, data):
    pairs = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=3 * n,
    ))
    edges = [(u, v) for u, v in pairs if u != v]
    g = Graph(n, edges)
    assert sum(g.degree(v) for v in range(n)) == 2 * g.m


@given(st.integers(2, 20), st.data())
@settings(max_examples=30, deadline=None)
def test_neighbors_symmetric(n, data):
    pairs = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=2 * n,
    ))
    g = Graph(n, [(u, v) for u, v in pairs if u != v])
    for u in range(n):
        for v in g.neighbors(u):
            assert u in g.neighbors(v)


def test_with_edges_removes_several_edges(k5):
    g = k5.with_edges(removed=[(0, 1), (3, 2), (4, 0)])
    assert g.m == 7
    assert not g.has_edge(0, 1) and not g.has_edge(2, 3)
    assert not g.has_edge(0, 4)
    assert g.has_edge(1, 2)


@pytest.mark.parametrize("edge, shown", [((2, 0), "(0, 2)"),
                                         ((-1, 2), "(-1, 2)"),
                                         ((3, 4), "(3, 4)"),
                                         ((2, 2), "(2, 2)")])
def test_with_edges_reports_the_absent_edge_among_present_ones(path4, edge, shown):
    with pytest.raises(ReproError, match=f"cannot remove absent edge {re.escape(shown)}"):
        path4.with_edges(removed=[(1, 0), edge, (3, 2)])


# -- construction pins ----------------------------------------------------------

# pickle.dumps(Graph(...)) recorded before construction moved to int edge
# keys: duplicate and reversed input edges, isolated vertices, and a
# one-shot iterator must all give the same bytes.
_PICKLE_PINS = [
    (
        5, [(1, 0), (0, 1), (3, 2), (2, 3), (4, 0), (0, 4), (1, 0), (2, 4)],
        b"\x80\x04\x95x\x00\x00\x00\x00\x00\x00\x00\x8c\x11repro.graphs.core"
        b"\x94\x8c\x05Graph\x94\x93\x94)\x81\x94N}\x94(\x8c\x01n\x94K\x05\x8c"
        b"\x04_adj\x94(K\x01K\x04\x86\x94K\x00\x85\x94K\x03K\x04\x86\x94K\x02"
        b"\x85\x94K\x00K\x02\x86\x94t\x94\x8c\x06_edges\x94(K\x00K\x01\x86\x94"
        b"K\x00K\x04\x86\x94K\x02K\x03\x86\x94K\x02K\x04\x86\x94t\x94u\x86\x94b.",
    ),
    (
        6, iter([(5, 1), (1, 5), (3, 1), (1, 3), (5, 3)]),
        b"\x80\x04\x95l\x00\x00\x00\x00\x00\x00\x00\x8c\x11repro.graphs.core"
        b"\x94\x8c\x05Graph\x94\x93\x94)\x81\x94N}\x94(\x8c\x01n\x94K\x06\x8c"
        b"\x04_adj\x94()K\x03K\x05\x86\x94)K\x01K\x05\x86\x94)K\x01K\x03\x86"
        b"\x94t\x94\x8c\x06_edges\x94K\x01K\x03\x86\x94K\x01K\x05\x86\x94K\x03"
        b"K\x05\x86\x94\x87\x94u\x86\x94b.",
    ),
]


@pytest.mark.parametrize("n, edges, expected", _PICKLE_PINS)
def test_graph_pickle_is_pinned(n, edges, expected):
    import pickle

    assert pickle.dumps(Graph(n, edges)) == expected


def _reference_graph_state(n, edges):
    """(adj, edges) built the straightforward way: tuple sets, then sort."""
    adj = [set() for _ in range(n)]
    canonical = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ReproError(f"edge ({u}, {v}) out of range for n={n}")
        if u == v:
            raise ReproError(f"self-loop at vertex {u} not allowed")
        canonical.add((u, v) if u < v else (v, u))
    for u, v in canonical:
        adj[u].add(v)
        adj[v].add(u)
    return (tuple(tuple(sorted(a)) for a in adj), tuple(sorted(canonical)))


def _outcome(build):
    try:
        return build()
    except ReproError as exc:
        return ("error", str(exc))


@given(st.integers(0, 40), st.data())
@settings(max_examples=80, deadline=None)
def test_graph_matches_reference_construction(n, data):
    # vertices in [-2, n + 1] so some lists carry a bad edge (possibly
    # several: the first in input order must be the one reported)
    vertex = st.integers(-2, n + 1)
    edges = data.draw(st.lists(st.tuples(vertex, vertex), max_size=4 * n + 4))
    if data.draw(st.booleans()):
        edges = [(u, v) for u, v in edges if 0 <= u < n and 0 <= v < n and u != v]

    def built():
        g = Graph(n, iter(edges))
        return (g._adj, g._edges)

    assert _outcome(built) == _outcome(lambda: _reference_graph_state(n, edges))
