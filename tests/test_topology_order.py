"""The topology table's ID-ordered neighbor tuples and the KT-2
accessors built on them.

``Topology`` builds every vertex's neighbor IDs in ascending ID order in
one O(n log n + m) pass; the definition is a per-vertex sort by ID value.
``KTKnowledge.ordered_neighborhood_of`` and
``KTKnowledge.neighbor_neighborhoods`` expose that table to node
programs and must answer, and refuse, exactly as ``neighborhood_of``.
"""

from __future__ import annotations

import pytest

from repro.congest.ids import IdAssignment, NodeId, OpaqueId, id_value
from repro.congest.knowledge import Topology
from repro.errors import ModelViolationError
from repro.graphs.core import Graph
from repro.graphs.generators import gnp_random_graph


def id_objects(n, seed, opaque):
    values = IdAssignment.random(n, seed=seed).values()
    if opaque:
        return [OpaqueId(v, salt=seed) for v in values]
    return [NodeId(v) for v in values]


def graphs():
    """Random graphs (sparse ones keep isolated vertices), n=1, n=2."""
    cases = [Graph(1, []), Graph(2, [(0, 1)]), Graph(5, [(1, 3)])]
    for seed in range(6):
        n = 1 + 7 * seed
        for p in (0.05, 0.3, 0.8):
            cases.append(gnp_random_graph(n, p, seed=seed))
    return cases


def by_value(ids):
    return tuple(sorted(ids, key=id_value))


@pytest.mark.parametrize("opaque", [False, True])
def test_neighbor_ids_are_the_per_vertex_sort(opaque):
    for i, graph in enumerate(graphs()):
        ids = id_objects(graph.n, i, opaque)
        table = Topology(graph, 1, ids)
        assert table.neighbor_ids == [
            by_value(ids[u] for u in graph.neighbors(v))
            for v in range(graph.n)
        ]
        # The tuples hold the table's own ID objects, not equal copies.
        assert all(x is ids[table.ports[v][id_value(x)]]
                   for v in range(graph.n) for x in table.neighbor_ids[v])


@pytest.mark.parametrize("opaque", [False, True])
@pytest.mark.parametrize("rho", [2, 3])
def test_ordered_accessors_match_neighborhood_of(opaque, rho):
    for i, graph in enumerate(graphs()):
        ids = id_objects(graph.n, i, opaque)
        for know in Topology(graph, rho, ids).knowledge():
            for u in (know.my_id,) + know.neighbor_ids:
                assert know.ordered_neighborhood_of(u) == by_value(
                    know.neighborhood_of(u))
            assert know.neighbor_neighborhoods() == [
                know.neighborhood_of(u) for u in know.neighbor_ids
            ]


def refusal(call, arg):
    with pytest.raises(ModelViolationError) as exc:
        call(arg)
    return str(exc.value)


@pytest.mark.parametrize("opaque", [False, True])
def test_ordered_accessor_refuses_as_neighborhood_of(opaque):
    graph = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    ids = id_objects(5, 3, opaque)
    kt1 = Topology(graph, 1, ids).knowledge()
    kt2 = Topology(graph, 2, ids).knowledge()
    stranger = OpaqueId(id_value(ids[1]), salt=99)
    cases = [
        (kt1[0], ids[1]),          # KT-1: a neighbor's neighborhood
        (kt2[0], ids[2]),          # KT-2: outside the 1-ball
        (kt2[0], ids[4]),
        (kt2[0], id_value(ids[1])),   # not a NodeId at all
        (kt2[0], "node"),
        (kt2[0], stranger),        # an equal value of another salt
    ]
    for know, arg in cases:
        assert refusal(know.ordered_neighborhood_of, arg) == refusal(
            know.neighborhood_of, arg)


def test_neighbor_neighborhoods_refuses_under_kt1():
    graph = Graph(3, [(0, 1)])
    ids = id_objects(3, 1, False)
    kt1 = Topology(graph, 1, ids).knowledge()
    with pytest.raises(ModelViolationError) as exc:
        kt1[0].neighbor_neighborhoods()
    assert str(exc.value) == refusal(kt1[0].neighborhood_of, ids[1])
    assert kt1[2].neighbor_neighborhoods() == []   # isolated: nothing read

