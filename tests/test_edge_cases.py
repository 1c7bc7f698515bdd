"""Assorted edge cases across modules (small graphs, degenerate inputs)."""

import pytest

from repro import api
from repro.coloring.algorithm1 import run_algorithm1
from repro.congest.network import SyncNetwork
from repro.errors import ReproError
from repro.graphs.analysis import subgraph_diameter
from repro.graphs.core import Graph
from repro.graphs.generators import complete_graph, cycle_graph
from repro.substrates.flooding import (
    ChunkedTreeBroadcast,
    FloodPayload,
    elect_leader_and_tree,
)
from repro.util.bitstrings import BitString


def test_subgraph_diameter():
    g = cycle_graph(10)
    assert subgraph_diameter(g, range(10)) == 5
    # a path segment of the cycle
    assert subgraph_diameter(g, [0, 1, 2, 3]) == 3


def test_flood_payload_multiple_initiators():
    """Concurrent initiators with the same payload: everyone converges."""
    g = complete_graph(8)
    net = SyncNetwork(g, seed=1)
    inputs = [
        {"active": None, "payload": "go" if v in (0, 5) else None}
        for v in range(8)
    ]
    res = net.run(FloodPayload, inputs=inputs)
    assert all(o == "go" for o in res.outputs)


def test_chunked_broadcast_single_node():
    g = Graph(1, [])
    net = SyncNetwork(g, seed=2)
    payload = BitString((1, 0, 1))
    res = net.run(
        lambda: ChunkedTreeBroadcast(chunk_bits=2),
        inputs=[{"parent": None, "children": frozenset(),
                 "payload": payload}],
    )
    assert res.outputs[0] == payload


def test_chunked_broadcast_empty_tolerated():
    """A zero-length payload still terminates (single empty chunk)."""
    g = Graph(2, [(0, 1)])
    net = SyncNetwork(g, seed=3)
    leader, parents, children = elect_leader_and_tree(net, None)
    root = net.vertex_of(leader)
    payload = BitString((1,))
    inputs = [
        {"parent": parents[v], "children": children[v],
         "payload": payload if v == root else None}
        for v in range(2)
    ]
    res = net.run(lambda: ChunkedTreeBroadcast(chunk_bits=8), inputs=inputs)
    assert all(o == payload for o in res.outputs)


def test_two_node_algorithms():
    """Every headline algorithm on the smallest nontrivial graph."""
    from repro.coloring.algorithm1 import run_algorithm1
    from repro.coloring.algorithm2 import run_algorithm2
    from repro.mis.algorithm3 import run_algorithm3
    from repro.mis.verify import check_mis

    g = Graph(2, [(0, 1)])
    r1 = run_algorithm1(SyncNetwork(g, seed=4), seed=5)
    assert sorted(r1.colors) == [0, 1]

    r2 = run_algorithm2(SyncNetwork(g, seed=6), epsilon=0.5, seed=7)
    assert r2.colors[0] != r2.colors[1]

    r3 = run_algorithm3(SyncNetwork(g, rho=2, seed=8), seed=9)
    check_mis(g, r3.in_mis)


def test_star_graph_algorithms():
    """High-degree hub + leaves: a danner worst case for light/heavy."""
    from repro.coloring.algorithm1 import run_algorithm1
    from repro.coloring.verify import check_proper_coloring

    g = Graph(30, [(0, i) for i in range(1, 30)])
    net = SyncNetwork(g, seed=10)
    r = run_algorithm1(net, seed=11)
    check_proper_coloring(g, r.colors)
    # leaves all get a color != hub's; only 2 colors necessary
    assert len(set(r.colors)) <= 3


def test_triangle_mis_unique_winner():
    from repro.mis.algorithm3 import run_algorithm3
    from repro.mis.verify import check_mis

    g = complete_graph(3)
    r = run_algorithm3(SyncNetwork(g, rho=2, seed=12), seed=13)
    check_mis(g, r.in_mis)
    assert sum(r.in_mis) == 1


@pytest.mark.parametrize("max_levels", [0, -1])
def test_algorithm1_rejects_max_levels_below_one(max_levels):
    """With no level to run, Algorithm 1 used to return all-None colors."""
    g = complete_graph(6)
    net = SyncNetwork(g, seed=1)
    with pytest.raises(ReproError, match="max_levels"):
        run_algorithm1(net, seed=1, max_levels=max_levels)
    assert net.stats.messages == 0
    with pytest.raises(ReproError, match="max_levels"):
        api.color_graph(g, method="kt1-delta-plus-one", seed=1,
                        max_levels=max_levels)


def test_engine_rejects_rho_zero():
    from repro.errors import ReproError

    with pytest.raises(ReproError):
        SyncNetwork(Graph(2, [(0, 1)]), rho=0)


def test_word_bits_scale_with_id_space():
    small = SyncNetwork(Graph(4, [(0, 1)]), seed=14)
    big_assignment_net = SyncNetwork(
        Graph(4, [(0, 1)]),
        assignment=__import__("repro.congest.ids",
                              fromlist=["IdAssignment"]).IdAssignment(
            [1, 2, 3, 10**9]),
        seed=15,
    )
    assert big_assignment_net.word_bits > small.word_bits
