"""Tests for flooding/tree stages (the Corollary 1.2 toolkit)."""

import pytest

from repro.congest.network import SyncNetwork
from repro.errors import ProtocolError
from repro.substrates.flooding import (
    AdoptParents,
    ChunkedTreeBroadcast,
    FloodLeaderElect,
    FloodPayload,
    ShareRandomBits,
    TreeAggregate,
    TreeBroadcast,
    elect_leader_and_tree,
)
from repro.util.bitstrings import BitString


def elect(net):
    n = net.graph.n
    return elect_leader_and_tree(net, [None] * n)


def test_leader_is_global_max(gnp_small):
    net = SyncNetwork(gnp_small, seed=1)
    leader, parents, children = elect(net)
    max_id = max(net.id_of(v) for v in range(gnp_small.n))
    assert leader == max_id


def test_parents_form_tree_toward_leader(gnp_small):
    net = SyncNetwork(gnp_small, seed=2)
    leader, parents, children = elect(net)
    root = net.vertex_of(leader)
    assert parents[root] is None
    # every other vertex reaches the root via parents, acyclically
    for v in range(gnp_small.n):
        seen = set()
        cur = v
        while parents[cur] is not None:
            assert cur not in seen
            seen.add(cur)
            cur = net.vertex_of(parents[cur])
        assert cur == root


def test_children_match_parents(gnp_small):
    net = SyncNetwork(gnp_small, seed=3)
    leader, parents, children = elect(net)
    for v in range(gnp_small.n):
        p = parents[v]
        if p is not None:
            assert net.id_of(v) in children[net.vertex_of(p)]
    total_children = sum(len(c) for c in children)
    assert total_children == gnp_small.n - 1


def test_flood_respects_active_subgraph(barbell):
    """Election restricted to one clique never crosses the bridge."""
    net = SyncNetwork(barbell, seed=4)
    n = barbell.n
    left = set(range(12))
    active = []
    for v in range(n):
        if v in left:
            ids = frozenset(
                net.id_of(u) for u in barbell.neighbors(v) if u in left
            )
        else:
            ids = frozenset()
        active.append(ids)
    stage = net.run(FloodLeaderElect, inputs=active, name="left-only")
    leaders = {out["leader"] for v, out in enumerate(stage.outputs)
               if v in left}
    assert leaders == {max(net.id_of(v) for v in left)}


def test_tree_broadcast(gnp_small):
    net = SyncNetwork(gnp_small, seed=5)
    leader, parents, children = elect(net)
    root = net.vertex_of(leader)
    inputs = [
        {"parent": parents[v], "children": children[v],
         "payload": 42 if v == root else None}
        for v in range(gnp_small.n)
    ]
    res = net.run(TreeBroadcast, inputs=inputs)
    assert all(o == 42 for o in res.outputs)


def test_tree_broadcast_no_payload_raises(path4):
    net = SyncNetwork(path4, seed=6)
    leader, parents, children = elect(net)
    inputs = [
        {"parent": parents[v], "children": children[v], "payload": None}
        for v in range(4)
    ]
    with pytest.raises(ProtocolError):
        net.run(TreeBroadcast, inputs=inputs)


def test_tree_aggregate_sum(gnp_small):
    net = SyncNetwork(gnp_small, seed=7)
    leader, parents, children = elect(net)
    inputs = [
        {"parent": parents[v], "children": children[v], "value": v}
        for v in range(gnp_small.n)
    ]
    res = net.run(lambda: TreeAggregate(), inputs=inputs)
    expected = sum(range(gnp_small.n))
    assert all(o == expected for o in res.outputs)


def test_tree_aggregate_max(gnp_small):
    net = SyncNetwork(gnp_small, seed=8)
    leader, parents, children = elect(net)
    inputs = [
        {"parent": parents[v], "children": children[v],
         "value": gnp_small.degree(v)}
        for v in range(gnp_small.n)
    ]
    res = net.run(lambda: TreeAggregate(combine=max), inputs=inputs)
    assert all(o == gnp_small.max_degree() for o in res.outputs)


def test_tree_aggregate_message_cost_linear(gnp_small):
    net = SyncNetwork(gnp_small, seed=9)
    leader, parents, children = elect(net)
    before = net.stats.messages
    inputs = [
        {"parent": parents[v], "children": children[v], "value": 1}
        for v in range(gnp_small.n)
    ]
    net.run(lambda: TreeAggregate(), inputs=inputs, name="count")
    cost = net.stats.messages - before
    # one agg + one echo per tree edge
    assert cost == 2 * (gnp_small.n - 1)


def test_flood_payload(gnp_small):
    net = SyncNetwork(gnp_small, seed=10)
    inputs = [{"active": None, "payload": "hi" if v == 0 else None}
              for v in range(gnp_small.n)]
    res = net.run(FloodPayload, inputs=inputs)
    assert all(o == "hi" for o in res.outputs)
    # one payload per active edge direction
    assert net.stats.sends == 2 * gnp_small.m


def test_chunked_broadcast_reassembles(gnp_small):
    net = SyncNetwork(gnp_small, seed=11)
    leader, parents, children = elect(net)
    root = net.vertex_of(leader)
    payload = BitString(tuple((i * 7 + 3) % 2 for i in range(500)))
    inputs = [
        {"parent": parents[v], "children": children[v],
         "payload": payload if v == root else None}
        for v in range(gnp_small.n)
    ]
    res = net.run(lambda: ChunkedTreeBroadcast(chunk_bits=48), inputs=inputs)
    assert all(o == payload for o in res.outputs)


def test_chunked_broadcast_pipelines_rounds(barbell):
    """Pipelined rounds ~ depth + chunks, far below depth * chunks."""
    net = SyncNetwork(barbell, seed=12)
    leader, parents, children = elect(net)
    root = net.vertex_of(leader)
    nbits = 2000
    payload = BitString(tuple(i % 2 for i in range(nbits)))
    inputs = [
        {"parent": parents[v], "children": children[v],
         "payload": payload if v == root else None}
        for v in range(barbell.n)
    ]
    before = net.stats.rounds
    res = net.run(lambda: ChunkedTreeBroadcast(chunk_bits=48), inputs=inputs)
    rounds = net.stats.rounds - before
    chunks = -(-nbits // 48)
    depth = barbell.n  # generous
    assert rounds < 4 * chunks + depth


def test_share_random_bits_agreement(gnp_small):
    net = SyncNetwork(gnp_small, seed=13)
    leader, parents, children = elect(net)
    inputs = [{"parent": parents[v], "children": children[v]}
              for v in range(gnp_small.n)]
    res = net.run(lambda: ShareRandomBits(256), inputs=inputs)
    assert all(o == res.outputs[0] for o in res.outputs)
    assert len(res.outputs[0]) == 256


@pytest.mark.parametrize("stage", ["share-bits", "chunked"])
def test_empty_payload_reaches_every_node(stage):
    """A zero-length string still ends with every node holding it: the
    root streams one empty "bce" chunk, one 1-word message per tree
    edge."""
    from repro.graphs.generators import connected_gnp_graph
    from repro.substrates.danner import build_danner

    graph = connected_gnp_graph(30, 0.3, seed=14)
    net = SyncNetwork(graph, seed=14)
    danner = build_danner(net, seed=14)
    inputs = danner.tree_inputs()
    if stage == "share-bits":
        factory = lambda: ShareRandomBits(0)  # noqa: E731
    else:
        inputs[danner.leader_vertex]["payload"] = BitString(())
        factory = ChunkedTreeBroadcast
    before = (net.stats.messages, net.stats.words)
    res = net.run(factory, inputs=inputs)
    assert res.outputs == [BitString(())] * graph.n
    edges = graph.n - 1
    assert (net.stats.messages, net.stats.words) == (
        before[0] + edges, before[1] + edges)
