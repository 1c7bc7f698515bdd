"""KT-rho knowledge computed on demand from one per-network table.

Checks the lazy :mod:`repro.congest.knowledge` against a brute-force BFS
reference on random small graphs, pins its error contract (distances,
non-ID arguments, IDs outside the (rho - 1)-ball) and bounds the memory
KT-2 knowledge takes on a high-degree star.
"""

from __future__ import annotations

import tracemalloc
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.congest.ids import NodeId
from repro.congest.knowledge import build_knowledge
from repro.congest.network import SyncNetwork
from repro.errors import ModelViolationError, ReproError
from repro.graphs.core import Graph


def distances(graph: Graph, source: int) -> dict[int, int]:
    """Hop distance from ``source`` to every vertex it reaches."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in graph.neighbors(u):
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


@given(
    n=st.integers(1, 10),
    rho=st.sampled_from([1, 2, 3]),
    comparison_based=st.booleans(),
    seed=st.integers(0, 10**6),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_lazy_knowledge_matches_bfs_reference(n, rho, comparison_based,
                                              seed, data):
    pairs = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=2 * n,
    ))
    graph = Graph(n, [(u, v) for u, v in pairs if u != v])
    net = SyncNetwork(graph, rho=rho, seed=seed,
                      comparison_based=comparison_based)
    id_of = net.id_of
    # Query vertices in a drawn order: what a node may read must not
    # depend on which caches earlier queries filled.
    for v in data.draw(st.permutations(range(n))):
        know = net.knowledge[v]
        dist = distances(graph, v)
        expected_nbrs = sorted(graph.neighbors(v), key=net.assignment.value_of)
        assert know.neighbor_ids == tuple(id_of(u) for u in expected_nbrs)
        for d in range(rho + 1):
            assert know.ids_at(d) == frozenset(
                id_of(u) for u, du in dist.items() if du == d)
            assert know.ids_within(d) == frozenset(
                id_of(u) for u, du in dist.items() if 1 <= du <= d)
        with pytest.raises(ModelViolationError):
            know.ids_at(rho + 1)
        with pytest.raises(ModelViolationError):
            know.ids_within(rho + 1)
        for u in data.draw(st.permutations(range(n))):
            in_ball = dist.get(u, rho) <= rho - 1
            assert know.knows_neighborhood_of(id_of(u)) == in_ball
            if in_ball:
                assert know.neighborhood_of(id_of(u)) == frozenset(
                    id_of(w) for w in graph.neighbors(u))
            else:
                with pytest.raises(ModelViolationError):
                    know.neighborhood_of(id_of(u))


@pytest.mark.parametrize("query, distance", [
    ("ids_at", -1), ("ids_at", -2), ("ids_within", -1), ("ids_within", -3),
])
def test_negative_distance_is_rejected(query, distance):
    graph = Graph(4, [(0, 1), (1, 2), (2, 3)])
    know = build_knowledge(graph, 2, NodeId)
    with pytest.raises(ReproError, match=str(distance)):
        getattr(know[0], query)(distance)


@pytest.mark.parametrize("rho", [1, 2, 3])
@pytest.mark.parametrize("arg", [3, [3]], ids=["int", "list"])
@pytest.mark.parametrize("query", ["neighborhood_of",
                                   "knows_neighborhood_of"])
def test_non_id_argument_is_a_model_violation(query, arg, rho):
    graph = Graph(4, [(0, 1), (1, 2), (2, 3)])
    net = SyncNetwork(graph, rho=rho, seed=1)
    with pytest.raises(ModelViolationError, match=type(arg).__name__):
        getattr(net.knowledge[1], query)(arg)


@pytest.mark.parametrize("rho", [1, 2, 3])
def test_equal_valued_foreign_id_is_not_known(rho):
    """An ID object the network did not hand out — a plain NodeId on a
    comparison-based network — is not known, even with a known value."""
    graph = Graph(4, [(0, 1), (1, 2), (2, 3)])
    net = SyncNetwork(graph, rho=rho, seed=1, comparison_based=True)
    know = net.knowledge[1]
    for v in (1, 2):
        foreign = NodeId(net.assignment.value_of(v))
        assert not know.knows_neighborhood_of(foreign)
        with pytest.raises(ModelViolationError):
            know.neighborhood_of(foreign)
    assert know.knows_neighborhood_of(net.id_of(1))


def test_kt2_star_knowledge_takes_linear_memory():
    leaves = 3000
    star = Graph(leaves + 1, [(0, v) for v in range(1, leaves + 1)])
    ids = [NodeId(7 + v) for v in range(leaves + 1)]
    tracemalloc.start()
    try:
        know = build_knowledge(star, 2, ids.__getitem__)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, f"KT-2 knowledge peaked at {peak} bytes"
    assert know[1].neighborhood_of(ids[0]) == frozenset(ids[1:])
    assert know[1].ids_at(2) == frozenset(ids[2:])
