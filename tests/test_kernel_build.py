"""Columnar kernel builds resolve active sets through the port maps.

``undecided_adjacency`` turns each participant's ``undecided`` ID set
into the ascending vertex list ``ActiveGraph.build`` needs, through the
node's port map (neighbor ID value -> vertex), and takes the graph's row
as is when the set names every neighbor.  These tests hold it equal to
the per-ID definition ``sorted(net.vertex_of(u) for u in undecided)`` on
full, partial and bystander active sets, and check the declines: an
asymmetric active set and an ID outside the node's neighborhood both
send the stage to the scalar path, which raises its own error.
"""

from __future__ import annotations

import random

import pytest

from repro.coloring.johansson import JohanssonListColoring
from repro.congest import columnar
from repro.congest.columnar import undecided_adjacency
from repro.congest.ids import NodeId
from repro.congest.network import SyncNetwork
from repro.congest.runtime import make_scheduler
from repro.errors import ModelViolationError
from repro.graphs.generators import family_graph
from repro.mis.luby import LubyMIS

np = pytest.importorskip("numpy")

KERNEL_CLASSES = [LubyMIS, JohanssonListColoring]


class Stub:
    """The slice of a kernel stage's algorithm a kernel build reads."""

    def __init__(self, undecided, participate=True):
        self.undecided = set(undecided)
        self.participate = participate
        self.palette = frozenset({0, 1, 2})


def _reference(net, algorithms):
    return [sorted(net.vertex_of(u) for u in alg.undecided)
            if alg.participate else [] for alg in algorithms]


def _net(comparison_based, seed=0):
    graph = family_graph("gnp", 30, p=0.3, seed=seed)
    return SyncNetwork(graph, seed=seed, comparison_based=comparison_based)


@pytest.mark.parametrize("comparison_based", [False, True])
def test_full_neighborhoods_take_the_graph_rows(comparison_based):
    net = _net(comparison_based)
    algorithms = [Stub(k.neighbor_ids) for k in net.knowledge]
    adjacency = undecided_adjacency(net, algorithms)
    assert list(map(list, adjacency)) == _reference(net, algorithms)
    assert all(row is net.graph.neighbors(v)
               for v, row in enumerate(adjacency))


@pytest.mark.parametrize("comparison_based", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_partial_and_bystander_sets_match_the_definition(comparison_based,
                                                         seed):
    net = _net(comparison_based, seed)
    rng = random.Random(seed)
    algorithms = []
    for k in net.knowledge:
        ids = list(k.neighbor_ids)
        rng.shuffle(ids)
        algorithms.append(Stub(ids[:rng.randrange(len(ids) + 1)],
                               participate=rng.random() < 0.8))
    adjacency = undecided_adjacency(net, algorithms)
    assert list(map(list, adjacency)) == _reference(net, algorithms)


@pytest.mark.parametrize("cls", KERNEL_CLASSES)
def test_asymmetric_active_set_declines(cls):
    net = _net(False)
    algorithms = [Stub(k.neighbor_ids) for k in net.knowledge]
    u = net.graph.neighbors(0)[0]
    algorithms[u].undecided.discard(net.id_of(0))
    assert undecided_adjacency(net, algorithms) is not None
    assert cls.build_columnar_kernel(net, algorithms, None) is None


def _foreign_ids(net):
    """An ID of a vertex not adjacent to vertex 0, an ID value no vertex
    has, and something that is not an ID at all."""
    far = next(w for w in range(1, net._n)
               if w not in net.graph.neighbors(0))
    absent = max(net.assignment.values()) + 1
    return [net.id_of(far), NodeId(absent), "not an id"]


@pytest.mark.parametrize("cls", KERNEL_CLASSES)
def test_id_outside_the_neighborhood_declines(cls):
    net = _net(False)
    for foreign in _foreign_ids(net):
        algorithms = [Stub(k.neighbor_ids) for k in net.knowledge]
        algorithms[0].undecided.add(foreign)
        assert undecided_adjacency(net, algorithms) is None
        assert cls.build_columnar_kernel(net, algorithms, None) is None


def test_scalar_path_raises_its_own_error(monkeypatch):
    """A stage whose kernel build declines on a non-neighbor ID raises
    the scalar send path's error, the same under both schedulers."""
    declined = []

    def spy(net, algorithms):
        result = undecided_adjacency(net, algorithms)
        declined.append(result is None)
        return result

    monkeypatch.setattr(columnar, "undecided_adjacency", spy)
    errors = {}
    for scheduler in ("rounds", "columnar"):
        net = SyncNetwork(family_graph("gnp", 30, p=0.3, seed=0), seed=0,
                          scheduler=make_scheduler(scheduler))
        foreign = _foreign_ids(net)[0]

        class Stray(LubyMIS):
            def setup(self, ctx):
                super().setup(ctx)
                if ctx.my_id == net.id_of(0):
                    self.undecided.add(foreign)

        with pytest.raises(ModelViolationError) as info:
            net.run(Stray)
        errors[scheduler] = (type(info.value), str(info.value))
    assert declined == [True]
    assert errors["columnar"] == errors["rounds"]
