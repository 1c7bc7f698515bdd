"""Shared fixtures: small reference graphs and networks."""

from __future__ import annotations

import gc

import pytest

from repro.congest.network import SyncNetwork
from repro.graphs.core import Graph
from repro.graphs.generators import (
    barbell_graph,
    complete_bipartite,
    complete_graph,
    connected_gnp_graph,
    cycle_graph,
    disjoint_cycles,
    gnp_random_graph,
    random_regular_graph,
)


@pytest.fixture
def gc_enabled():
    """Run the test with the collector on, and leave it as it was."""
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if not was_enabled:
        gc.disable()


@pytest.fixture
def path4() -> Graph:
    return Graph(4, [(0, 1), (1, 2), (2, 3)])


@pytest.fixture
def triangle() -> Graph:
    return Graph(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def star6() -> Graph:
    return Graph(6, [(0, i) for i in range(1, 6)])


@pytest.fixture
def k5() -> Graph:
    return complete_graph(5)


@pytest.fixture
def gnp_small() -> Graph:
    return connected_gnp_graph(60, 0.15, seed=7)


@pytest.fixture
def gnp_medium() -> Graph:
    return connected_gnp_graph(150, 0.12, seed=11)


@pytest.fixture
def gnp_dense() -> Graph:
    return connected_gnp_graph(120, 0.4, seed=13)


@pytest.fixture
def barbell() -> Graph:
    return barbell_graph(12, 4)


@pytest.fixture
def regular_graph() -> Graph:
    return random_regular_graph(60, 6, seed=17)


@pytest.fixture
def cycles_graph() -> Graph:
    return disjoint_cycles(6, 9)


@pytest.fixture
def small_net(gnp_small) -> SyncNetwork:
    return SyncNetwork(gnp_small, rho=1, seed=3)


# -- fault-model seam ---------------------------------------------------------
#
# The shared entry points for adversarial tests: build networks (optionally
# faulted) through one factory instead of ad-hoc constructor calls, and
# parametrize over the whole fault-model vocabulary in one place.


@pytest.fixture
def net_factory():
    """Build a :class:`SyncNetwork`, optionally with failure injection.

    ``build(graph, seed=..., faults="drop:0.1"|FaultModel|None, **kw)`` —
    the single place adversarial tests construct networks, so the fault
    seam is exercised (or explicitly bypassed with ``faults=None``) the
    same way everywhere.
    """
    def build(graph, *, seed=0, faults=None, **kwargs):
        return SyncNetwork(graph, seed=seed, faults=faults, **kwargs)
    return build


@pytest.fixture(params=["drop:0.15", "crash:0.2:6", "adversary:24:2"])
def fault_spec(request) -> str:
    """Each of the three fault models, with deliberately harsh knobs."""
    return request.param


def connected_families(seed: int = 0):
    """A spread of connected test graphs (helper, not a fixture)."""
    return [
        ("path", Graph(8, [(i, i + 1) for i in range(7)])),
        ("cycle", cycle_graph(9)),
        ("star", Graph(9, [(0, i) for i in range(1, 9)])),
        ("complete", complete_graph(10)),
        ("bipartite", complete_bipartite(6, 7)),
        ("barbell", barbell_graph(8, 3)),
        ("gnp-sparse", connected_gnp_graph(50, 0.1, seed=seed + 1)),
        ("gnp-dense", connected_gnp_graph(40, 0.45, seed=seed + 2)),
        ("regular", random_regular_graph(40, 4, seed=seed + 3)),
    ]
