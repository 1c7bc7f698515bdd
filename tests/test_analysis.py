"""Tests for graph analysis helpers."""

import pytest

from repro.graphs.analysis import (
    bfs_distances,
    connected_components,
    degeneracy,
    degree_histogram,
    diameter,
    eccentricity,
    is_connected,
    max_degree,
)
from repro.graphs.core import Graph
from repro.graphs.generators import (
    barbell_graph,
    complete_graph,
    connected_gnp_graph,
    cycle_graph,
    disjoint_cycles,
)


def test_bfs_distances_path(path4):
    assert bfs_distances(path4, 0) == [0, 1, 2, 3]


def test_bfs_unreachable():
    g = Graph(4, [(0, 1)])
    dist = bfs_distances(g, 0)
    assert dist[2] == -1 and dist[3] == -1


def test_connected_components_counts(cycles_graph):
    comps = connected_components(cycles_graph)
    assert len(comps) == 6


@pytest.mark.parametrize("p", [0.0, 0.02, 0.05, 0.1, 0.3])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_connected_components_match_bfs(p, seed):
    """Layer-wise set unions find the components a BFS from each
    smallest unplaced vertex finds, in the same order."""
    from repro.graphs.generators import gnp_random_graph

    g = gnp_random_graph(60, p, seed)
    expected = []
    placed = set()
    for s in range(g.n):
        if s not in placed:
            comp = {v for v, d in enumerate(bfs_distances(g, s)) if d >= 0}
            placed |= comp
            expected.append(comp)
    assert connected_components(g) == expected
    assert is_connected(g) == (len(expected) == 1)


def test_is_connected(path4, cycles_graph):
    assert is_connected(path4)
    assert not is_connected(cycles_graph)


def test_empty_graph_connected():
    assert is_connected(Graph(0, []))


def test_eccentricity_cycle():
    g = cycle_graph(10)
    assert eccentricity(g, 0) == 5


def test_diameter_exact_small():
    assert diameter(cycle_graph(12)) == 6
    assert diameter(complete_graph(8)) == 1
    assert diameter(barbell_graph(5, 4)) == 7


def test_diameter_disconnected_raises(cycles_graph):
    with pytest.raises(ValueError):
        diameter(cycles_graph)


def test_diameter_large_uses_sweeps():
    g = barbell_graph(400, 10)
    # double sweep finds the true diameter of a barbell
    assert diameter(g, exact_threshold=10) == 13


def test_max_degree(star6):
    assert max_degree(star6) == 5


def test_degree_histogram(star6):
    hist = degree_histogram(star6)
    assert hist == {5: 1, 1: 5}


def test_degeneracy_values():
    assert degeneracy(complete_graph(6)) == 5
    assert degeneracy(cycle_graph(9)) == 2
    assert degeneracy(Graph(5, [])) == 0


def test_degeneracy_gnp_bounded():
    g = connected_gnp_graph(80, 0.1, seed=1)
    assert degeneracy(g) <= max_degree(g)
