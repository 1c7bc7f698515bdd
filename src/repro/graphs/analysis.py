"""Graph analysis helpers (components, diameter, degrees).

Pure-Python BFS implementations: fast enough for the benchmark sizes and
free of networkx on the simulator's dependency path.  networkx remains
available through :meth:`repro.graphs.Graph.to_networkx` for anything more
exotic in notebooks.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from repro.graphs.core import Graph


def bfs_distances(g: Graph, source: int) -> list[int]:
    """Distances from ``source``; unreachable vertices get -1."""
    dist = [-1] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in g.neighbors(u):
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def _component(g: Graph, source: int) -> set[int]:
    """The vertices reachable from ``source``, grown by whole BFS
    layers: a layer's neighbors are one C-level set union, so no Python
    frame runs per neighbor."""
    nbrs = g.neighbors
    comp = {source}
    frontier = comp
    while frontier:
        frontier = set().union(*map(nbrs, frontier))
        frontier -= comp
        comp |= frontier
    return comp


def connected_components(g: Graph) -> list[set[int]]:
    """Connected components as vertex sets, in order of smallest member."""
    placed: set[int] = set()
    components: list[set[int]] = []
    for s in range(g.n):
        if s not in placed:
            comp = _component(g, s)
            placed |= comp
            components.append(comp)
    return components


def is_connected(g: Graph) -> bool:
    return g.n == 0 or len(_component(g, 0)) == g.n


def eccentricity(g: Graph, v: int) -> int:
    dist = bfs_distances(g, v)
    finite = [d for d in dist if d >= 0]
    return max(finite)


def diameter(g: Graph, exact_threshold: int = 600, seed: int = 0) -> int:
    """Diameter of a connected graph.

    Exact (all-pairs BFS) below ``exact_threshold`` vertices; otherwise a
    standard double-sweep lower bound refined from a handful of extra BFS
    sweeps, which is exact on the benchmark families in practice.
    """
    if g.n == 0:
        return 0
    if not is_connected(g):
        raise ValueError("diameter undefined for disconnected graphs")
    if g.n <= exact_threshold:
        return max(eccentricity(g, v) for v in range(g.n))
    import random

    rng = random.Random(seed)
    best = 0
    start = 0
    for _ in range(6):
        dist = bfs_distances(g, start)
        far = max(range(g.n), key=lambda v: dist[v])
        best = max(best, dist[far])
        start = far if dist[far] > 0 else rng.randrange(g.n)
    return best


def subgraph_diameter(g: Graph, vertices: Iterable[int]) -> int:
    """Diameter of an induced subgraph (must be connected)."""
    return diameter(g.subgraph(vertices))


def max_degree(g: Graph) -> int:
    return g.max_degree()


def degree_histogram(g: Graph) -> dict[int, int]:
    hist: dict[int, int] = {}
    for v in range(g.n):
        d = g.degree(v)
        hist[d] = hist.get(d, 0) + 1
    return hist


def degeneracy(g: Graph) -> int:
    """Graph degeneracy via the standard bucket peeling algorithm."""
    if g.n == 0:
        return 0
    degree = [g.degree(v) for v in range(g.n)]
    max_deg = max(degree, default=0)
    buckets: list[set[int]] = [set() for _ in range(max_deg + 1)]
    for v in range(g.n):
        buckets[degree[v]].add(v)
    removed = [False] * g.n
    degen = 0
    for _ in range(g.n):
        d = next(i for i, b in enumerate(buckets) if b)
        degen = max(degen, d)
        v = buckets[d].pop()
        removed[v] = True
        for u in g.neighbors(v):
            if not removed[u]:
                buckets[degree[u]].discard(u)
                degree[u] -= 1
                buckets[degree[u]].add(u)
    return degen
