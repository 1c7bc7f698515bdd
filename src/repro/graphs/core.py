"""A minimal immutable undirected graph over vertices 0..n-1.

Designed for the simulator's hot paths: neighbor lists are tuples of ints,
edges are canonical ``(min, max)`` pairs, and everything is precomputed at
construction time.

Construction canonicalises each edge ``{u, v}`` to the int key
``min * n + max`` in a set of ints, so duplicates and reversed pairs
collapse without building a tuple per input edge.  The keys are sorted
once, and ``divmod(key, n)`` turns them back into the sorted ``(min, max)``
edge tuple.  The adjacency lists are then filled by walking that sorted
edge tuple: every edge ``(u, x)`` with ``u < x`` precedes every edge
``(x, w)``, and both runs are in increasing order, so vertex ``x`` receives
its smaller neighbors in order, then its larger ones in order.  Each list
comes out sorted, with no per-vertex sort.

A generator that already produces sorted adjacency lists (G(n, p) draws
its edges row by row, in increasing order) skips all of that through
:meth:`Graph._from_sorted_adjacency`, which only derives ``_edges``.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable, Iterator

from repro.errors import ReproError


class Graph:
    """An undirected simple graph on vertices ``0 .. n-1``."""

    __slots__ = ("n", "_adj", "_edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]]):
        if n < 0:
            raise ReproError("vertex count must be non-negative")
        keys: set[int] = set()
        add = keys.add
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ReproError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ReproError(f"self-loop at vertex {u} not allowed")
            add(u * n + v if u < v else v * n + u)
        canonical = tuple(map(divmod, sorted(keys), repeat(n)))
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in canonical:
            adj[u].append(v)
            adj[v].append(u)
        self.n = n
        self._adj: tuple[tuple[int, ...], ...] = tuple(map(tuple, adj))
        self._edges: tuple[tuple[int, int], ...] = canonical

    @classmethod
    def _from_sorted_adjacency(cls, n: int, adj: list[list[int]]) -> "Graph":
        """The graph whose neighbor lists are ``adj``, without validation.

        The caller guarantees what ``__init__`` would establish: each
        ``adj[v]`` is sorted, free of duplicates and of ``v``, and ``w``
        is in ``adj[v]`` exactly when ``v`` is in ``adj[w]``.  The
        canonical edges are then each row's larger neighbors, in order.
        """
        g = cls.__new__(cls)
        g.n = n
        g._adj = tuple(map(tuple, adj))
        g._edges = tuple([(u, v) for u, row in enumerate(g._adj)
                          for v in row if v > u])
        return g

    # -- basic accessors ----------------------------------------------------

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self._edges)

    def vertices(self) -> range:
        return range(self.n)

    def edges(self) -> tuple[tuple[int, int], ...]:
        """All edges as canonical (min, max) pairs, sorted."""
        return self._edges

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def max_degree(self) -> int:
        return max((len(a) for a in self._adj), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adj[u] if len(self._adj[u]) < len(self._adj[v]) else u in self._adj[v]

    def __contains__(self, edge: tuple[int, int]) -> bool:
        u, v = edge
        return self.has_edge(u, v)

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.n))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self.n, self._edges))

    # -- derived graphs ------------------------------------------------------

    def subgraph(self, vertices: Iterable[int]) -> "Graph":
        """Induced subgraph, re-labelled to 0..k-1 in sorted vertex order.

        Returns the new Graph; use :meth:`subgraph_with_mapping` when the
        original labels are needed.
        """
        sub, _ = self.subgraph_with_mapping(vertices)
        return sub

    def subgraph_with_mapping(
        self, vertices: Iterable[int]
    ) -> tuple["Graph", dict[int, int]]:
        """Induced subgraph plus the old-vertex -> new-vertex mapping."""
        keep = sorted(set(vertices))
        index = {v: i for i, v in enumerate(keep)}
        keep_set = set(keep)
        edges = [
            (index[u], index[v])
            for u, v in self._edges
            if u in keep_set and v in keep_set
        ]
        return Graph(len(keep), edges), index

    def induced_edge_count(self, vertices: Iterable[int]) -> int:
        """|E(G[vertices])| without building the subgraph."""
        keep = set(vertices)
        return sum(1 for u, v in self._edges if u in keep and v in keep)

    def union_disjoint(self, other: "Graph") -> "Graph":
        """Disjoint union; other's vertices are shifted by self.n."""
        edges = list(self._edges)
        edges.extend((u + self.n, v + self.n) for u, v in other._edges)
        return Graph(self.n + other.n, edges)

    def with_edges(
        self,
        added: Iterable[tuple[int, int]] = (),
        removed: Iterable[tuple[int, int]] = (),
    ) -> "Graph":
        """A copy with the given edges added/removed (for edge crossings)."""
        n = self.n
        removed_set = {((u, v) if u < v else (v, u)) for u, v in removed}
        for e in removed_set:
            u, v = e
            if not (0 <= u < n and 0 <= v < n and self.has_edge(u, v)):
                raise ReproError(f"cannot remove absent edge {e}")
        edges = [e for e in self._edges if e not in removed_set]
        edges.extend(added)
        return Graph(self.n, edges)

    def to_networkx(self):
        """Convert to a networkx Graph (analysis only; not on hot paths)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self.n))
        g.add_edges_from(self._edges)
        return g
