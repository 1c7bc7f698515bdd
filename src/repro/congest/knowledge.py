"""KT-rho initial knowledge (paper Section 1.4.1).

In the KT-rho CONGEST model each node v is provided initial knowledge of

  (i) the IDs of all nodes at distance at most rho from v, and
  (ii) the neighborhood of every node at distance at most rho - 1 from v.

So KT-1 gives a node its neighbors' IDs (but nothing about who *their*
neighbors are), and KT-2 additionally gives the full adjacency lists of its
neighbors (hence the IDs at distance two).  Algorithm 3 (the KT-2 MIS)
leans on (ii) to build local 2-hop BFS trees without communication.

What is computed when.  One :class:`Topology` per network is built up
front with what every send needs: each vertex's ID object, port map
(neighbor ID value -> vertex) and neighbor IDs sorted by value (also
readable, under KT-2 and up, through
:meth:`KTKnowledge.ordered_neighborhood_of`).  The
rest is built on first query and cached: every vertex's neighbor-ID set,
in one pass, shared by every node that may read it; a node's ID layers
by distance; under rho >= 3, its (rho - 1)-ball.  Laziness changes when
a set is built, never what a node may read: each query first checks the model's
bounds and raises :class:`~repro.errors.ModelViolationError` beyond rho
or outside the (rho - 1)-ball, as eagerly built knowledge did.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.congest.ids import NodeId, id_value
from repro.errors import ModelViolationError, ReproError
from repro.graphs.core import Graph


class Topology:
    """One network's KT-rho topology table, shared by the engine and by
    every node's :class:`KTKnowledge`.  Lives on the network, never on the
    :class:`Graph` (a graph pickles without it)."""

    __slots__ = ("graph", "rho", "n", "id_of", "values", "ports",
                 "neighbor_ids", "_neighborhoods")

    def __init__(self, graph: Graph, rho: int, id_of: list[NodeId]):
        if rho < 1:
            raise ReproError("this simulator supports KT-rho for rho >= 1")
        n = graph.n
        self.graph = graph
        self.rho = rho
        self.n = n
        self.id_of = id_of
        values = self.values = list(map(id_value, id_of))
        value_of = values.__getitem__
        nbrs = graph.neighbors
        #: Per-vertex port map, neighbor ID value -> neighbor vertex: one
        #: dict lookup both validates a send's recipient and resolves it.
        self.ports = [dict(zip(map(value_of, nbrs(v)), nbrs(v)))
                      for v in range(n)]
        # Neighbor IDs in ascending ID order, in O(n log n + m): visiting
        # the vertices in ID order and appending each to its neighbors'
        # lists leaves every list sorted, with no per-vertex sort.
        lists: list[list[NodeId]] = [[] for _ in range(n)]
        for u in sorted(range(n), key=value_of):
            uid = id_of[u]
            for w in nbrs(u):
                lists[w].append(uid)
        self.neighbor_ids = list(map(tuple, lists))
        self._neighborhoods: Optional[list[frozenset[NodeId]]] = None

    def neighborhoods(self) -> list[frozenset[NodeId]]:
        """Every vertex's neighbor-ID set, all built on first use."""
        hoods = self._neighborhoods
        if hoods is None:
            ids = self.id_of.__getitem__
            hoods = self._neighborhoods = [
                frozenset(map(ids, row))
                for row in map(self.graph.neighbors, range(self.n))]
        return hoods

    def neighborhood(self, u: int) -> frozenset[NodeId]:
        """Vertex ``u``'s neighbor-ID set."""
        return self.neighborhoods()[u]

    def layers(self, source: int) -> list[list[int]]:
        """Vertices grouped by exact distance 0..rho from ``source``."""
        nbrs = self.graph.neighbors
        seen = {source}
        layers = [[source]]
        for _ in range(self.rho):
            layer = []
            for u in layers[-1]:
                for w in nbrs(u):
                    if w not in seen:
                        seen.add(w)
                        layer.append(w)
            layers.append(layer)
        return layers

    def knowledge(self) -> list["KTKnowledge"]:
        return [KTKnowledge(self, v) for v in range(self.n)]


class KTKnowledge:
    """One node's initial knowledge under KT-rho.

    All IDs are exposed as :class:`NodeId` objects (opaque ones for
    comparison-based protocols), never as raw integers.
    """

    __slots__ = ("rho", "n", "my_id", "neighbor_ids", "_table", "_vertex",
                 "_ball", "_layers")

    def __init__(self, table: Topology, vertex: int):
        self.rho = rho = table.rho
        self.n = table.n
        self.my_id = table.id_of[vertex]
        self.neighbor_ids = table.neighbor_ids[vertex]
        self._table = table
        self._vertex = vertex
        #: ID value -> vertex over the (rho - 1)-ball, self aside: empty
        #: under KT-1, the port map under KT-2, searched under KT-3 and up.
        self._ball: Optional[dict[int, int]] = (
            {} if rho == 1 else table.ports[vertex] if rho == 2 else None)
        self._layers: Optional[tuple[frozenset[NodeId], ...]] = None

    # -- queries -------------------------------------------------------------

    def _id_layers(self) -> tuple[frozenset[NodeId], ...]:
        layers = self._layers
        if layers is None:
            table = self._table
            ids = table.id_of.__getitem__
            layers = self._layers = tuple(
                table.neighborhood(self._vertex) if d == 1
                else frozenset(map(ids, layer))
                for d, layer in enumerate(table.layers(self._vertex))
            )
        return layers

    def _check_distance(self, distance: int) -> None:
        if distance < 0:
            raise ReproError(f"distance must be >= 0, got {distance}")
        if distance > self.rho:
            raise ModelViolationError(
                f"KT-{self.rho} knowledge does not extend to distance {distance}"
            )

    def ids_within(self, distance: int) -> frozenset[NodeId]:
        """All known IDs at distance <= ``distance`` (excluding self)."""
        self._check_distance(distance)
        return frozenset().union(*self._id_layers()[1:distance + 1])

    def ids_at(self, distance: int) -> frozenset[NodeId]:
        """Known IDs at exactly ``distance`` hops."""
        self._check_distance(distance)
        return self._id_layers()[distance]

    def _ball_vertex(self, node_id: NodeId) -> Optional[int]:
        """The vertex owning ``node_id`` if it lies within distance
        rho - 1 of this node, else None."""
        if not isinstance(node_id, NodeId):
            raise ModelViolationError(
                f"KT-{self.rho} knowledge is indexed by NodeIds, not "
                f"{type(node_id).__name__} ({node_id!r})"
            )
        table = self._table
        ball = self._ball
        if ball is None:
            values = table.values
            ball = self._ball = {
                values[u]: u
                for layer in table.layers(self._vertex)[1:self.rho]
                for u in layer
            }
        w = ball.get(node_id._value, self._vertex)
        known = table.id_of[w]
        # The test a dict keyed by this network's IDs would make: an
        # equal-valued ID of another kind or salt was never given here.
        if known is node_id or (known == node_id
                                and hash(known) == hash(node_id)):
            return w
        return None

    def knows_neighborhood_of(self, node_id: NodeId) -> bool:
        return self._ball_vertex(node_id) is not None

    def _known_vertex(self, node_id: NodeId) -> int:
        """The vertex whose neighborhood ``node_id`` names, if this node
        may read it; raises :class:`ModelViolationError` otherwise."""
        w = self._ball_vertex(node_id)
        if w is None:
            raise ModelViolationError(
                f"KT-{self.rho} knowledge does not include the neighborhood "
                f"of {node_id!r}"
            )
        return w

    def neighborhood_of(self, node_id: NodeId) -> frozenset[NodeId]:
        """The full neighbor-ID set of a node at distance <= rho - 1.

        Under KT-1 this is only available for the node itself; under KT-2
        it is available for every 1-hop neighbor, etc.
        """
        return self._table.neighborhood(self._known_vertex(node_id))

    def ordered_neighborhood_of(self, node_id: NodeId) -> tuple[NodeId, ...]:
        """:meth:`neighborhood_of`'s set as a tuple in ascending ID order
        (the order ``neighbor_ids`` has), with the same model checks.

        A node may compare IDs, so the order adds no knowledge; it lets a
        comparison-based protocol find the members below some ID with one
        ``bisect`` instead of a comparison per member.
        """
        return self._table.neighbor_ids[self._known_vertex(node_id)]

    def neighbor_neighborhoods(self) -> list[frozenset[NodeId]]:
        """Every neighbor's :meth:`neighborhood_of` set, in
        ``neighbor_ids`` order.  Under KT-2 and up every neighbor lies in
        the (rho - 1)-ball, so one model check covers them all; under
        KT-1 it raises as ``neighborhood_of`` does for the first
        neighbor."""
        ids = self.neighbor_ids
        if self.rho < 2 and ids:
            self._known_vertex(ids[0])      # raises: not in the 0-ball
        table = self._table
        return list(map(table.neighborhoods().__getitem__,
                        map(table.ports[self._vertex].__getitem__,
                            map(id_value, ids))))

    @property
    def degree(self) -> int:
        return len(self.neighbor_ids)


def build_knowledge(
    graph: Graph,
    rho: int,
    make_id: Callable[[int], NodeId],
) -> list[KTKnowledge]:
    """Every node's KT-rho knowledge for ``graph`` over one shared
    :class:`Topology`; ``make_id`` maps a vertex to its (possibly opaque)
    NodeId object."""
    ids = [make_id(v) for v in range(graph.n)]
    return Topology(graph, rho, ids).knowledge()
