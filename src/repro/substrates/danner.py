"""The danner substitute (Gmyr–Pandurangan [15], Theorem 1.1 interface).

A *danner* is a spanning subgraph H of G with Õ(min(m, n^{1+delta}))
edges and diameter Õ(D + n^{1-delta}), constructible with
Õ(min(m, n^{1+delta})) messages.  The paper uses it (at delta = 1/2) to
elect a leader and broadcast a Theta(polylog n)-bit random string with
Õ(n^1.5) messages in Õ(D + sqrt n) rounds (Corollary 1.2).

Our construction (documented as a substitution in DESIGN.md §1.3):

1. *Local sparsification* — a node of degree <= tau = n^delta keeps all
   its edges; a heavier node keeps its edges to *landmark* neighbors,
   where landmark status is a fixed hash of the node ID that every
   neighbor evaluates locally (KT-1 + non-comparison hashing; zero
   messages).  One KEEP notification per kept edge makes membership
   known at both endpoints.  Whp every heavy node has ~log n landmark
   neighbors, and the kept-edge count is Õ(n^{1+delta} + m/n^delta).
   Because the landmark bit is a pure function of the ID value, the
   stage's nodes share one memo of it: each ID is hashed once per stage
   rather than once per heavy neighbor, and every node still reads
   exactly the bit it would compute itself.  The stage has no columnar
   kernel: with ``NodeId.value`` a slot read, the scalar program is as
   fast (the ledger in docs/columnar.md).
2. *Connectivity repair* — the kept subgraph H0 can miss bridges (no
   local sampling can find a bridge between two hubs), so we elect
   per-component leaders by flooding H0, count nodes by convergecast,
   and if the count falls short run sketch-Boruvka phases over the
   component trees; the discovered outgoing edges join H.  On the
   benchmark families H0 is almost always already connected.

The end product mirrors Theorem 1.1's interface: per-node active edge
sets, a leader, and a BFS-ish tree for broadcast/upcast.
"""

from __future__ import annotations

import functools
import math
import zlib
from dataclasses import dataclass
from typing import Callable, Optional

from repro.congest.ids import NodeId, id_value
from repro.congest.node import Context, NodeAlgorithm
from repro.errors import ConvergenceError
from repro.substrates.boruvka import ForestState, run_boruvka
from repro.substrates.flooding import (
    ShareRandomBits,
    TreeAggregate,
    elect_leader_and_tree,
)
from repro.util.bitstrings import BitString


def is_landmark(id_value: int, seed, probability: float) -> bool:
    """Landmark status: a fixed hash of the ID, evaluable by any neighbor."""
    h = zlib.crc32(f"lm:{id_value}:{seed}".encode()) & 0xFFFFFFFF
    return h < probability * (1 << 32)


class DannerLocalStage(NodeAlgorithm):
    """Local sparsification + one KEEP notification per kept edge.

    Output: the node's H-neighbor set, published once as a live set that
    every arriving KEEP grows (a consumer that needs it frozen copies it
    once, as :func:`build_danner` does).
    """

    passive_when_idle = True

    def __init__(self, tau: int, landmark: Callable[[int], bool]):
        self.tau = tau
        #: ID value -> landmark bit, one memo shared by the stage's nodes.
        self.landmark = landmark

    def setup(self, ctx: Context) -> None:
        self.active: set[NodeId] = set()

    def on_round(self, ctx: Context, inbox) -> None:
        if ctx.round == 0:
            if ctx.degree <= self.tau:
                kept = list(ctx.neighbor_ids)
            else:
                landmark = self.landmark
                kept = [u for u in ctx.neighbor_ids if landmark(u.value)]
                if not kept:
                    # Whp-impossible fallback: keep everything rather than
                    # risk isolating this node in H0.
                    kept = list(ctx.neighbor_ids)
            self.active.update(kept)
            ctx.broadcast(kept, "keep")
        for msg in inbox:
            self.active.add(msg.sender_id)
        if not ctx.finished:
            ctx.done(self.active)


@dataclass
class DannerResult:
    """Theorem 1.1 interface: the danner H plus leader and tree."""

    active: list[frozenset[NodeId]]      # per-vertex H-neighbors
    leader_id: NodeId
    leader_vertex: int
    parents: list[Optional[NodeId]]
    children: list[frozenset[NodeId]]
    repair_phases: int

    def edge_list(self, net) -> list[tuple[int, int]]:
        edges = set()
        for v, nbrs in enumerate(self.active):
            for nid in nbrs:
                u = net.vertex_of(nid)
                edges.add((min(u, v), max(u, v)))
        return sorted(edges)

    def edge_count(self, net) -> int:
        """``len(edge_list(net))``.

        On a fault-free network H is symmetric by construction (a KEEP
        makes both endpoints hold the edge, and Borůvka repair adds both
        directions), so every edge is two directed entries.  A faulted
        run can lose a KEEP and leave an edge at one endpoint only; then
        the edges are counted as int pair keys, each directed entry
        resolved through its owner's port map.
        """
        if net.faults is None:
            return sum(map(len, self.active)) // 2
        n = net.graph.n
        ports = net.topology.ports
        keys = set()
        for v, nbrs in enumerate(self.active):
            for u in map(ports[v].__getitem__, map(id_value, nbrs)):
                keys.add(u * n + v if u < v else v * n + u)
        return len(keys)

    def tree_inputs(self) -> list[dict]:
        return [
            {"parent": self.parents[v], "children": self.children[v]}
            for v in range(len(self.parents))
        ]


def build_danner(
    net,
    delta: float = 0.5,
    seed=0,
    landmark_constant: float = 1.0,
    name_prefix: str = "danner",
    max_repairs: int = 40,
) -> DannerResult:
    """Build a danner of the (connected) underlying graph.

    delta trades messages for rounds exactly as in Theorem 1.1; the paper
    always uses delta = 1/2.
    """
    n = net.graph.n
    tau = max(1, math.ceil(n ** delta))
    probability = min(1.0, landmark_constant * math.log(max(n, 2)) / tau)
    landmark = functools.cache(
        lambda value: is_landmark(value, seed, probability))
    local = net.run(
        lambda: DannerLocalStage(tau, landmark),
        name=f"{name_prefix}-local",
    )
    active: list[set[NodeId]] = [set(s) for s in local.outputs]

    repair_phases = 0
    for attempt in range(max_repairs):
        name = f"{name_prefix}-elect{attempt}"
        leader_id, parents, children = elect_leader_and_tree(
            net, [frozenset(s) for s in active], name
        )
        counts = net.run(
            TreeAggregate,
            inputs=[
                {"parent": parents[v], "children": children[v], "value": 1}
                for v in range(n)
            ],
            name=f"{name}-count",
        ).outputs
        # The leader's component count reaches every node of its component;
        # a full count means H is spanning-connected (one leader).
        if all(c == n for c in counts):
            return DannerResult(
                active=[frozenset(s) for s in active],
                leader_id=leader_id,
                leader_vertex=net.vertex_of(leader_id),
                parents=parents,
                children=children,
                repair_phases=repair_phases,
            )
        # Repair connectivity: Boruvka over the component trees discovers
        # outgoing (bridge) edges of each component; add them to H.
        forest = ForestState(parents=parents, children=list(children))
        result = run_boruvka(
            net, forest, seed=(seed, "repair", attempt),
            name_prefix=f"{name_prefix}-repair{attempt}",
        )
        repair_phases += result.phases
        for u, v in result.new_edges:
            active[u].add(net.id_of(v))
            active[v].add(net.id_of(u))
        if not result.new_edges:
            raise ConvergenceError(
                "danner repair found no bridges; is the graph connected?"
            )
    raise ConvergenceError("danner repair did not converge")


def share_random_bits(
    net,
    danner: DannerResult,
    nbits: int,
    name: str = "share-bits",
) -> BitString:
    """Corollary 1.2: the leader generates and broadcasts ``nbits`` bits.

    Returns the shared BitString (identical at every node; the stage
    output list is checked for agreement by tests).
    """
    stage = net.run(
        lambda: ShareRandomBits(nbits),
        inputs=danner.tree_inputs(),
        name=name,
    )
    return stage.outputs[danner.leader_vertex]
