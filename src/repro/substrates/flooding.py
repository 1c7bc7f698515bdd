"""Flooding and tree primitives: the Corollary 1.2 toolkit.

Given a sparse spanning subgraph (danner) or a spanning tree, the paper
repeatedly needs to (a) elect a leader, (b) broadcast a short random
string, and (c) upcast small aggregates (the |E(G[L])| check in Algorithm
1, Step 4).  These stages implement those moves over an arbitrary *active
edge set*: each node is told (or has locally computed) which incident
edges participate, so running them over a danner H costs Õ(|H|) messages
and O(diam(H)) rounds rather than Ω(m).

All stages follow the same convention: every node calls ``ctx.done`` in
round 0 with a provisional output and keeps updating it as messages
arrive; the engine ends the stage at global quiescence.  A tree relay
with no children makes no send, so a tree stage's interpreter work is
proportional to the messages it moves, not to the number of nodes.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.congest.ids import NodeId
from repro.congest.node import Context, NodeAlgorithm
from repro.errors import ProtocolError
from repro.util.bitstrings import BitString, random_bitstring


def _active_neighbors(ctx: Context, active) -> tuple[NodeId, ...]:
    if active is None:
        return ctx.neighbor_ids
    return tuple(filter(active.__contains__, ctx.neighbor_ids))


class FloodLeaderElect(NodeAlgorithm):
    """Flood the maximum ID over the active edges.

    Input: ``frozenset`` of active neighbor IDs (or None for all edges).
    Output: ``{"leader": id, "parent": id-or-None}`` where parent pointers
    form a tree toward the leader (the neighbor that first delivered the
    winning candidate).  Expected message cost O(|active| log n) — each
    node re-floods only when its best candidate improves, and rebuilds
    its output only then (and at its first activation).
    """

    passive_when_idle = True

    def setup(self, ctx: Context) -> None:
        self.active = _active_neighbors(ctx, ctx.input)
        self.best = ctx.my_id
        self.parent: Optional[NodeId] = None

    def _publish(self, ctx: Context) -> None:
        ctx.done({"leader": self.best, "parent": self.parent})

    def on_round(self, ctx: Context, inbox) -> None:
        if ctx.round == 0:
            # Only local maxima initiate: a node that already sees a
            # larger active neighbor ID cannot be the leader, and its
            # value would be suppressed one hop away regardless.  This
            # keeps correctness (the global maximum is a local maximum)
            # and cuts the startup wave from 2|H| to the local-maxima
            # fraction of it.
            improved = all(self.best > u for u in self.active)
        else:
            improved = False
        for msg in inbox:
            (candidate,) = msg.fields
            if candidate > self.best:
                self.best = candidate
                self.parent = msg.sender_id
                improved = True
        if improved:
            ctx.broadcast(self.active, "lead", self.best)
        if improved or not ctx.finished:
            self._publish(ctx)


class AdoptParents(NodeAlgorithm):
    """Turn parent pointers into bidirectional tree knowledge.

    Input: ``{"parent": id-or-None}``.  Each non-root sends one ADOPT to
    its parent; output is ``{"parent": ..., "children": frozenset}``.
    """

    passive_when_idle = True

    def setup(self, ctx: Context) -> None:
        self.parent = ctx.input.get("parent")
        self.children: set[NodeId] = set()

    def _publish(self, ctx: Context) -> None:
        ctx.done({"parent": self.parent, "children": frozenset(self.children)})

    def on_round(self, ctx: Context, inbox) -> None:
        for msg in inbox:
            self.children.add(msg.sender_id)
        if ctx.round == 0 and self.parent is not None:
            ctx.send(self.parent, "adopt")
        self._publish(ctx)


class TreeBroadcast(NodeAlgorithm):
    """Send a payload from the root down a known tree.

    Input: ``{"parent": ..., "children": ..., "payload": value-or-None}``
    (payload set only at the root).  Output: the payload, at every node.
    """

    passive_when_idle = True

    def setup(self, ctx: Context) -> None:
        self.parent = ctx.input.get("parent")
        self.children = ctx.input.get("children", frozenset())
        self.payload = ctx.input.get("payload")

    def _root_payload(self, ctx: Context):
        return self.payload

    def on_round(self, ctx: Context, inbox) -> None:
        if ctx.round == 0 and self.parent is None:
            self.payload = self._root_payload(ctx)
            if self.payload is None:
                raise ProtocolError("TreeBroadcast root has no payload")
            ctx.broadcast(self.children, "bcast", self.payload)
        for msg in inbox:
            (self.payload,) = msg.fields
            if self.children:
                ctx.broadcast(self.children, "bcast", self.payload)
        ctx.done(self.payload)


class ChunkedTreeBroadcast(NodeAlgorithm):
    """Pipelined broadcast of a BitString down a known tree.

    The CONGEST idiom for long payloads: the root splits the string into
    word-sized chunks and streams them; relays forward each chunk as it
    arrives (links are FIFO), so the whole broadcast completes in
    O(depth + |payload| / log n) rounds instead of O(depth * |payload|).
    Message count is unchanged — one chunk per link per chunk.
    """

    passive_when_idle = True

    def __init__(self, chunk_bits: int = 0):
        self.chunk_bits = chunk_bits

    def setup(self, ctx: Context) -> None:
        if self.chunk_bits <= 0:
            # One message exactly: fill the words_per_message budget.
            self.chunk_bits = ctx.words_per_message * ctx.word_bits
        self.parent = ctx.input.get("parent")
        self.children = ctx.input.get("children", frozenset())
        self.payload = ctx.input.get("payload")
        self.received: list[BitString] = []

    def _root_payload(self, ctx: Context):
        return self.payload

    def _stream(self, ctx: Context, payload: BitString) -> None:
        size = self.chunk_bits
        # An empty payload still streams one (empty, one-word) "bce"
        # chunk: without it no relay learns that the broadcast is over.
        pieces = [payload[i:i + size]
                  for i in range(0, len(payload), size)] or [payload]
        for i, piece in enumerate(pieces):
            tag = "bce" if i == len(pieces) - 1 else "bc"
            ctx.broadcast(self.children, tag, piece)

    def on_round(self, ctx: Context, inbox) -> None:
        if ctx.round == 0 and self.parent is None:
            self.payload = self._root_payload(ctx)
            if self.payload is None:
                raise ProtocolError("broadcast root has no payload")
            self._stream(ctx, self.payload)
            ctx.done(self.payload)
            return
        children = self.children
        for msg in inbox:
            (piece,) = msg.fields
            self.received.append(piece)
            tag = msg.tag
            if children:
                ctx.broadcast(children, tag, piece)
            if tag == "bce":
                # One-pass reassembly; incremental concat per arriving
                # chunk would be quadratic in the payload length.
                self.payload = BitString.concat_all(self.received)
        ctx.done(self.payload)


class ShareRandomBits(ChunkedTreeBroadcast):
    """Pipelined broadcast whose root generates ``nbits`` private bits.

    This is exactly the paper's use of Corollary 1.2: the elected leader
    locally generates Theta(polylog n) bits and disseminates them, giving
    every node *shared* randomness without assuming it in the model.
    """

    def __init__(self, nbits: int, chunk_bits: int = 0):
        super().__init__(chunk_bits)
        self.nbits = nbits

    def _root_payload(self, ctx: Context) -> BitString:
        return random_bitstring(ctx.rng, self.nbits)


class TreeAggregate(NodeAlgorithm):
    """Convergecast an associative aggregate up a tree, then echo it down.

    Input: ``{"parent": ..., "children": ..., "value": int}``.
    Output: the aggregate of all values, known to every node.
    The ``combine`` callable is part of the algorithm (not data).
    """

    passive_when_idle = True

    def __init__(self, combine: Callable[[int, int], int] = lambda a, b: a + b):
        self.combine = combine

    def setup(self, ctx: Context) -> None:
        self.parent = ctx.input.get("parent")
        self.children = ctx.input.get("children", frozenset())
        self.acc = ctx.input.get("value", 0)
        self.waiting = len(self.children)
        self.total: Optional[int] = None

    def _publish(self, ctx: Context) -> None:
        ctx.done(self.total)

    def _complete_subtree(self, ctx: Context) -> None:
        if self.parent is None:
            self.total = self.acc
            if self.children:
                ctx.broadcast(self.children, "echo", self.total)
        else:
            ctx.send(self.parent, "agg", self.acc)

    def on_round(self, ctx: Context, inbox) -> None:
        for msg in inbox:
            if msg.tag == "agg":
                (v,) = msg.fields
                self.acc = self.combine(self.acc, v)
                self.waiting -= 1
                if self.waiting == 0:
                    self._complete_subtree(ctx)
            elif msg.tag == "echo":
                (self.total,) = msg.fields
                if self.children:
                    ctx.broadcast(self.children, "echo", self.total)
        if ctx.round == 0 and self.waiting == 0:
            self._complete_subtree(ctx)
        self._publish(ctx)


class FloodPayload(NodeAlgorithm):
    """Flood a payload over the active edges (no tree required).

    Input: ``{"active": frozenset-or-None, "payload": value-or-None}``.
    Nodes holding a payload at round 0 are initiators.  Every node
    forwards the first payload it sees exactly once, so the cost is one
    payload transmission per active edge direction.
    """

    passive_when_idle = True

    def setup(self, ctx: Context) -> None:
        self.active = _active_neighbors(ctx, ctx.input.get("active"))
        self.payload = ctx.input.get("payload")

    def on_round(self, ctx: Context, inbox) -> None:
        fresh = ctx.round == 0 and self.payload is not None
        for msg in inbox:
            if self.payload is None:
                (self.payload,) = msg.fields
                fresh = True
        if fresh:
            ctx.broadcast(self.active, "flood", self.payload)
        ctx.done(self.payload)


def elect_leader_and_tree(net, active_sets, name_prefix: str = "elect"):
    """Driver: leader election + tree adoption over an active edge set.

    Returns ``(leader_id, parents, children)`` with parents/children
    indexed by vertex.  ``active_sets`` is a per-vertex list of frozensets
    of neighbor IDs (or None for the full graph).
    """
    flood = net.run(
        FloodLeaderElect,
        inputs=active_sets if active_sets is not None else [None] * net.graph.n,
        name=f"{name_prefix}-flood",
    )
    leaders = {out["leader"] for out in flood.outputs}
    parents = [out["parent"] for out in flood.outputs]
    adopt = net.run(
        AdoptParents,
        inputs=[{"parent": p} for p in parents],
        name=f"{name_prefix}-adopt",
    )
    children = [out["children"] for out in adopt.outputs]
    # With a connected active set there is exactly one leader; otherwise
    # each component elects its own and the caller must reconcile (the
    # danner driver counts nodes to detect this).
    leader_id = max(leaders)
    return leader_id, parents, children
