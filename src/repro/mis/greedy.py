"""Randomized greedy MIS: sequential reference + parallel rank version.

Algorithm 3's Steps 1-2 simulate Θ(sqrt n) iterations of the *sequential*
randomized greedy MIS by sampling a set S uniformly and running the
*parallel* rank-driven greedy on G[S]: each S-node draws a random rank,
announces (membership, rank) to its neighbors, and enters the MIS as soon
as every lower-ranked undecided S-neighbor has retired.  Blelloch et
al. [5] show the parallel version computes exactly the sequential greedy
MIS for the rank order, and Fischer–Noever [11] bound its round count by
O(log n) whp — both facts are exercised by tests.

The announcement goes to *all* neighbors (not only S-members): S
membership is a private coin, so neighbors cannot know it in advance, and
Algorithm 3's later steps need every node to know its joined neighbors
anyway.  Cost: O(|S| n) messages, the Õ(n^1.5) term of Theorem 4.1.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.congest.node import Context, NodeAlgorithm
from repro.graphs.core import Graph


def sequential_greedy_mis(graph: Graph, order: Sequence[int]) -> set[int]:
    """The classic sequential greedy MIS over a vertex order."""
    chosen: set[int] = set()
    blocked: set[int] = set()
    for v in order:
        if v not in blocked:
            chosen.add(v)
            blocked.add(v)
            blocked.update(graph.neighbors(v))
    return chosen


def greedy_by_rank(graph: Graph, members: Sequence[int],
                   keys: Sequence) -> set[int]:
    """Sequential greedy restricted to ``members``, in ascending key order.

    ``keys[v]`` must be unique per member (use (rank, ID) tuples to mirror
    the parallel version's tie-breaking).  Blocking non-member neighbors
    is harmless — they are never processed — so this equals greedy on the
    induced subgraph G[members].
    """
    order = sorted(members, key=lambda v: keys[v])
    return sequential_greedy_mis(graph, order)


class ParallelGreedyMIS(NodeAlgorithm):
    """Parallel rank-driven greedy on the sampled set S.

    Input: ``{"in_s": bool, "rank": int}``.  Non-members participate
    passively: they record which neighbors are in S and which joined.

    Output: ``{"in_s", "rank", "joined", "out", "s_neighbors": frozenset,
    "joined_neighbors": frozenset}``.
    """

    # Non-passive: an S-member with no S-neighbors receives nothing after
    # round 0 yet must still act (join) once the announcement round passed.
    passive_when_idle = False

    def setup(self, ctx: Context) -> None:
        state = ctx.input or {}
        self.in_s = state.get("in_s", True)
        self.rank = state.get("rank", 0)
        rank_space = state.get("rank_space", max(ctx.n, 2) ** 3)
        self.joined = False
        self.out = False
        self.s_ranks: dict = {}
        self.s_undecided: set = set()
        self.joined_neighbors: set = set()
        # All round-0 announcements have landed once the largest possible
        # rank payload has crossed a link: a protocol constant every node
        # can compute from the public word size.
        from repro.congest.message import payload_words

        words = payload_words((rank_space - 1,), ctx.word_bits)
        self.ready_round = max(1, -(-words // ctx.words_per_message))
        self.ready = False

    def _publish(self, ctx: Context) -> None:
        ctx.done({
            "in_s": self.in_s,
            "rank": self.rank,
            "joined": self.joined,
            "out": self.out,
            "s_neighbors": frozenset(self.s_ranks),
            "joined_neighbors": frozenset(self.joined_neighbors),
        })

    def _my_key(self, ctx: Context):
        return (self.rank, ctx.my_id)

    def _try_join(self, ctx: Context) -> None:
        if not (self.in_s and self.ready) or self.joined or self.out:
            return
        me = self._my_key(ctx)
        if all(me < (self.s_ranks[u], u) for u in self.s_undecided):
            self.joined = True
            ctx.broadcast(ctx.neighbor_ids, "joined")
            self._publish(ctx)

    def on_round(self, ctx: Context, inbox) -> None:
        if ctx.round == 0:
            if self.in_s:
                ctx.broadcast(ctx.neighbor_ids, "rank", self.rank)
            self._publish(ctx)
            if not ctx.neighbor_ids:
                self.ready = True
                self._try_join(ctx)
            return
        for msg in inbox:
            if msg.tag == "rank":
                (r,) = msg.fields
                self.s_ranks[msg.sender_id] = r
                self.s_undecided.add(msg.sender_id)
            elif msg.tag == "joined":
                self.joined_neighbors.add(msg.sender_id)
                self.s_undecided.discard(msg.sender_id)
                if self.in_s and not self.joined and not self.out:
                    self.out = True
                    ctx.broadcast(self.s_undecided, "retired")
            elif msg.tag == "retired":
                self.s_undecided.discard(msg.sender_id)
        if ctx.round >= self.ready_round:
            self.ready = True
        self._try_join(ctx)
        if inbox:
            # An empty inbox changes no output field; a join publishes
            # in _try_join.
            self._publish(ctx)


def run_parallel_greedy(net, in_s: Sequence[bool], ranks: Sequence[int],
                        rank_space: int = None, name: str = "greedy"):
    """Driver for one parallel-greedy stage; returns the StageResult.

    ``rank_space`` must upper-bound every rank (default n^3); it sizes the
    protocol's announcement-completion round.
    """
    if rank_space is None:
        rank_space = max(net.graph.n, 2) ** 3
    if any(r >= rank_space for r in ranks):
        raise ValueError("ranks must lie below rank_space")
    inputs = [
        {"in_s": bool(in_s[v]), "rank": int(ranks[v]),
         "rank_space": rank_space}
        for v in range(net.graph.n)
    ]
    return net.run(ParallelGreedyMIS, inputs=inputs, name=name)
