"""Awerbuch's alpha-synchronizer (paper Theorem A.5).

Simulates a synchronous algorithm A on the asynchronous engine: every
simulated-round message is acknowledged; a node that has collected all
its acks is *safe* and says so to its active neighbors; a node enters
simulated round r+1 once it is safe for r and has heard "safe r" from
every active neighbor.  Overhead: one ack per message plus one safe
message per active edge per round — at most 2(T+1)·m_active extra
messages for a T-round algorithm, which is exactly the budget Theorem
A.5 grants and what lets Algorithm 1's Step 3 run asynchronously inside
each G[B_i] (Theorem 3.4) without touching inactive edges.

The wrapped algorithm runs for a fixed round budget T (supplied by the
caller, as synchronous algorithms come with round bounds); its sends must
stay within the declared active edge set.

Input per node: ``{"active": frozenset-or-None, "inner": <inner input>}``.
Output: the inner algorithm's output.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.congest.ids import NodeId
from repro.congest.node import Context, NodeAlgorithm
from repro.errors import (
    ModelViolationError,
    ProtocolError,
    SynchronizerBudgetError,
)


class _SimContext:
    """The synchronous Context surface, backed by a capture buffer."""

    def __init__(self, outer: Context, inner_input: Any):
        self.knowledge = outer.knowledge
        self.n = outer.n
        self.input = inner_input
        self.rng = outer.rng
        self.round = 0
        self.captured: list[tuple[NodeId, str, tuple]] = []
        self._finished = False
        self._output: Any = None
        self._outer = outer

    @property
    def word_bits(self) -> int:
        return self._outer.word_bits

    @property
    def words_per_message(self) -> int:
        return self._outer.words_per_message

    @property
    def my_id(self) -> NodeId:
        return self.knowledge.my_id

    @property
    def neighbor_ids(self) -> tuple[NodeId, ...]:
        return self.knowledge.neighbor_ids

    @property
    def degree(self) -> int:
        return len(self.knowledge.neighbor_ids)

    def send(self, to_id: NodeId, tag: str, *fields) -> None:
        self.captured.append((to_id, tag, tuple(fields)))

    def broadcast(self, to_ids, tag: str, *fields) -> None:
        payload = tuple(fields)
        self.captured.extend((to_id, tag, payload) for to_id in to_ids)

    def done(self, output: Any = None) -> None:
        self._finished = True
        self._output = output

    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def output(self) -> Any:
        return self._output


class _SimMsg:
    __slots__ = ("sender_id", "tag", "fields")

    def __init__(self, sender_id, tag, fields):
        self.sender_id = sender_id
        self.tag = tag
        self.fields = fields


class AlphaSynchronizer(NodeAlgorithm):
    """Run a synchronous NodeAlgorithm for T rounds on the async engine."""

    passive_when_idle = True

    def __init__(self, inner_factory: Callable[[], NodeAlgorithm],
                 total_rounds: int):
        self.inner_factory = inner_factory
        self.total_rounds = total_rounds

    def setup(self, ctx: Context) -> None:
        state = ctx.input or {}
        active = state.get("active")
        if active is None:
            active = frozenset(ctx.neighbor_ids)
        self.active = frozenset(filter(active.__contains__, ctx.neighbor_ids))
        self.inner = self.inner_factory()
        self.sim = _SimContext(ctx, state.get("inner"))
        self.inner.setup(self.sim)
        self.r = 0
        self.pending_acks = 0
        self.my_safe = False
        self.safe_heard: dict[int, set] = {}
        self.buffers: dict[int, list] = {}
        self.finished = False

    # -- mechanics ---------------------------------------------------------

    def _publish(self, ctx: Context) -> None:
        # Only a finished node is done: a logically-stuck synchronizer must
        # surface as an engine-level deadlock, not as a silent None output.
        if self.finished:
            ctx.done(self.sim._output)

    def _run_inner_round(self, ctx: Context) -> None:
        self.sim.round = self.r
        self.sim.captured = []
        inbox = self.buffers.pop(self.r, [])
        self.inner.on_round(self.sim, inbox)
        self.pending_acks = 0
        for to_id, tag, fields in self.sim.captured:
            if to_id not in self.active:
                raise ModelViolationError(
                    "synchronized algorithm sent outside its active edges"
                )
            ctx.send(to_id, "m", self.r, tag, fields)
            self.pending_acks += 1
        self.my_safe = False

    def _settle(self, ctx: Context) -> None:
        """Drive the synchronizer state machine to a fixed point."""
        while not self.finished:
            if not self.my_safe and self.pending_acks == 0:
                self.my_safe = True
                for u in self.active:
                    ctx.send(u, "safe", self.r)
                continue
            if (self.my_safe
                    and self.safe_heard.get(self.r, set()) >= self.active):
                self.safe_heard.pop(self.r, None)
                self.r += 1
                if self.r > self.total_rounds:
                    if not self.sim._finished:
                        raise SynchronizerBudgetError(
                            "inner algorithm did not finish within the "
                            "synchronizer's round budget"
                        )
                    self.finished = True
                    self._publish(ctx)
                    return
                self._run_inner_round(ctx)
                continue
            return

    # -- protocol ------------------------------------------------------------

    def on_round(self, ctx: Context, inbox) -> None:
        if ctx.round == 0:
            self._publish(ctx)
            self._run_inner_round(ctx)
            self._settle(ctx)
            return
        for msg in inbox:
            if msg.tag == "m":
                r, tag, fields = msg.fields
                # A message sent in simulated round r is delivered at the
                # start of simulated round r + 1, as in the sync model.
                self.buffers.setdefault(r + 1, []).append(
                    _SimMsg(msg.sender_id, tag, fields)
                )
                ctx.send(msg.sender_id, "ack", r)
            elif msg.tag == "ack":
                self.pending_acks -= 1
            elif msg.tag == "safe":
                (r,) = msg.fields
                self.safe_heard.setdefault(r, set()).add(msg.sender_id)
        if not self.finished:
            self._settle(ctx)


def synchronize(
    net,
    inner_factory: Callable[[], NodeAlgorithm],
    total_rounds: int,
    active_sets=None,
    inner_inputs=None,
    name: str = "alpha-sync",
):
    """Driver: run a synchronous algorithm under the alpha-synchronizer.

    Works on either engine (on SyncNetwork it simply adds the
    synchronizer's overhead, which tests use to verify the 2(T+1)m bound).
    """
    n = net.graph.n
    inputs = []
    for v in range(n):
        inputs.append({
            "active": None if active_sets is None else active_sets[v],
            "inner": None if inner_inputs is None else inner_inputs[v],
        })
    return net.run(
        lambda: AlphaSynchronizer(inner_factory, total_rounds),
        inputs=inputs,
        name=name,
    )
