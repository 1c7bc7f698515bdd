"""The per-node programming model.

A protocol is a subclass of :class:`NodeAlgorithm`; every node runs its own
instance.  The node's window on the world is its :class:`Context`:

* ``ctx.my_id`` / ``ctx.neighbor_ids`` / ``ctx.knowledge`` — KT-rho
  initial knowledge (IDs only, never vertex indices);
* ``ctx.n`` — the network size (the paper's bounds allow known n);
* ``ctx.input`` — this node's input for the current stage (handed over
  from the previous stage's output by the protocol driver);
* ``ctx.rng`` — private randomness;
* ``ctx.send(to_id, tag, *fields)`` — send over the edge to a neighbor;
* ``ctx.broadcast(to_ids, tag, *fields)`` — send the same payload to
  several neighbors; count-identical to a ``ctx.send`` loop, but the
  engine carries the whole fan-out as one send;
* ``ctx.done(output)`` — mark this node finished with a final output
  (the node keeps receiving and may keep answering messages; the stage
  ends at global quiescence: all nodes done and no messages in flight).

Setting the class attribute ``passive_when_idle = True`` tells the engine
the algorithm acts only on arriving messages after round 0; the engine then
skips idle nodes, which keeps long-round protocols affordable without
changing semantics (such protocols never act on silence).
"""

from __future__ import annotations

import random
from typing import Any, Optional

from repro.congest.ids import NodeId
from repro.congest.knowledge import KTKnowledge
from repro.congest.message import Msg
from repro.errors import ModelViolationError


class Context:
    """A node's interface to the network (created by the engine)."""

    __slots__ = (
        "knowledge", "n", "input", "_rng", "round",
        "_network", "_vertex", "_finished", "_output", "_send_allowed",
    )

    def __init__(self, network, vertex: int, knowledge: KTKnowledge,
                 rng, node_input: Any):
        self.knowledge = knowledge
        self.n = knowledge.n
        self.input = node_input
        # ``rng`` may be a ready random.Random or a seed string; a string
        # is materialized lazily on first ``ctx.rng`` access.  Seeding a
        # Random hashes the seed string (SHA-512), and most stages never
        # draw randomness — per stage x per node that cost is measurable.
        self._rng = rng
        self.round = 0
        self._network = network
        self._vertex = vertex
        self._finished = False
        self._output: Any = None
        self._send_allowed = False

    # -- identity ------------------------------------------------------------

    @property
    def rng(self):
        """Private per-node randomness (materialized on first use)."""
        r = self._rng
        if type(r) is str:
            r = self._rng = random.Random(r)
        return r

    @property
    def my_id(self) -> NodeId:
        return self.knowledge.my_id

    @property
    def neighbor_ids(self) -> tuple[NodeId, ...]:
        return self.knowledge.neighbor_ids

    @property
    def degree(self) -> int:
        return len(self.knowledge.neighbor_ids)

    @property
    def word_bits(self) -> int:
        """Bits per CONGEST word (a protocol constant, Theta(log n))."""
        return self._network.word_bits

    @property
    def words_per_message(self) -> int:
        """Words per CONGEST message (a protocol constant)."""
        return self._network.words_per_message

    # -- actions -------------------------------------------------------------

    def send(self, to_id: NodeId, tag: str, *fields) -> None:
        """Send a message over the edge to the neighbor with ID ``to_id``
        (a fan-out of one)."""
        if not self._send_allowed:
            raise ModelViolationError(
                "send() is only allowed inside on_round(), not setup()"
            )
        self._network._submit(self._vertex, (to_id,), tag, fields)

    def broadcast(self, to_ids, tag: str, *fields) -> None:
        """Send one payload to every neighbor in ``to_ids`` (fan-out).

        Semantically identical to ``for u in to_ids: ctx.send(u, tag,
        *fields)`` — same sends, charges, per-link scheduling, and
        utilized edges, in the same order — but the engine carries the
        fan-out as one unit: one payload analysis, one outbox entry,
        one shared :class:`Msg` and one scheduler call.  The idiomatic
        path for the neighbor-broadcast rounds that dominate
        symmetry-breaking protocols.
        """
        if not self._send_allowed:
            raise ModelViolationError(
                "broadcast() is only allowed inside on_round(), not setup()"
            )
        self._network._submit(self._vertex, to_ids, tag, fields)

    def done(self, output: Any = None) -> None:
        """Declare this node finished with the given stage output."""
        self._finished = True
        self._output = output

    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def output(self) -> Any:
        return self._output


class NodeAlgorithm:
    """Base class for per-node protocol logic.

    Subclasses override :meth:`setup` (local initialization, no sends) and
    :meth:`on_round` (called every round with the messages delivered this
    round).  Round 0 delivers an empty inbox.
    """

    #: If True, the engine skips calling on_round for nodes with an empty
    #: inbox after round 0 (pure message-driven protocols).
    passive_when_idle = False

    def setup(self, ctx: Context) -> None:
        """Local initialization before round 0.  Sends are forbidden."""

    def on_round(self, ctx: Context, inbox: list[Msg]) -> None:
        """Handle one synchronous round.  Override in subclasses."""
        raise NotImplementedError


class ColumnarStage:
    """Opt-in marker: this algorithm can run under the columnar engine.

    A stage class that mixes in ColumnarStage promises a
    :meth:`build_columnar_kernel` classmethod that inspects the
    *post-setup* per-node instances and either returns a kernel driving
    the whole stage as array operations, or None when this particular
    instance of the stage is irregular (asymmetric active sets,
    unsupported payload values, ...), in which case the scheduler runs
    the ordinary node-by-node path.  The kernel contract — ``begin()`` /
    ``deliver(arrivals)`` returning
    :class:`~repro.congest.columnar.SendBatch` lists, outputs published
    through the regular ``ctx.done`` — is specified in
    ``docs/columnar.md``; counts must be bit-identical to the scalar
    execution (gated by the parity suite and check_regression.py).
    """

    @classmethod
    def build_columnar_kernel(cls, net, algorithms, contexts):
        """Return a columnar kernel for this stage, or None to decline."""
        return None


class FunctionAlgorithm(NodeAlgorithm):
    """Wrap a plain function ``fn(ctx, inbox)`` as a NodeAlgorithm.

    Convenient for tests and tiny single-purpose stages.
    """

    def __init__(self, fn, passive: bool = False):
        self._fn = fn
        self.passive_when_idle = passive

    def on_round(self, ctx: Context, inbox: list[Msg]) -> None:
        self._fn(ctx, inbox)
