"""The synchronous KT-rho CONGEST engine.

One :class:`SyncNetwork` owns a graph, an ID assignment, the KT-rho
topology table every node's knowledge reads
(:class:`~repro.congest.knowledge.Topology`), and cumulative
:class:`MessageStats`.  Protocols are executed as *stages*
(:meth:`SyncNetwork.run`): each stage runs one :class:`NodeAlgorithm` on
every node until global quiescence (every node has called ``ctx.done``
and no message is in flight).  Composite protocols
(Algorithm 1's danner -> leader election -> broadcast -> coloring pipeline)
are drivers that run several stages, feeding each node's stage output back
as its next stage input — a per-node handoff that never moves information
between nodes outside the message-passing model.

Accounting: every send is charged words (one word = Theta(log n) bits) and
``ceil(words / words_per_message)`` CONGEST messages; utilized edges follow
Definition 2.3 (see :mod:`repro.congest.metrics`).

Send path (hot): a send is a *fan-out* — ``ctx.broadcast(to_ids, tag,
*fields)`` to k neighbors, or ``ctx.send`` as a fan-out of one — and
travels as one unit.  On submit the engine checks each recipient with
one dict lookup in the sender's port map (neighbor ID value -> vertex),
analyzes the payload once (with a small memo for ID-free payloads), and
appends a single outbox entry holding the receivers in order.  Once per
round it flushes the outbox in submission order: each entry is charged
once, multiplied by k (sends, words, messages, ``by_tag``,
``by_sender``), its transport edges join the utilized set in one
``set.update``, one :class:`~repro.congest.message.Msg` is built and
shared by every receiver, and the whole fan-out goes to the network's
:class:`~repro.congest.runtime.Scheduler` in one
``schedule_fanout`` call.  Fault drops and trace events stay per
receiver, in submission order.  All of this is identical to the
per-submit reference path (``eager_charges=True``): same counts,
utilized edges, fault decisions and inbox order on fixed seeds.

Delivery discipline is pluggable (:mod:`repro.congest.runtime`): the
default :class:`~repro.congest.runtime.RoundScheduler` implements
synchronous rounds through a ring-buffer slot scheduler with flat
``sender*n + receiver`` link-occupancy arrays; the asynchronous engine
(:class:`~repro.congest.async_network.AsyncNetwork`) plugs in an
event-driven scheduler with seeded latency models instead.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.congest.ids import IdAssignment, NodeId, OpaqueId, id_value
from repro.congest.knowledge import KTKnowledge, Topology
from repro.congest.message import Envelope, Msg, analyze_payload
from repro.congest.metrics import MessageStats, StageStats
from repro.congest.node import Context, NodeAlgorithm
from repro.congest.runtime import (
    FaultModel,
    RoundScheduler,
    Scheduler,
    make_fault_model,
)
from repro.congest.trace import ExecutionTrace
from repro.errors import (
    ModelViolationError,
    ReproError,
    UnknownNeighborError,
)
from repro.graphs.core import Graph
from repro.util.bitstrings import BitString


@dataclass
class StageResult:
    """What a single protocol stage produced."""

    name: str
    outputs: list            # outputs[vertex]
    rounds: int
    stats: StageStats
    converged: bool


class SyncNetwork:
    """A synchronous CONGEST network on a fixed graph and ID assignment."""

    def __init__(
        self,
        graph: Graph,
        rho: int = 1,
        assignment: Optional[IdAssignment] = None,
        seed: int = 0,
        comparison_based: bool = False,
        words_per_message: int = 4,
        record_trace: bool = False,
        collect_utilization: bool = True,
        eager_charges: bool = False,
        scheduler: Optional[Scheduler] = None,
        faults: Optional[FaultModel | str] = None,
    ):
        self.graph = graph
        self.rho = rho
        self.seed = seed
        self.comparison_based = comparison_based
        self.words_per_message = words_per_message
        #: Stats-lite switch for bulk sweeps: when False the engine skips
        #: the Definition 2.3 utilized-edge bookkeeping and the per-tag /
        #: per-sender breakdowns.  Message, word, send, and round counts
        #: are unaffected (they use the identical accounting path).
        self.collect_utilization = collect_utilization
        #: Reference/debug mode: flush the outbox after every single
        #: submit instead of once per round, so each send is charged on
        #: its own.  Counts are identical either way (tests assert it);
        #: batched is the default because it is faster.
        self.eager_charges = eager_charges
        self.assignment = assignment or IdAssignment.random(graph.n, seed=seed)
        if len(self.assignment) != graph.n:
            raise ReproError("assignment size does not match graph size")

        # One word is Theta(log n) bits; size it by the ID space so any
        # single ID always fits in one word.
        self.word_bits = max(8, self.assignment.space_bound().bit_length())

        self._salt = random.Random(f"salt-{seed}").getrandbits(32)
        ids = list(map(self._make_id_object, self.assignment.values()))
        #: The KT-rho topology table (:mod:`repro.congest.knowledge`; it
        #: rejects rho < 1): built once here, read by the send path and
        #: by every node's knowledge.  Per network, so a Graph pickles
        #: without it.
        self.topology = Topology(graph, rho, ids)
        #: The table's vertex -> ID object list, and its per-vertex port
        #: maps (neighbor ID value -> neighbor vertex: one dict lookup
        #: both validates a recipient and resolves it).
        self._ids, self._ports = self.topology.id_of, self.topology.ports
        self.knowledge: list[KTKnowledge] = self.topology.knowledge()
        self.stats = MessageStats(graph.n)
        self.trace: Optional[ExecutionTrace] = (
            ExecutionTrace() if record_trace else None
        )
        self._stage_counter = 0
        self._n = graph.n
        #: Sends of the current round, flushed in submission order by
        #: :meth:`_flush_outbox`: one (sender, receivers, tag, fields,
        #: words, ids) entry per fan-out, receivers in order.
        self._outbox: list[tuple] = []
        #: LRU-ish memo of analyze_payload results for ID-free payloads
        #: (:attr:`_MEMO_FIELD_TYPES`), keyed by the fields tuple
        #: (structural identity).
        self._payload_cache: dict[tuple, tuple[int, tuple]] = {}
        #: Delivery discipline (see :mod:`repro.congest.runtime`).  The
        #: default is the synchronous round scheduler; subclasses and
        #: callers may plug in any bound :class:`Scheduler`.
        self.scheduler: Scheduler = scheduler or self._default_scheduler()
        self.scheduler.bind(self)
        #: Cached bound method — the outbox flush calls it per send.
        self._schedule = self.scheduler.schedule_fanout
        self._current_round = 0
        #: Failure seam (see :mod:`repro.congest.runtime`): None is the
        #: fault-free reference path — the schedulers and the outbox
        #: flush skip every fault branch, so counts stay bit-identical
        #: to the pre-seam engine.
        self.faults: Optional[FaultModel] = make_fault_model(faults)
        if self.faults is not None:
            self.faults.bind(self)

    def _default_scheduler(self) -> Scheduler:
        return RoundScheduler()

    # -- identity helpers (harness-side; not exposed to algorithms) ----------

    def _make_id_object(self, value: int) -> NodeId:
        if self.comparison_based:
            return OpaqueId(value, salt=self._salt)
        return NodeId(value)

    def id_of(self, vertex: int) -> NodeId:
        return self._ids[vertex]

    def vertex_of(self, node_id: NodeId) -> int:
        return self.assignment._vertex_of[node_id._value]

    def vertex_of_value(self, value: int) -> int:
        return self.assignment._vertex_of[value]

    # -- stage execution ------------------------------------------------------

    def run(
        self,
        algorithm_factory: Callable[[], NodeAlgorithm],
        inputs: Optional[Sequence[Any]] = None,
        max_rounds: int = 100_000,
        name: Optional[str] = None,
    ) -> StageResult:
        """Run one protocol stage to global quiescence.

        ``inputs[vertex]`` is handed to node ``vertex`` as ``ctx.input``.
        Raises :class:`ConvergenceError` if the stage does not quiesce
        within the scheduler's ``max_rounds`` budget (synchronous rounds,
        or activations per node on the event-driven scheduler).
        """
        n = self.graph.n
        stage_name = name or f"stage-{self._stage_counter}"
        self._stage_counter += 1
        # Engine-level adaptation point: the asynchronous network wraps
        # round-cadence algorithms in an AlphaSynchronizer here.
        algorithm_factory, inputs = self._adapt_stage(
            algorithm_factory, inputs, stage_name
        )
        stage = self.stats.begin_stage(stage_name)

        algorithms = [algorithm_factory() for _ in range(n)]
        contexts = []
        for v in range(n):
            # Seed string only — Context materializes the Random lazily
            # on first ctx.rng access (same stream either way).
            rng = f"{self.seed}-{stage_name}-node-{v}"
            node_input = inputs[v] if inputs is not None else None
            contexts.append(Context(self, v, self.knowledge[v], rng, node_input))
        self._contexts = contexts

        for v in range(n):
            algorithms[v].setup(contexts[v])

        self._outbox.clear()
        t0 = time.perf_counter()
        rounds, converged = self.scheduler.run_stage(
            stage_name, algorithms, contexts, max_rounds
        )
        stage.wall += time.perf_counter() - t0

        self.stats.charge_rounds(rounds)
        if self.faults is not None:
            self.stats.crashed_nodes = self.faults.crashed_count
        outputs = [contexts[v]._output for v in range(n)]
        if self.trace is not None:
            for v in range(n):
                self.trace.record_output(v, outputs[v], self.vertex_of_value)
        return StageResult(
            name=stage_name,
            outputs=outputs,
            rounds=stage.rounds,
            stats=stage,
            converged=converged,
        )

    def _adapt_stage(self, algorithm_factory, inputs, stage_name):
        """Hook: adjust a stage before it runs (identity by default)."""
        return algorithm_factory, inputs

    # -- engine internals ------------------------------------------------------

    def _submit(self, sender: int, to_ids, tag: str, fields: tuple) -> None:
        """Buffer one fan-out of ``fields`` to ``to_ids`` (``ctx.send`` is
        a fan-out of one) as a single outbox entry."""
        ports = self._ports[sender]
        try:
            receivers = [ports[to_id._value] for to_id in to_ids]
        except (KeyError, AttributeError):
            raise self._recipient_error(sender, to_ids) from None
        try:
            words, payload_ids = self._analyze(fields)
        except ModelViolationError as exc:
            raise ModelViolationError(
                f"invalid payload sent by vertex {sender} (tag {tag!r}): "
                f"{exc}"
            ) from exc
        if receivers:
            self._outbox.append(
                (sender, receivers, tag, fields, words, payload_ids)
            )
            if self.eager_charges:
                self._flush_outbox()

    def _recipient_error(self, sender: int, to_ids) -> ReproError:
        """The precise error for the first recipient that is not a
        neighbor's ID (the slow path behind :meth:`_submit`)."""
        ports = self._ports[sender]
        for to_id in to_ids:
            if not isinstance(to_id, NodeId):
                return ModelViolationError(
                    f"vertex {sender} addressed a message to {to_id!r} of "
                    f"type {type(to_id).__name__}; recipients must be "
                    "NodeIds from ctx.neighbor_ids"
                )
            value = id_value(to_id)
            if value in ports:
                continue
            try:
                receiver = self.vertex_of_value(value)
            except KeyError:
                return UnknownNeighborError(
                    f"no node with ID value {value} exists"
                )
            return ModelViolationError(
                f"vertex {sender} tried to send to non-neighbor {receiver}; "
                "CONGEST only delivers over edges"
            )
        # A one-shot iterable was consumed by the failed fast path.
        return ModelViolationError(
            f"vertex {sender} addressed a message to a non-neighbor"
        )

    #: Exact field types the payload memo may key on.  Restricting to
    #: these ID-free immutables keeps the memo sound: tuple equality
    #: must not cross types (1 == 1.0 == Decimal(1), so an equal-but-
    #: unencodable value could otherwise hit a cached entry and bypass
    #: analyze_payload's validation), and NodeId-bearing results must
    #: not outlive comparisons against later ID objects with the same
    #: value.  bool/int crossings (True == 1) are safe: both encode to
    #: the same word count.  A BitString is equal only to another
    #: BitString and caches its hash, so a chunk relayed down a tree is
    #: analyzed once, not at every hop.
    _MEMO_FIELD_TYPES = frozenset((int, bool, str, type(None), BitString))

    def _analyze(self, fields: tuple) -> tuple[int, tuple]:
        """:func:`analyze_payload` behind a small structural-identity memo.

        The memo is wholesale-cleared when full — the hot payloads (empty
        tuples, small control ints) are re-inserted within a round.
        """
        memo_types = self._MEMO_FIELD_TYPES
        for f in fields:
            if type(f) not in memo_types:
                return analyze_payload(fields, self.word_bits)
        cache = self._payload_cache
        hit = cache.get(fields)
        if hit is not None:
            return hit
        result = analyze_payload(fields, self.word_bits)
        if len(cache) >= 1024:
            cache.clear()
        cache[fields] = result
        return result

    def _flush_outbox(self) -> None:
        """Charge, schedule, and (optionally) trace the buffered sends.

        Runs once per round (or per submit under ``eager_charges``).
        Entries are processed in submission order and each entry's
        receivers in their given order, so link occupancy, fault
        decisions, and delivery order are those of a loop of single
        sends.
        """
        outbox = self._outbox
        stats = self.stats
        collect = self.collect_utilization
        wpm = self.words_per_message
        n = self._n
        ids = self._ids
        trace = self.trace
        schedule = self._schedule
        faults = self.faults
        round_sent = self._current_round
        total_sends = 0
        total_words = 0
        total_msgs = 0
        if collect:
            by_tag = stats.by_tag
            sender_counts = stats._sender_counts
            utilized = stats._utilized
            ports = self._ports
        for sender, receivers, tag, fields, words, payload_ids in outbox:
            k = len(receivers)
            charged = 1 if words <= wpm else -(-words // wpm)
            total_sends += k
            total_words += words * k
            total_msgs += charged * k
            if collect:
                if tag:
                    by_tag[tag] = by_tag.get(tag, 0) + charged * k
                sender_counts[sender] += charged * k
                # Utilization, Definition 2.3: the transport edges ...
                base = sender * n
                utilized.update([
                    base + r if sender < r else r * n + sender
                    for r in receivers
                ])
                # ... plus every edge {sender, w} for an ID phi(w)
                # shipped, which does not depend on the receiver.
                if payload_ids:
                    nbrs = ports[sender]
                    for nid in payload_ids:
                        w = nbrs.get(nid._value)
                        if w is not None:
                            utilized.add(base + w if sender < w
                                         else w * n + sender)
            env = Envelope(sender, words, payload_ids,
                           Msg(ids[sender], tag, fields))
            if faults is not None:
                # Charged but undelivered: the sender paid full price,
                # a dropped copy never reaches the scheduler.
                kept = []
                for r in receivers:
                    if faults.drops(env, r, charged):
                        stats.charge_dropped(charged)
                    else:
                        kept.append(r)
                if not kept:
                    continue
                receivers = kept
            schedule(env, receivers, charged)
            if trace is not None:
                for r in receivers:
                    trace.record(round_sent, sender, r, tag, fields,
                                 self.vertex_of_value)
        stats.charge_send_batch(total_sends, total_words, total_msgs)
        outbox.clear()

    def _register_received_ids(self, receiver: int, payload_ids) -> None:
        """Definition 2.3 receive-side utilization for one delivery.

        Uses the (deduplicated) NodeIds extracted at send time
        (``Envelope.ids``); ID-free payloads cost nothing here.
        """
        n = self._n
        utilized = self.stats._utilized
        nbrs = self._ports[receiver]
        for nid in payload_ids:
            w = nbrs.get(nid._value)
            if w is not None:
                utilized.add(receiver * n + w if receiver < w
                             else w * n + receiver)

    # -- conveniences -----------------------------------------------------------

    @property
    def casualties(self) -> dict[int, str]:
        """Vertices the fault model damaged, vertex -> first reason
        (``crashed`` / ``dropped`` / ``starved``); empty when fault-free.
        Output verification must skip these (``docs/faults.md``)."""
        if self.faults is None:
            return {}
        return dict(self.faults.casualties)

    def outputs_by_id_value(self, outputs: Sequence[Any]) -> dict[int, Any]:
        return {
            self.assignment.value_of(v): outputs[v]
            for v in range(self.graph.n)
        }

    def __repr__(self) -> str:
        return (
            f"SyncNetwork(n={self.graph.n}, m={self.graph.m}, rho={self.rho}, "
            f"comparison_based={self.comparison_based})"
        )
