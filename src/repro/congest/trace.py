"""Execution traces, decoded representations and similarity.

Paper Definitions 2.1-2.2: an execution EX(A, G, phi) records the messages
sent in each round; the *decoded representation* replaces each ID value
phi(v) by the vertex v; two executions are *similar* if their decoded
representations coincide.

We record the observable projection of an execution — every message event
(round, sender vertex, receiver vertex, tag, decoded payload) plus the
decoded final outputs.  Per-round local-state snapshots (also part of
Definition 2.1) are determined by the initial knowledge, private coins and
the received messages, so for the deterministic algorithms used in the
lower-bound experiments, equality of decoded message sequences plus decoded
outputs implies state-wise similarity as well; tests exercise exactly this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.congest.ids import NodeId, id_value


@dataclass(frozen=True)
class TraceEvent:
    """One decoded message event."""

    round: int
    sender: int
    receiver: int
    tag: str
    decoded_fields: tuple

    def __repr__(self) -> str:
        return (
            f"r{self.round}: {self.sender}->{self.receiver} "
            f"{self.tag}{self.decoded_fields!r}"
        )


def decode_value(value: Any, vertex_of: Callable[[int], int]) -> Any:
    """Replace every NodeId by the vertex that owns it (Definition 2.1)."""
    if isinstance(value, NodeId):
        return ("vertex", vertex_of(id_value(value)))
    if isinstance(value, tuple):
        return tuple(decode_value(v, vertex_of) for v in value)
    if isinstance(value, list):
        return tuple(decode_value(v, vertex_of) for v in value)
    if isinstance(value, (set, frozenset)):
        return frozenset(decode_value(v, vertex_of) for v in value)
    return value


class ExecutionTrace:
    """The decoded representation of one execution."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []
        self.decoded_outputs: dict[int, Any] = {}

    def record(
        self,
        round_index: int,
        sender: int,
        receiver: int,
        tag: str,
        fields: tuple,
        vertex_of: Callable[[int], int],
    ) -> None:
        self.events.append(
            TraceEvent(
                round=round_index,
                sender=sender,
                receiver=receiver,
                tag=tag,
                decoded_fields=decode_value(fields, vertex_of),
            )
        )

    def record_output(self, vertex: int, output: Any,
                      vertex_of: Callable[[int], int]) -> None:
        self.decoded_outputs[vertex] = decode_value(output, vertex_of)

    def events_in_round(self, round_index: int) -> list[TraceEvent]:
        return [e for e in self.events if e.round == round_index]

    def canonical_events(self) -> list[TraceEvent]:
        """Events sorted into a canonical order for comparison."""
        return sorted(
            self.events,
            key=lambda e: (e.round, e.sender, e.receiver, e.tag,
                           repr(e.decoded_fields)),
        )

    def __len__(self) -> int:
        return len(self.events)


def traces_similar(a: ExecutionTrace, b: ExecutionTrace,
                   compare_outputs: bool = True) -> bool:
    """Definition 2.2: equal decoded representations.

    Events are compared in canonical per-round order (the model delivers
    all round-r messages simultaneously, so intra-round order is not
    meaningful).
    """
    if a.canonical_events() != b.canonical_events():
        return False
    if compare_outputs and a.decoded_outputs != b.decoded_outputs:
        return False
    return True


def restrict_trace(trace: ExecutionTrace, vertices) -> "ExecutionTrace":
    """Sub-trace of events and outputs whose vertices all lie in a set.

    Used for the Lemma 2.8 check: on the disconnected base graph G ∪ G′,
    the execution restricted to V must mirror the execution restricted to
    V′ under the copy map.
    """
    keep = set(vertices)
    out = ExecutionTrace()
    out.events = [
        e for e in trace.events if e.sender in keep and e.receiver in keep
    ]
    out.decoded_outputs = {
        v: o for v, o in trace.decoded_outputs.items() if v in keep
    }
    return out


def _remap_decoded(value, mapping):
    if isinstance(value, tuple):
        if len(value) == 2 and value[0] == "vertex":
            return ("vertex", mapping.get(value[1], value[1]))
        return tuple(_remap_decoded(v, mapping) for v in value)
    if isinstance(value, frozenset):
        return frozenset(_remap_decoded(v, mapping) for v in value)
    return value


def remap_trace(trace: ExecutionTrace, mapping: dict) -> "ExecutionTrace":
    """Rename vertices in a decoded trace (for isomorphism comparisons)."""
    out = ExecutionTrace()
    out.events = [
        TraceEvent(
            round=e.round,
            sender=mapping.get(e.sender, e.sender),
            receiver=mapping.get(e.receiver, e.receiver),
            tag=e.tag,
            decoded_fields=_remap_decoded(e.decoded_fields, mapping),
        )
        for e in trace.events
    ]
    out.decoded_outputs = {
        mapping.get(v, v): _remap_decoded(o, mapping)
        for v, o in trace.decoded_outputs.items()
    }
    return out


def first_divergence(a: ExecutionTrace, b: ExecutionTrace):
    """The first differing decoded event pair, for debugging experiments."""
    ea, eb = a.canonical_events(), b.canonical_events()
    for x, y in zip(ea, eb):
        if x != y:
            return x, y
    if len(ea) != len(eb):
        longer = ea if len(ea) > len(eb) else eb
        return longer[min(len(ea), len(eb))], None
    return None
