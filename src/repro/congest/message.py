"""CONGEST messages and O(log n)-bit word accounting.

A CONGEST message carries O(log n) bits.  We express payload size in
*words*, where one word is Theta(log n) bits: a node ID is one word, a
small integer (< ID space) is one word, and longer payloads are charged
ceil(bits / word) words.  A single send of w words is charged
``ceil(w / words_per_message)`` CONGEST messages, so protocols are free to
hand the engine a logically-atomic payload and still pay the honest
message price (this mirrors the standard "split into O(log n)-bit pieces"
convention).

Payload fields may contain: ``int``, ``bool``, ``None``, short ``str``
tags, :class:`~repro.congest.ids.NodeId`,
:class:`~repro.util.bitstrings.BitString`, and tuples/frozensets of these.
The engine scans payloads for NodeIds to maintain Definition 2.3's
utilized-edge accounting.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.congest.ids import NodeId
from repro.errors import ModelViolationError
from repro.util.bitstrings import BitString


class Msg:
    """What a node actually receives: the sender's *ID* plus the payload.

    Engine-internal vertex indices never reach algorithm code; in KT-1 and
    above the port-to-neighbor-ID mapping is initial knowledge, so exposing
    the sender ID is model-faithful.  The engine builds one ``Msg`` per
    send (a ``ctx.broadcast`` is one send) when it flushes the outbox, and
    every receiver of that send gets the same object in its inbox —
    algorithms must treat a ``Msg`` as read-only.  A ``__slots__`` class:
    frozen-dataclass construction costs an ``object.__setattr__`` per
    field.
    """

    __slots__ = ("sender_id", "tag", "fields")

    def __init__(self, sender_id: NodeId, tag: str, fields: tuple):
        self.sender_id = sender_id
        self.tag = tag
        self.fields = fields

    def __repr__(self) -> str:
        return f"Msg(from {self.sender_id!r} '{self.tag}' {self.fields!r})"


class Envelope:
    """One send in flight: engine-level routing plus the delivered ``Msg``.

    A fan-out (``ctx.broadcast``, or a ``ctx.send`` as a fan-out of one)
    travels as a single envelope shared by all its receivers; schedulers
    pair it with each receiver vertex.  A plain ``__slots__`` class
    rather than a (frozen) dataclass: the engine builds one per send on
    its hottest path.
    """

    __slots__ = ("sender", "words", "ids", "msg")

    def __init__(self, sender: int, words: int, ids: tuple, msg: Msg):
        self.sender = sender          # vertex index (engine-internal)
        self.words = words
        #: Distinct NodeIds embedded in the payload, extracted once at
        #: send time so the receive side never rescans it (Definition
        #: 2.3 accounting).
        self.ids = ids
        self.msg = msg

    def __repr__(self) -> str:
        msg = self.msg
        return f"Envelope(from {self.sender} '{msg.tag}' {msg.fields!r})"


#: The container types a payload may nest.  Both the word-accounting scan
#: and the Definition 2.3 ID scan recurse into exactly this set, so a
#: field is either encodable AND scanned for IDs, or rejected outright —
#: there is no type (``list`` was one) that one scan honors and the other
#: rejects.
ENCODABLE_CONTAINERS = (tuple, frozenset)


def _scan_field(field: Any, word_bits: int, ids: list) -> int:
    """One-pass field scan: returns the word count and appends every
    :class:`NodeId` encountered to ``ids`` (Definition 2.3 accounting)."""
    if field is None or isinstance(field, bool):
        return 1
    if isinstance(field, NodeId):
        ids.append(field)
        return 1
    if isinstance(field, int):
        bits = max(1, field.bit_length() + (1 if field < 0 else 0))
        return max(1, -(-bits // word_bits))
    if isinstance(field, str):
        if len(field) > 64:
            raise ModelViolationError("string payloads are for short tags only")
        return max(1, -(-(8 * len(field)) // word_bits))
    if isinstance(field, BitString):
        return field.words(word_bits)
    if isinstance(field, ENCODABLE_CONTAINERS):
        return sum(_scan_field(f, word_bits, ids) for f in field)
    raise ModelViolationError(
        f"payload field of type {type(field).__name__} is not encodable; "
        "allowed: int, bool, None, str, NodeId, BitString, tuple, frozenset"
    )


def analyze_payload(fields: tuple, word_bits: int) -> tuple[int, tuple]:
    """Word count plus every embedded NodeId, in a single recursive pass.

    The engine calls this once per send (a ``ctx.broadcast`` is one send)
    and carries the extracted IDs on the :class:`Envelope`, so neither
    the word accounting nor the utilized-edge bookkeeping (send- or
    receive-side) ever rescans the payload.  The returned ID tuple is
    deduplicated (first occurrence order): a payload repeating phi(w) k
    times utilizes the same edge {sender, w} once, so the duplicates
    would only trigger redundant utilized-edge lookups on both the
    send and receive side.
    """
    if not fields:
        return 1, ()
    ids: list = []
    words = 0
    for f in fields:
        words += _scan_field(f, word_bits, ids)
    if len(ids) > 1:
        return words, tuple(dict.fromkeys(ids))
    return words, tuple(ids)


def payload_words(fields: tuple, word_bits: int) -> int:
    """Number of Theta(log n)-bit words the payload occupies (tag is free:
    a tag is O(1) protocol-constant bits, absorbed in the word slack).

    Delegates to :func:`analyze_payload` — there is exactly one payload
    scan in the codebase, so word accounting cannot drift from the
    Definition 2.3 ID extraction.
    """
    return analyze_payload(fields, word_bits)[0]


def iter_node_ids(fields: Any) -> Iterator[NodeId]:
    """Yield every NodeId appearing (recursively) in a payload.

    Recurses into exactly :data:`ENCODABLE_CONTAINERS` — the same set the
    word accounting accepts — so the two scans agree on what a payload is.
    """
    if isinstance(fields, NodeId):
        yield fields
    elif isinstance(fields, ENCODABLE_CONTAINERS):
        for f in fields:
            yield from iter_node_ids(f)
