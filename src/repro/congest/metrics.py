"""Message-complexity accounting and utilized-edge tracking.

Message complexity is the quantity the whole paper is about; this module
is the measurement instrument.  It tracks:

* ``sends`` — logical send operations performed by algorithms;
* ``messages`` — charged CONGEST messages (a w-word payload costs
  ceil(w / words_per_message) messages);
* ``words`` — total Theta(log n)-bit words moved;
* ``rounds`` — synchronous rounds elapsed;
* ``utilized`` — the utilized edges of Definition 2.3: an edge {u, v} is
  utilized if (i) a message crosses it, (ii) u sends or receives phi(v), or
  (iii) v sends or receives phi(u).

Lemma 2.4 (utilized edges = O(message complexity)) becomes a checkable
invariant: each charged message contains at most O(1) IDs, so it can
utilize at most a constant number of edges; tests assert
``len(utilized) <= utilization_constant * messages``.

Hot-path representation (the engine charges every send through here, so
the containers are flat):

* utilized edges are stored as a ``set[int]`` of ``u * stride + v`` keys
  (``u < v``; ``stride`` is the vertex count) and only decoded
  back to ``(u, v)`` tuples by the :attr:`MessageStats.utilized` property;
* per-sender message counts live in a preallocated ``array('q', n)``
  instead of a dict (:attr:`MessageStats.by_sender` materializes the
  dict view on demand);
* :meth:`MessageStats.charge_send_batch` lets the engine account a whole
  round of sends with one call instead of one per send.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

@dataclass
class StageStats:
    """Accounting for a single protocol stage."""

    name: str
    sends: int = 0
    messages: int = 0
    words: int = 0
    rounds: int = 0
    #: wall-clock seconds the engine spent driving this stage (measured
    #: by the network around the scheduler's run_stage call).  Excluded
    #: from count identity: timing is diagnostic, never a count.
    wall: float = 0.0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "sends": self.sends,
            "messages": self.messages,
            "words": self.words,
            "rounds": self.rounds,
        }


class MessageStats:
    """Cumulative statistics for a network (across all stages).

    ``n`` — the vertex count — sizes the flat per-sender counter array
    and is the utilized-edge key stride.
    """

    def __init__(self, n: int = 0) -> None:
        self.sends = 0
        self.messages = 0
        self.words = 0
        self.rounds = 0
        #: charged messages the fault seam destroyed (drops, crash
        #: discards) — a subset of ``messages``: the sender paid, the
        #: receiver never saw them.  Always 0 on the fault-free path.
        self.dropped_messages = 0
        #: nodes that ever crashed under the active fault model (the
        #: network refreshes this from the FaultModel after each stage).
        self.crashed_nodes = 0
        self.stages: list[StageStats] = []
        #: charged messages per protocol tag (who is spending the budget)
        self.by_tag: dict[str, int] = {}
        self._n = n
        #: utilized-edge flat-key stride: key = u * stride + v with u < v.
        self.utilized_stride = n
        #: flat utilized-edge keys (engine hot path adds here directly).
        self._utilized: set[int] = set()
        #: charged messages per sender vertex: n zeroed signed-64
        #: counters (the engine hot path adds here directly).
        self._sender_counts = array("q", bytes(8 * n))

    # -- charging ------------------------------------------------------------

    def charge_send_batch(self, sends: int, words: int,
                          messages: int) -> None:
        """Account a whole batch of sends (one call per engine round).

        Totals only — per-tag / per-sender / utilized breakdowns are
        either skipped (stats-lite) or applied by the caller alongside
        this call.
        """
        self.sends += sends
        self.words += words
        self.messages += messages
        if self.stages:
            stage = self.stages[-1]
            stage.sends += sends
            stage.words += words
            stage.messages += messages

    def charge_dropped(self, charged_messages: int) -> None:
        """Account charged messages lost to the fault seam (already in
        ``messages`` — this tracks how much of the paid budget the
        adversary destroyed)."""
        self.dropped_messages += charged_messages

    def charge_rounds(self, count: int) -> None:
        self.rounds += count
        if self.stages:
            self.stages[-1].rounds += count

    # -- stage management ----------------------------------------------------

    def begin_stage(self, name: str) -> StageStats:
        stage = StageStats(name=name)
        self.stages.append(stage)
        return stage

    def stage_named(self, name: str) -> StageStats:
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise KeyError(name)

    # -- views ---------------------------------------------------------------

    @property
    def utilized(self) -> set[tuple[int, int]]:
        """The utilized edges as ``(u, v)`` tuples (``u < v``), decoded
        from the flat keys.  Built on demand — hot paths never touch
        tuples."""
        stride = self.utilized_stride
        return {divmod(key, stride) for key in self._utilized}

    @property
    def utilized_count(self) -> int:
        return len(self._utilized)

    @property
    def by_sender(self) -> dict[int, int]:
        """Charged messages per sender vertex (load distribution),
        materialized from the flat counter array (zero entries omitted,
        matching the previous dict semantics)."""
        return {v: c for v, c in enumerate(self._sender_counts) if c}

    def summary(self) -> dict:
        return {
            "sends": self.sends,
            "messages": self.messages,
            "words": self.words,
            "rounds": self.rounds,
            "dropped_messages": self.dropped_messages,
            "crashed_nodes": self.crashed_nodes,
            "utilized_edges": len(self._utilized),
            "stages": [s.as_dict() for s in self.stages],
        }

    def __repr__(self) -> str:
        return (
            f"MessageStats(messages={self.messages}, rounds={self.rounds}, "
            f"utilized={len(self._utilized)})"
        )
