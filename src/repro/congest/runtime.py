"""The unified engine runtime: pluggable delivery under one stage core.

A network (:class:`~repro.congest.network.SyncNetwork` and its
subclasses) owns identity, knowledge, and accounting; *when* a charged
message reaches its receiver is the business of a :class:`Scheduler`.
This module provides the two delivery disciplines of the paper:

* :class:`RoundScheduler` — synchronous CONGEST rounds.  Messages in
  flight live in a ring-buffer of round slots; each directed link
  carries one message per round, a w-word payload occupies
  ``ceil(w / words_per_message)`` consecutive rounds on its link, and
  bursts to the same neighbor queue behind each other.  This is the
  reference discipline: fixed-seed counts through it are bit-stable and
  gated by ``benchmarks/check_regression.py``.

* :class:`EventScheduler` — the standard asynchronous model (paper
  Section 3.1.1): every charged packet takes a finite delay drawn from a
  seeded :class:`LatencyModel`, links stay FIFO, and nodes act only when
  messages arrive.  ``stats.rounds`` records ``ceil(total time)``, the
  normalized asynchronous time complexity.

Latency models are :class:`LatencyModel` subclasses, all driven by one
seeded ``random.Random`` stream per network, so executions are
reproducible cell-by-cell.  Fault models (the robustness seam) are
:class:`FaultModel` subclasses: a network may carry one, consulted on
every charged copy of a send (once per receiver) and every node
activation by *both* schedulers.  Each model is spelled by its class's
``name``; ``docs/engines.md`` and ``docs/faults.md`` tabulate them.

Adding a discipline means subclassing :class:`Scheduler` (two methods:
``schedule_fanout`` and ``run_stage``); adding a latency model means
subclassing :class:`LatencyModel` with a ``name`` and listing the class
in ``_LATENCY_CLASSES``, which :data:`LATENCY_MODELS` reads.  See
``docs/engines.md``.

Failure semantics are engine-level, not protocol-level: a stage that
quiesces (or exhausts its round budget) with unfinished nodes under an
active fault model marks them ``starved`` instead of raising
:class:`~repro.errors.ConvergenceError`, and every node that crashed,
missed a dropped envelope, or starved is a *casualty* — output
verification is restricted to the surviving nodes (see
``repro.api`` and ``docs/faults.md`` for the survivor-validity
contract).
"""

from __future__ import annotations

import heapq
import math
import random
from collections import defaultdict
from typing import TYPE_CHECKING, Optional

from repro.congest.message import Envelope, Msg
from repro.errors import ConvergenceError, ReproError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.congest.network import SyncNetwork


# ---------------------------------------------------------------------------
# Latency models
# ---------------------------------------------------------------------------


class LatencyModel:
    """Per-packet delay distribution for the event-driven scheduler.

    Implementations draw from the ``random.Random`` handed in by the
    scheduler (one seeded stream per network, shared across stages), so
    a fixed seed reproduces the exact arrival schedule.
    """

    name = "?"

    def packet_delay(self, rng: random.Random) -> float:
        raise NotImplementedError

    def begin(self, net) -> None:
        """Reset per-execution state; called from ``EventScheduler.bind``.

        Stateless distributions ignore this; stateful models (the
        latency adversary) size and zero their per-sender bookkeeping
        here so an instance reused across networks starts fresh.
        """

    def link_delay(self, env: "Envelope", charged: int,
                   rng: random.Random) -> float:
        """Total delay for a charged k-message payload on its link.

        The default replicates the scheduler's historical draw loop
        exactly — first packet plus ``charged - 1`` more, in order — so
        every distribution-only model consumes the identical rng stream
        and fixed-seed arrival schedules are unchanged.  The base
        :meth:`fanout_delays` calls it once per receiver, in order, with
        the send's shared envelope; models that need to know who is
        sending override this.
        """
        delay = self.packet_delay(rng)
        for _ in range(charged - 1):
            delay += self.packet_delay(rng)
        return delay

    def fanout_delays(self, env: "Envelope", charged: int, k: int,
                      rng: random.Random) -> list[float]:
        """The link delays of a fan-out's ``k`` copies, in receiver order.

        The scheduler makes this one call per send.  The default calls
        :meth:`link_delay` once per copy, so a model that overrides
        ``link_delay`` (the latency adversary's per-copy bookkeeping)
        keeps its behaviour.  ``uniform`` overrides it with the same
        draws, in the same order, summed the same way.
        """
        link_delay = self.link_delay
        return [link_delay(env, charged, rng) for _ in range(k)]

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"{type(self).__name__}()"


class FixedLatency(LatencyModel):
    """Every packet takes exactly ``delay`` — asynchrony without jitter.

    Useful as a control: reordering effects vanish and any count drift
    against the synchronous run is pure synchronizer/selection overhead.
    """

    name = "fixed"

    def __init__(self, delay: float = 1.0):
        if delay <= 0:
            raise ReproError(f"{self.name} latency delay must be positive")
        self.delay = delay

    def packet_delay(self, rng: random.Random) -> float:
        return self.delay


class UniformLatency(LatencyModel):
    """uniform(low, high) per packet — the normalized adversary.

    The defaults reproduce the engine's historical behavior (least
    delay 0.05, max delay normalized to 1).
    """

    name = "uniform"

    def __init__(self, low: float = 0.05, high: float = 1.0):
        if not 0 <= low <= high:
            raise ReproError(f"{self.name} latency needs 0 <= low <= high")
        self.low = low
        self.high = high

    def packet_delay(self, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # A subclass that changes a draw without its own fan-out call
        # draws through the per-copy loop, not the inline copy below.
        own = vars(cls)
        if "fanout_delays" not in own and (
                "packet_delay" in own or "link_delay" in own):
            cls.fanout_delays = LatencyModel.fanout_delays

    def fanout_delays(self, env: "Envelope", charged: int, k: int,
                      rng: random.Random) -> list[float]:
        # rng.uniform(a, b) is a + (b - a) * rng.random(): the same
        # draws, inline.
        low = self.low
        span = self.high - low
        draw = rng.random
        if charged == 1:
            return [low + span * draw() for _ in range(k)]
        delays = []
        for _ in range(k):
            delay = low + span * draw()
            for _ in range(charged - 1):
                delay += low + span * draw()
            delays.append(delay)
        return delays


class ExponentialLatency(LatencyModel):
    """Memoryless per-packet delay with the given ``mean``.

    Unbounded above: time units are the model's scale rather than a
    normalized max delay (the paper's normalization assumes bounded
    delays; the empirical engine is happy to explore beyond it).
    """

    name = "exponential"

    def __init__(self, mean: float = 0.5):
        if mean <= 0:
            raise ReproError(f"{self.name} latency mean must be positive")
        self.mean = mean

    def packet_delay(self, rng: random.Random) -> float:
        return rng.expovariate(1.0 / self.mean)


class HeavyTailLatency(LatencyModel):
    """Pareto(alpha)-distributed delays scaled by ``scale``.

    ``alpha <= 2`` gives infinite variance — occasional packets are
    orders of magnitude slower than the median, which is exactly the
    regime that separates count-based lockstep protocols from
    round-cadence ones.
    """

    name = "heavy_tail"

    def __init__(self, alpha: float = 1.5, scale: float = 0.1):
        if alpha <= 0 or scale <= 0:
            raise ReproError(f"{self.name} latency needs alpha, scale > 0")
        self.alpha = alpha
        self.scale = scale

    def packet_delay(self, rng: random.Random) -> float:
        return self.scale * rng.paretovariate(self.alpha)


class _BusiestSender:
    """The targeting rule both adversaries share.

    Charged messages are counted per sender as they accrue (on the
    instance: ``_sent``, ``_max``, ``remaining``); a payload is targeted
    when its sender holds the running maximum (ties included), has sent
    more than ``warmup`` messages (so the first node to speak is never
    hit) and the ``budget`` is not spent (so runs still terminate).  It
    consumes no randomness, only the observed send order.
    """

    def _set_bounds(self, budget: int, warmup: int) -> None:
        if budget < 0:
            raise ReproError(f"{self.name} budget must be >= 0")
        if warmup < 0:
            raise ReproError(f"{self.name} warmup must be >= 0")
        self.budget = budget
        self.warmup = warmup

    def _start_targeting(self, n: int) -> None:
        """Zero the per-sender counts of an ``n``-node execution."""
        self._sent = [0] * n
        self._max = 0
        self.remaining = self.budget

    def _targets(self, sender: int, charged: int) -> bool:
        """Charge ``charged`` messages to ``sender``; True when this
        payload is targeted (one unit of the budget spent)."""
        count = self._sent[sender] + charged
        self._sent[sender] = count
        is_busiest = count >= self._max
        if count > self._max:
            self._max = count
        if is_busiest and count > self.warmup and self.remaining > 0:
            self.remaining -= 1
            return True
        return False


class AdversaryLatency(_BusiestSender, LatencyModel):
    """Slow the links of whichever sender is currently busiest.

    The latency twin of :class:`AdaptiveAdversary`: instead of dropping
    the busiest sender's traffic it stretches the delay of each of that
    sender's payloads by ``slowdown``, targeting exactly the node the
    message-frugal algorithms route their communication through.  It
    targets by the drop adversary's rule (:class:`_BusiestSender`:
    warmup- and budget-bounded, at most ``budget`` payloads slowed per
    execution).  Base delays come from a :class:`UniformLatency` draw,
    so against ``uniform`` cells any count drift is pure adversarial
    reordering; the targeting consumes no randomness — for a fixed seed
    the arrival schedule is exact.
    """

    name = "adversary_latency"

    def __init__(self, slowdown: float = 8.0, budget: int = 64,
                 warmup: int = 4, min_delay: float = 0.05):
        if slowdown < 1:
            raise ReproError(f"{self.name} slowdown must be >= 1")
        self._set_bounds(budget, warmup)
        self.base = UniformLatency(low=min_delay)
        self.slowdown = slowdown

    @property
    def slowed(self) -> int:
        """Payloads slowed in this execution."""
        return self.budget - self.remaining

    def begin(self, net) -> None:
        self._start_targeting(net._n)

    def packet_delay(self, rng: random.Random) -> float:
        return self.base.packet_delay(rng)

    def link_delay(self, env: "Envelope", charged: int,
                   rng: random.Random) -> float:
        # Identical draw order to the default implementation, so the
        # base schedule matches `uniform` draw-for-draw; targeting only
        # scales what was drawn.
        delay = super().link_delay(env, charged, rng)
        if self._targets(env.sender, charged):
            return delay * self.slowdown
        return delay


_LATENCY_CLASSES = {cls.name: cls for cls in (
    FixedLatency, UniformLatency, ExponentialLatency, HeavyTailLatency,
    AdversaryLatency)}

#: Latency-model vocabulary shared by the engine, SweepSpec, and the CLI.
LATENCY_MODELS = tuple(_LATENCY_CLASSES)


def make_latency_model(spec) -> LatencyModel:
    """Resolve a latency-model spec: an instance passes through, a name
    builds the registered class with defaults."""
    if isinstance(spec, LatencyModel):
        return spec
    cls = _LATENCY_CLASSES.get(spec)
    if cls is None:
        raise ReproError(
            f"unknown latency model {spec!r}; "
            f"known: {', '.join(LATENCY_MODELS)}"
        )
    return cls()


# ---------------------------------------------------------------------------
# Fault models
# ---------------------------------------------------------------------------


class FaultModel:
    """Seeded failure injector consulted by both schedulers.

    A fault model is bound to exactly one network (like a
    :class:`Scheduler`) and draws from its own ``random.Random`` stream
    (``faults-{seed}``), independent of the latency stream, so a fixed
    seed reproduces the exact failure pattern on either engine.

    Two hooks, both cheap and both optional to override:

    * :meth:`drops` — called at flush time once per receiver of every
      charged send, in submission order.  Returning True loses that copy
      *after* it has been charged (charged-but-undelivered: the sender
      paid for the bandwidth, the receiver never sees it).
    * :meth:`crashed_at` — called with a vertex and the engine's
      cumulative clock (synchronous round count or normalized async
      time, accumulated across stages).  While it returns True the node
      neither activates nor has envelopes delivered to or from it.

    Every vertex that ever suffers a fault lands in :attr:`casualties`
    (vertex -> first reason: ``"crashed"``, ``"dropped"`` — it missed a
    dropped envelope — or ``"starved"`` — it never finished after the
    stage quiesced).  Output verification restricts itself to the
    complement (the survivors); see ``docs/faults.md``.
    """

    name = "?"

    def __init__(self):
        self.net: Optional["SyncNetwork"] = None
        self.rng: Optional[random.Random] = None
        self.spec: str = self.name
        self.casualties: dict[int, str] = {}

    def bind(self, net: "SyncNetwork") -> None:
        if self.net is not None and self.net is not net:
            raise ReproError("a FaultModel instance serves a single network")
        self.net = net
        self.rng = random.Random(f"faults-{net.seed}")
        self._on_bind()

    def _on_bind(self) -> None:
        """Hook for subclasses that pre-draw schedules at bind time."""

    def drops(self, env: Envelope, receiver: int, charged: int) -> bool:
        """Decide the fate of the copy of ``env`` bound for ``receiver``
        (True = lost)."""
        return False

    def crashed_at(self, vertex: int, now: float) -> bool:
        """Is ``vertex`` crashed at cumulative engine time ``now``?"""
        return False

    def mark(self, vertex: int, reason: str) -> None:
        """Record a casualty; the first reason per vertex wins."""
        self.casualties.setdefault(vertex, reason)

    @property
    def crashed_count(self) -> int:
        return sum(1 for r in self.casualties.values() if r == "crashed")

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return f"{type(self).__name__}({self.spec!r})"


class MessageDrop(FaultModel):
    """Lose each charged envelope independently with probability ``p``.

    The receiver of a dropped envelope is a ``"dropped"`` casualty even
    if the protocol happens to limp to a correct answer without it — the
    survivor-validity contract never vouches for a node that ran on
    partial information.
    """

    name = "drop"

    def __init__(self, p: float = 0.05):
        super().__init__()
        if not 0.0 <= p <= 1.0:
            raise ReproError(
                f"{self.name} probability must be in [0, 1], got {p}")
        self.p = p
        self.spec = f"{self.name}:{p:g}"

    def drops(self, env: Envelope, receiver: int, charged: int) -> bool:
        if self.p and self.rng.random() < self.p:
            self.mark(receiver, "dropped")
            return True
        return False


class NodeCrash(FaultModel):
    """Crash/recovery schedule on the engine's cumulative clock.

    Either hand in an explicit ``schedule`` mapping
    ``vertex -> (crash_time, recover_time | None)`` (tests do), or let
    :meth:`bind` draw one: each vertex crashes with probability ``p`` at
    a seeded time uniform in [1, ``at``], recovering ``recover`` time
    units later (None = never).  A crashed node neither activates nor
    sends, and in-flight envelopes to or from it are discarded at
    delivery time (counted as dropped).  A node that ever crashed is a
    ``"crashed"`` casualty even after recovery.
    """

    name = "crash"

    def __init__(self, schedule=None, p: float = 0.05, at: float = 16.0,
                 recover: Optional[float] = None):
        super().__init__()
        if schedule is None and not 0.0 <= p <= 1.0:
            raise ReproError(
                f"{self.name} probability must be in [0, 1], got {p}")
        if at < 1.0:
            raise ReproError(f"{self.name} horizon must be >= 1")
        if recover is not None and recover <= 0:
            raise ReproError(f"{self.name} recovery delay must be positive")
        self.p = p
        self.at = at
        self.recover = recover
        self._explicit = schedule
        self._schedule: dict[int, tuple[float, float]] = {}
        if schedule is None:
            self.spec = f"{self.name}:{p:g}:{at:g}" + (
                f":{recover:g}" if recover is not None else ""
            )
        else:
            self.spec = f"{self.name}:<explicit>"

    def _on_bind(self) -> None:
        if self._explicit is not None:
            self._schedule = {
                v: (float(t0), math.inf if t1 is None else float(t1))
                for v, (t0, t1) in self._explicit.items()
            }
            return
        rng = self.rng
        for v in range(self.net._n):
            if rng.random() < self.p:
                t0 = rng.uniform(1.0, self.at)
                t1 = math.inf if self.recover is None else t0 + self.recover
                self._schedule[v] = (t0, t1)

    def crashed_at(self, vertex: int, now: float) -> bool:
        window = self._schedule.get(vertex)
        if window is None or now < window[0]:
            return False
        self.mark(vertex, "crashed")
        return now < window[1]


class AdaptiveAdversary(_BusiestSender, FaultModel):
    """Drop the traffic of whichever sender is currently busiest.

    Every copy of an envelope whose sender the shared targeting rule
    (:class:`_BusiestSender`) picks is discarded — exactly the node the
    message-frugal algorithms concentrate their communication through,
    at most ``budget`` copies per execution.
    """

    name = "adversary"

    def __init__(self, budget: int = 64, warmup: int = 4):
        super().__init__()
        self._set_bounds(budget, warmup)
        self.spec = f"{self.name}:{budget}:{warmup}"

    def _on_bind(self) -> None:
        self._start_targeting(self.net._n)

    def drops(self, env: Envelope, receiver: int, charged: int) -> bool:
        if self._targets(env.sender, charged):
            self.mark(receiver, "dropped")
            return True
        return False


#: Each fault model's spec parameters in ``name:a:b`` order, with the
#: type a token parses to; an omitted parameter keeps its constructor
#: default.
_FAULT_GRAMMAR = {cls.name: (cls, params) for cls, params in (
    (MessageDrop, (("p", float),)),
    (NodeCrash, (("p", float), ("at", float), ("recover", float))),
    (AdaptiveAdversary, (("budget", int), ("warmup", int))),
)}

#: Fault-model vocabulary shared by the engine, SweepSpec, and the CLI.
#: Specs are ``name[:param[:param...]]`` strings; see ``docs/faults.md``.
FAULT_MODELS = ("none", *_FAULT_GRAMMAR)


def make_fault_model(spec) -> Optional[FaultModel]:
    """Resolve a fault spec to a model, or None for the fault-free path.

    ``None``/``"none"`` resolve to None so the engine's hot path stays
    literally the pre-seam code; an instance passes through; a string
    is ``name[:param...]`` as ``_FAULT_GRAMMAR`` lists for the name.
    """
    if spec is None:
        return None
    if isinstance(spec, FaultModel):
        return spec
    if not isinstance(spec, str):
        raise ReproError(f"fault spec must be a string, got {type(spec)!r}")
    if spec == "none":
        return None
    head, sep, rest = spec.partition(":")
    grammar = _FAULT_GRAMMAR.get(head)
    if grammar is None:
        raise ReproError(
            f"unknown fault model {spec!r}; known: {', '.join(FAULT_MODELS)}"
        )
    cls, params = grammar
    # "drop:" (a colon with nothing after it) is malformed, not an
    # alias for the defaults — split on the separator, so the empty
    # token reaches the numeric parse and fails loudly.
    args = rest.split(":") if sep else []
    if len(args) > len(params):
        raise ReproError(
            f"{head} spec takes at most {len(params)} params: {spec!r}")
    try:
        return cls(**{name: parse(token)
                      for (name, parse), token in zip(params, args)})
    except ReproError as exc:
        # Constructor range errors ("drop probability must be in
        # [0, 1]") know the parameter but not which spec supplied it;
        # name the spec so a failing 40-cell sweep axis is debuggable.
        raise ReproError(f"bad fault spec {spec!r}: {exc}") from exc
    except ValueError as exc:
        raise ReproError(f"malformed fault spec {spec!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# Schedulers
# ---------------------------------------------------------------------------


class Scheduler:
    """Delivery discipline: owns in-flight messages and the stage loop.

    A scheduler is bound to exactly one network (:meth:`bind`, called by
    the network constructor) and reused across its stages.  The network
    keeps validation, charging, and the outbox; it calls
    :meth:`schedule_fanout` once per charged send (from its outbox
    flush) and :meth:`run_stage` once per protocol stage.
    """

    #: "sync" or "async" — what ``stats.rounds`` means under this
    #: scheduler (synchronous rounds vs normalized time).
    kind = "?"

    def __init__(self):
        self.net: Optional["SyncNetwork"] = None

    def bind(self, net: "SyncNetwork") -> None:
        if self.net is not None and self.net is not net:
            raise ReproError("a Scheduler instance serves a single network")
        self.net = net

    def schedule_fanout(self, env: Envelope, receivers: list[int],
                        charged: int) -> None:
        """Enqueue one analyzed, charged send for delivery to each vertex
        in ``receivers``, in order (a vertex may repeat; each copy
        queues on its link behind the previous one)."""
        raise NotImplementedError

    def run_stage(self, stage_name: str, algorithms, contexts,
                  max_rounds: int) -> tuple[int, bool]:
        """Drive one stage to quiescence.

        Returns ``(rounds, converged)`` where ``rounds`` is what the
        stage costs on this discipline's clock (synchronous rounds or
        ceil of normalized time).  Sends buffered by the nodes land in
        the network's outbox; the loop must flush it via
        ``net._flush_outbox()`` with ``net._current_round`` set.
        """
        raise NotImplementedError

    def _crash_discards(self, env: Envelope, receiver: int,
                        faults: FaultModel, now: float) -> bool:
        """Discard an in-flight copy whose endpoint is crashed at delivery
        time; the loss is charged to ``dropped_messages``."""
        if (faults.crashed_at(receiver, now)
                or faults.crashed_at(env.sender, now)):
            net = self.net
            wpm = net.words_per_message
            words = env.words
            net.stats.charge_dropped(
                1 if words <= wpm else -(-words // wpm)
            )
            return True
        return False

    @staticmethod
    def _over_budget(stage_name: str, max_rounds: int) -> ConvergenceError:
        """The error of a stage that ran out of work rounds."""
        return ConvergenceError(
            f"stage '{stage_name}' exceeded {max_rounds} rounds"
        )

    def _deadlocked(self, stage_name: str, contexts) -> ConvergenceError:
        """The error of a quiescent stage with unfinished nodes."""
        unfinished = [
            v for v in range(self.net._n) if not contexts[v]._finished
        ]
        return ConvergenceError(
            f"stage '{stage_name}' deadlocked with unfinished "
            f"nodes {unfinished[:10]} (total {len(unfinished)})"
        )

    def _mark_starved(self, contexts, faults: FaultModel,
                      now: float) -> None:
        """Every unfinished, un-crashed node at stage end is starved."""
        for v in range(self.net._n):
            if not contexts[v]._finished and not faults.crashed_at(v, now):
                faults.mark(v, "starved")


class RoundScheduler(Scheduler):
    """Synchronous CONGEST rounds (the reference discipline).

    Messages in flight live in a ring-buffer slot scheduler: slot
    ``r & mask`` holds ``(receivers, envelope)`` batches delivered at
    round r — a fan-out whose links are all free lands as one batch.
    Each directed edge carries one message per round; a w-word payload
    occupies ``ceil(w / words_per_message)`` consecutive slots on its
    link, and bursts to the same neighbor queue up behind each other.
    The ring grows (power of two) whenever a payload is scheduled beyond
    the current horizon, preserving the invariant that every pending
    round lies within ring_size of the current round — so slots never
    alias.
    Link occupancy is a flat ``sender*n + receiver`` list (dict fallback
    for very large graphs where the n^2 list would dominate memory).
    """

    kind = "sync"

    #: Largest n*n for which per-link occupancy uses a flat list (above
    #: it, a dict keyed by the same flat index — the list would cost
    #: 8 * n^2 bytes per stage).
    _LINK_ARRAY_MAX = 1 << 21

    def _begin_stage(self) -> None:
        n = self.net._n
        self._ring: list[list[tuple]] = [[] for _ in range(64)]
        self._ring_mask = 63
        self._in_flight = 0
        # Per-directed-link next-free round, flat-indexed sender*n +
        # receiver; a missing dict key reads as round 0, like the list.
        # A list, not an array: reads then return stored ints instead
        # of boxing a new one per access.
        if n * n <= self._LINK_ARRAY_MAX:
            self._link_free = [0] * (n * n)
        else:
            self._link_free = defaultdict(int)

    def schedule_fanout(self, env: Envelope, receivers: list[int],
                        charged: int) -> None:
        cur = self.net._current_round
        earliest = cur + 1
        tail = charged - 1
        deliver_at = earliest + tail
        free_after = deliver_at + 1
        base = env.sender * self.net._n
        link_free = self._link_free
        # Fast path: every link free by the next round, so the whole
        # fan-out lands in one slot as one batch.
        pending = iter(receivers)
        for receiver in pending:
            key = base + receiver
            if link_free[key] > earliest:
                break
            link_free[key] = free_after
        else:
            self._enqueue(deliver_at, receivers, env)
            return
        # A busy link (an earlier payload, or a repeated receiver):
        # the receivers before it are on time; the rest are placed one
        # by one and grouped per delivery round, each group in order.
        rest = [receiver, *pending]
        groups = {deliver_at: receivers[:len(receivers) - len(rest)]}
        for receiver in rest:
            key = base + receiver
            free = link_free[key]
            at = (free if free > earliest else earliest) + tail
            link_free[key] = at + 1
            group = groups.get(at)
            if group is None:
                groups[at] = [receiver]
            else:
                group.append(receiver)
        for at, group in groups.items():
            if group:
                self._enqueue(at, group, env)

    def _enqueue(self, deliver_at: int, receivers: list[int],
                 env: Envelope) -> None:
        horizon = deliver_at - self.net._current_round
        if horizon > self._ring_mask + 1:
            self._grow_ring(horizon)
        self._ring[deliver_at & self._ring_mask].append((receivers, env))
        self._in_flight += 1

    def _grow_ring(self, horizon: int) -> None:
        """Double the delivery ring until ``horizon`` rounds fit.

        Every pending round r satisfies cur < r <= cur + old_size, so its
        absolute value is recoverable from its old slot index and re-slots
        uniquely in the bigger ring.
        """
        old = self._ring
        old_size = len(old)
        new_size = old_size
        while new_size < horizon:
            new_size *= 2
        new_ring: list[list[tuple]] = [[] for _ in range(new_size)]
        cur = self.net._current_round
        new_mask = new_size - 1
        for i, slot in enumerate(old):
            if slot:
                r = cur + 1 + ((i - cur - 1) % old_size)
                new_ring[r & new_mask] = slot
        self._ring = new_ring
        self._ring_mask = new_mask

    def run_stage(self, stage_name: str, algorithms, contexts,
                  max_rounds: int) -> tuple[int, bool]:
        net = self.net
        n = net._n
        self._begin_stage()
        passive = all(a.passive_when_idle for a in algorithms)
        round_index = 0
        converged = False
        collect = net.collect_utilization
        register_ids = net._register_received_ids
        faults = net.faults
        # Faults run on the *cumulative* round clock: stats.rounds holds
        # the total of all prior stages (this stage's rounds are charged
        # at stage end), so a crash schedule spans stage boundaries.
        base_time = net.stats.rounds if faults is not None else 0

        # Per-vertex inboxes filled at delivery time; an activated node
        # takes its list as its inbox and leaves a fresh one behind.
        # ``touched`` lists the vertices with a non-empty inbox in
        # first-arrival order.
        inbox_buffers: list[list[Msg]] = [[] for _ in range(n)]
        touched: list[int] = []

        # The round budget counts rounds in which the engine does work
        # (delivers messages / activates nodes).  Rounds a passive stage
        # fast-forwards over are free: a multi-word payload may legally be
        # *scheduled* past ``max_rounds`` and still be delivered, so the
        # budget cannot simply compare the round index (which would declare
        # non-convergence while a delivery is imminent and the stage is
        # about to quiesce).  For round-cadence stages every round is a
        # work round, so this is the same budget as before.
        work_rounds = 0
        while True:
            work_rounds += 1
            if work_rounds > max_rounds + 1:
                if faults is not None:
                    # Budget exhaustion under faults is data, not a bug:
                    # the stragglers are casualties and the stage ends.
                    self._mark_starved(contexts, faults,
                                       base_time + round_index)
                    break
                raise self._over_budget(stage_name, max_rounds)
            net._current_round = round_index
            slot_index = round_index & self._ring_mask
            arriving = self._ring[slot_index]
            if arriving:
                self._ring[slot_index] = []
                self._in_flight -= len(arriving)
                for receivers, env in arriving:
                    if faults is not None:
                        now = base_time + round_index
                        receivers = [
                            r for r in receivers
                            if not self._crash_discards(env, r, faults, now)
                        ]
                    if collect and env.ids:
                        for receiver in receivers:
                            register_ids(receiver, env.ids)
                    msg = env.msg
                    for receiver in receivers:
                        buf = inbox_buffers[receiver]
                        if not buf:
                            touched.append(receiver)
                        buf.append(msg)
            active_vertices = (
                range(n)
                if (round_index == 0 or not passive)
                else touched
            )
            for v in active_vertices:
                if faults is not None and faults.crashed_at(
                        v, base_time + round_index):
                    continue    # crashed: no activation, no sends
                ctx = contexts[v]
                ctx.round = round_index
                ctx._send_allowed = True
                inbox = inbox_buffers[v]
                inbox_buffers[v] = []
                algorithms[v].on_round(ctx, inbox)
                ctx._send_allowed = False
            if faults is not None:
                # A crashed node skipped activation with mail waiting.
                for v in touched:
                    inbox_buffers[v].clear()
            touched.clear()
            if net._outbox:
                net._flush_outbox()
            if faults is None:
                all_done = all(c._finished for c in contexts)
            else:
                # A currently-crashed node cannot finish; it does not
                # hold the stage open.
                now = base_time + round_index
                all_done = all(
                    contexts[v]._finished or faults.crashed_at(v, now)
                    for v in range(n)
                )
            if not self._in_flight:
                if all_done:
                    converged = True
                    round_index += 1
                    break
                if passive and round_index > 0:
                    if faults is not None:
                        # Quiescent with stragglers: under faults this is
                        # the expected silence cascade, not a protocol
                        # bug — mark them starved and end the stage.
                        self._mark_starved(contexts, faults,
                                           base_time + round_index)
                        converged = True
                        round_index += 1
                        break
                    raise self._deadlocked(stage_name, contexts)
                round_index += 1
            elif passive:
                # Idle nodes never act on silence: jump to the next
                # delivery — the nearest non-empty ring slot (guaranteed
                # within one ring length while messages are in flight).
                ring = self._ring
                mask = self._ring_mask
                r = round_index + 1
                while not ring[r & mask]:
                    r += 1
                round_index = r
            else:
                round_index += 1
        return round_index, converged


class ColumnarRoundScheduler(RoundScheduler):
    """Synchronous rounds executed as numpy array operations.

    Drop-in replacement for :class:`RoundScheduler` that, for stages
    whose algorithm opts in via
    :class:`~repro.congest.node.ColumnarStage`, runs the whole round as
    a handful of array ops: the kernel emits
    :class:`~repro.congest.columnar.SendBatch` fan-outs, the scheduler
    charges and link-schedules each batch over the flat
    ``sender*n + receiver`` occupancy array in one vectorized pass, and
    deliveries scatter back into the kernel's per-phase banks via the
    reverse-edge involution.  Counts are bit-identical to the scalar
    path (same per-round envelope multiset, same link arithmetic, same
    per-node RNG draws); the parity suite and check_regression.py gate
    it.  Everything irregular — fault models, tracing, eager charging,
    non-columnar stages, asymmetric active sets, missing numpy — falls
    back to the inherited scalar ``run_stage``.  See
    ``docs/columnar.md``.
    """

    def run_stage(self, stage_name, algorithms, contexts, max_rounds):
        kernel = self._columnar_kernel(algorithms, contexts)
        if kernel is None:
            return super().run_stage(
                stage_name, algorithms, contexts, max_rounds
            )
        return self._run_columnar(
            kernel, stage_name, algorithms, contexts, max_rounds
        )

    def _columnar_kernel(self, algorithms, contexts):
        """Build the stage kernel, or None for the scalar fallback.

        Builder exceptions propagate: a kernel that *declines* returns
        None, a kernel that *breaks* is a bug we want loud.
        """
        from repro.congest.columnar import get_numpy
        from repro.congest.node import ColumnarStage

        net = self.net
        if (net.faults is not None or net.trace is not None
                or net.eager_charges):
            return None
        n = net._n
        if n == 0 or n * n > self._LINK_ARRAY_MAX:
            return None
        if not algorithms:
            return None
        first = algorithms[0]
        cls = type(first)
        if not isinstance(first, ColumnarStage):
            return None
        if not cls.passive_when_idle:
            return None
        if any(type(a) is not cls for a in algorithms):
            return None
        if get_numpy(warn=True) is None:
            return None
        return cls.build_columnar_kernel(net, algorithms, contexts)

    def _run_columnar(self, kernel, stage_name, algorithms, contexts,
                      max_rounds):
        """The columnar stage loop — a vectorized mirror of the scalar
        ``run_stage``: same work-round budget, same quiescence and
        deadlock conditions, same fast-forward to the next delivery."""
        from repro.congest.columnar import sender_counts_view

        net = self.net
        n = net._n
        np_ = kernel.np
        graph = kernel.graph
        esrc = graph.esrc
        edst = graph.edst
        stats = net.stats
        collect = net.collect_utilization
        wpm = net.words_per_message
        link_free = np_.zeros(n * n, dtype=np_.int64)
        #: deliver_round -> list of (SendBatch, index-subset or None).
        pending: dict[int, list] = {}
        if collect:
            by_tag = stats.by_tag
            utilized = stats._utilized
            senders_view = sender_counts_view(np_, stats)

        def flush(batches, cur):
            """Charge and link-schedule one round's emissions.

            Batches run sequentially in emission order (so repeated
            sends on one link queue exactly as the scalar path queues
            them); within a batch every directed link appears at most
            once, so the occupancy update is a plain gather/scatter.
            """
            total_sends = 0
            total_words = 0
            total_msgs = 0
            for batch in batches:
                eids = batch.eids
                if not len(eids):
                    continue
                words = batch.words
                charged = (words + wpm - 1) // wpm
                senders = esrc[eids]
                receivers = edst[eids]
                keys = senders * n + receivers
                deliver = (
                    np_.maximum(link_free[keys], cur + 1) + charged - 1
                )
                link_free[keys] = deliver + 1
                msgs = int(charged.sum())
                total_sends += len(eids)
                total_words += int(words.sum())
                total_msgs += msgs
                if collect:
                    if batch.tag:
                        by_tag[batch.tag] = (
                            by_tag.get(batch.tag, 0) + msgs
                        )
                    if senders_view is not None:
                        # bincount's float64 weights are exact here
                        # (charges are tiny integers, totals << 2^53).
                        np_.add(
                            senders_view,
                            np_.bincount(
                                senders, weights=charged, minlength=n
                            ).astype(np_.int64),
                            out=senders_view,
                        )
                    else:  # pragma: no cover - read-only buffer platform
                        counts = stats._sender_counts
                        for s, c in zip(senders.tolist(),
                                        charged.tolist()):
                            counts[s] += c
                    utilized.update(np_.unique(
                        np_.where(senders < receivers, keys,
                                  receivers * n + senders)
                    ).tolist())
                rounds_out = np_.unique(deliver)
                if len(rounds_out) == 1:
                    pending.setdefault(int(rounds_out[0]), []).append(
                        (batch, None)
                    )
                else:
                    for r in rounds_out.tolist():
                        pending.setdefault(r, []).append(
                            (batch, np_.flatnonzero(deliver == r))
                        )
            stats.charge_send_batch(total_sends, total_words, total_msgs)

        round_index = 0
        converged = False
        work_rounds = 0
        while True:
            work_rounds += 1
            if work_rounds > max_rounds + 1:
                raise self._over_budget(stage_name, max_rounds)
            net._current_round = round_index
            arriving = pending.pop(round_index, None)
            if round_index == 0:
                batches = kernel.begin()
            elif arriving is not None:
                batches = kernel.deliver(arriving)
            else:
                batches = ()
            if batches:
                flush(batches, round_index)
            all_done = all(c._finished for c in contexts)
            if not pending:
                if all_done:
                    converged = True
                    round_index += 1
                    break
                if round_index > 0:
                    raise self._deadlocked(stage_name, contexts)
                round_index += 1
            else:
                # Idle rounds are free: jump to the next delivery, like
                # the scalar scheduler's ring fast-forward.
                round_index = min(pending)
        return round_index, converged


#: Scheduler vocabulary shared by the API, the CLI, and SweepSpec.
SCHEDULERS = ("rounds", "columnar")

#: The sweep's engine axis (``repro.experiments.spec.ENGINES``; here so
#: the CLI need not import the sweep layer): ``sync`` and ``columnar``
#: run the synchronous semantics on the two schedulers, with identical
#: counts; ``async`` is the event-driven engine.
ENGINES = ("sync", "columnar", "async")


def make_scheduler(spec) -> Optional[Scheduler]:
    """Resolve a scheduler spec for a synchronous network.

    ``None``/``"rounds"`` resolve to None (the network builds its
    default :class:`RoundScheduler`); an instance passes through;
    ``"columnar"`` builds a :class:`ColumnarRoundScheduler` — or, when
    numpy is missing, returns None so the engine runs the scalar
    reference path (a one-line warning notes the fallback).
    """
    if spec is None or spec == "rounds":
        return None
    if isinstance(spec, Scheduler):
        return spec
    if spec == "columnar":
        from repro.congest.columnar import get_numpy
        if get_numpy(warn=True) is None:
            return None
        return ColumnarRoundScheduler()
    raise ReproError(
        f"unknown scheduler {spec!r}; known: {', '.join(SCHEDULERS)}"
    )


class EventScheduler(Scheduler):
    """Event-driven delivery with per-packet latency draws (FIFO links).

    A charged k-message payload takes the sum of k packet delays on its
    link; arrivals pop off a heap in time order (ties broken by a
    submission sequence number, so executions are deterministic for a
    fixed seed).  ``run_stage`` activates every node once at time zero,
    then drives the event loop; the stage's ``rounds`` is
    ``ceil(total normalized time)``.
    """

    kind = "async"

    def __init__(self, latency: LatencyModel | str = "uniform"):
        super().__init__()
        self.latency = make_latency_model(latency)
        self._rng: Optional[random.Random] = None

    def bind(self, net: "SyncNetwork") -> None:
        super().bind(net)
        # One delay stream per network, shared across stages, seeded the
        # way the historical AsyncNetwork seeded it.
        self._rng = random.Random(f"delays-{net.seed}")
        self.latency.begin(net)

    def schedule_fanout(self, env: Envelope, receivers: list[int],
                        charged: int) -> None:
        now = self._now
        link_clock = self._link_clock
        queue = self._queue
        push = heapq.heappush
        seq = self._seq
        base = env.sender * self.net._n
        # One call draws every copy's delay, per receiver in order: the
        # rng stream is that of a loop of single sends.
        delays = self.latency.fanout_delays(env, charged, len(receivers),
                                            self._rng)
        for receiver, delay in zip(receivers, delays):
            link = base + receiver
            clock = link_clock[link]
            arrival = (clock if clock > now else now) + delay
            link_clock[link] = arrival
            seq += 1
            push(queue, (arrival, seq, receiver, env))
        self._seq = seq

    def run_stage(self, stage_name: str, algorithms, contexts,
                  max_rounds: int) -> tuple[int, bool]:
        net = self.net
        n = net._n
        self._queue: list = []
        self._seq = 0
        # Per-directed-link FIFO clock, keyed sender*n + receiver; a
        # link that has carried nothing reads as time zero.
        self._link_clock: defaultdict[int, float] = defaultdict(float)
        self._now = 0.0
        net._current_round = 0
        activations = [0] * n
        faults = net.faults
        # Faults run on the cumulative clock (see RoundScheduler): prior
        # stages' ceil(time) totals are already in stats.rounds.
        base_time = net.stats.rounds if faults is not None else 0

        # Initial activation: every node acts once at time zero.  Sends
        # buffer in the shared outbox; one flush (submission order, so
        # identical delay draws) pushes them onto the event heap.
        for v in range(n):
            if faults is not None and faults.crashed_at(v, base_time):
                continue
            ctx = contexts[v]
            ctx.round = 0
            ctx._send_allowed = True
            algorithms[v].on_round(ctx, [])
            ctx._send_allowed = False
        if net._outbox:
            net._flush_outbox()

        max_events = max_rounds * max(n, 1)
        events = 0
        aborted = False
        collect = net.collect_utilization
        while self._queue:
            events += 1
            if events > max_events:
                if faults is not None:
                    aborted = True
                    break
                raise ConvergenceError(
                    f"async stage '{stage_name}' exceeded {max_events} events"
                )
            arrival, _seq, v, env = heapq.heappop(self._queue)
            self._now = arrival
            if faults is not None and self._crash_discards(
                    env, v, faults, base_time + arrival):
                continue
            activations[v] += 1
            ctx = contexts[v]
            ctx.round = activations[v]
            if collect and env.ids:
                net._register_received_ids(v, env.ids)
            ctx._send_allowed = True
            algorithms[v].on_round(ctx, [env.msg])
            ctx._send_allowed = False
            if net._outbox:
                net._flush_outbox()

        unfinished = [v for v in range(n) if not contexts[v]._finished]
        if unfinished:
            if faults is None:
                raise ConvergenceError(
                    f"async stage '{stage_name}' quiesced with unfinished "
                    f"nodes {unfinished[:10]} (total {len(unfinished)})"
                )
            self._mark_starved(contexts, faults, base_time + self._now)
        return max(1, math.ceil(self._now)), not aborted
