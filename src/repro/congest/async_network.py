"""The asynchronous KT-rho CONGEST engine (paper Section 3.1.1).

Standard asynchronous model: every message arrives after a finite delay
drawn from a seeded :class:`~repro.congest.runtime.LatencyModel`
(:data:`~repro.congest.runtime.LATENCY_MODELS`); links are FIFO;
*time complexity* of an execution is the total normalized time.
There are no rounds — nodes act only when messages arrive (plus one
initial activation).

Two classes of algorithms run here:

* **Async-native** (``passive_when_idle = True``): every protocol stage
  written in count-based lockstep (progress driven by received-message
  counts, not round numbers) runs unchanged — which is how the
  reproduction of Theorem 3.4 (asynchronous (Δ+1)-coloring with
  Õ(n^1.5) messages in Õ(n) time) works: call ``run_algorithm1`` on an
  AsyncNetwork.

* **Round-cadence** algorithms are *auto-wrapped* in the
  alpha-synchronizer (Theorem A.5, :mod:`repro.congest.synchronizer`)
  at stage-build time, provided the network knows a synchronous round
  budget for the stage: either per-stage ``round_budgets`` (typically
  recorded from a shadow synchronous run of the same seed — what
  :func:`repro.api.color_graph` does) or a blanket
  ``default_round_budget``.  Without any budget the engine still raises
  :class:`~repro.errors.ProtocolError`, because Theorem A.5's simulation
  is defined for algorithms with known round bounds.

Failure injection (``faults=`` — a spec string or
:class:`~repro.congest.runtime.FaultModel`) plugs into the same
delivery path as the latency models: the event scheduler consults it on
every charged envelope and activation, with crash windows read on the
normalized-time clock.  See ``docs/faults.md``.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.congest.network import SyncNetwork
from repro.congest.runtime import EventScheduler, LatencyModel, Scheduler
from repro.congest.synchronizer import AlphaSynchronizer
from repro.errors import ProtocolError


class AsyncNetwork(SyncNetwork):
    """Event-driven engine sharing identity/accounting with SyncNetwork.

    ``latency`` picks the delay distribution (a model name or a
    :class:`LatencyModel` instance).  Under the default ``uniform``
    model each charged packet takes uniform(0.05, 1.0) time, FIFO per
    link; pass ``UniformLatency(low=...)`` for another lower bound.
    ``stats.rounds`` records ceil(total time) per stage, the
    asynchronous time complexity.

    ``round_budgets`` — a sequence of ``(stage_name, sync_rounds)``
    pairs giving, per stage, the number of rounds the same stage took
    on the synchronous engine; round-cadence stages are then
    auto-wrapped in an :class:`AlphaSynchronizer` with budget
    ``sync_rounds - 1`` (the inner algorithm's last executed round
    index).  Async-native stages ignore their budgets.
    ``default_round_budget`` is a blanket inner round budget used when
    no per-stage entry matches.
    """

    def __init__(
        self,
        *args,
        latency: Union[str, LatencyModel] = "uniform",
        round_budgets: Optional[Sequence] = None,
        default_round_budget: Optional[int] = None,
        **kwargs,
    ):
        # The scheduler is built inside SyncNetwork.__init__ via
        # _default_scheduler, so the latency model must be in place first.
        self._latency_spec = latency
        super().__init__(*args, **kwargs)
        self._budget_entries: list[tuple[str, int]] = [
            (str(k), int(v)) for k, v in round_budgets or ()]
        self._budget_cursor = 0
        self.default_round_budget = default_round_budget
        #: Names of the stages this network auto-wrapped in an
        #: AlphaSynchronizer (the synchronizer-overhead bookkeeping).
        self.synchronized_stages: list[str] = []
        if self.trace is not None:
            raise ProtocolError(
                "execution traces are a synchronous-model notion; "
                "run lower-bound experiments on SyncNetwork"
            )

    def _default_scheduler(self) -> Scheduler:
        return EventScheduler(self._latency_spec)

    @property
    def latency_model(self) -> LatencyModel:
        return self.scheduler.latency

    # -- synchronizer auto-wrap ------------------------------------------------

    def _stage_round_budget(self, stage_name: str) -> Optional[int]:
        """Synchronous round count recorded for this stage, if known.

        The budget list is the shadow run's stage sequence, and this
        network replays the same drivers in the same order — so entries
        are consumed *positionally*, advancing a cursor per stage.  This
        keeps repeated stage names aligned (a driver may legally reuse a
        name across stages of different cadences; matching by name alone
        would hand a later round-cadence stage an earlier namesake's
        budget).  A name mismatch at the cursor falls back to scanning
        forward, so hand-built budget lists that only cover some stages
        still resolve.
        """
        entries = self._budget_entries
        i = self._budget_cursor
        if i < len(entries) and entries[i][0] == stage_name:
            self._budget_cursor = i + 1
            return entries[i][1]
        for j in range(i, len(entries)):
            if entries[j][0] == stage_name:
                self._budget_cursor = j + 1
                return entries[j][1]
        return None

    def _adapt_stage(self, algorithm_factory, inputs, stage_name):
        # Consume this stage's budget entry whether or not it is needed,
        # keeping the cursor aligned with the shadow stage sequence.
        sync_rounds = self._stage_round_budget(stage_name)
        probe = algorithm_factory()
        if probe.passive_when_idle:
            return algorithm_factory, inputs
        if sync_rounds is not None:
            # The sync engine executed inner rounds 0..sync_rounds-1; the
            # synchronizer's budget is the last executed round index.
            total_rounds = max(0, sync_rounds - 1)
        elif self.default_round_budget is not None:
            total_rounds = self.default_round_budget
        else:
            raise ProtocolError(
                f"round-cadence algorithm in stage {stage_name!r} needs an "
                "AlphaSynchronizer round budget to run asynchronously "
                "(Theorem A.5); construct the AsyncNetwork with "
                "round_budgets from a synchronous run of the same seed, "
                "or set default_round_budget"
            )
        self.synchronized_stages.append(stage_name)
        n = self.graph.n
        wrapped_inputs = [
            {"active": None,
             "inner": inputs[v] if inputs is not None else None}
            for v in range(n)
        ]
        return (
            lambda: AlphaSynchronizer(algorithm_factory, total_rounds),
            wrapped_inputs,
        )
