"""One-call entry points for the library.

These wrap the full pipelines (network construction, algorithm, output
verification, accounting) behind the API a downstream user wants:

>>> from repro import api
>>> from repro.graphs import gnp_random_graph
>>> g = gnp_random_graph(400, 0.1, seed=1)
>>> result = api.color_graph(g, method="kt1-delta-plus-one", seed=2)
>>> result.valid, result.messages_per_edge < 10
(True, True)

Methods: :data:`METHODS` declares each method once (its problem, KT-rho,
ID model, driver, palette bound, sweep knobs and record columns):
Algorithms 1-3 (Thms. 3.3, 3.8, 4.1) and the Ω(m) classics
(trial, rank-greedy, Luby).  The sweep spec, the cell runner, the
query server and the CLI read their method lists from it.

Engines: every method runs on both the synchronous engine and, with
``asynchronous=True``, the event-driven engine under a chosen latency
model.  Async-native protocols (count-based lockstep: Algorithm 1,
Luby, the baselines) run unchanged; round-cadence protocols (Algorithm
2's phase cadence, Algorithm 3's parallel greedy) are auto-wrapped in
the alpha-synchronizer (Theorem A.5).  An asynchronous call first
replays the same cell on the synchronous engine — that shadow run both
supplies the synchronizer's per-stage round budgets and serves as the
baseline for the *cost-of-asynchrony* metrics
(:attr:`RunReport.overhead_messages` / ``overhead_rounds``).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.congest.async_network import AsyncNetwork
from repro.congest.network import SyncNetwork
from repro.congest.runtime import make_scheduler
from repro.errors import SynchronizerBudgetError
from repro.coloring.algorithm1 import run_algorithm1
from repro.coloring.algorithm2 import run_algorithm2
from repro.coloring.baselines import run_baseline_coloring
from repro.coloring.verify import (
    coloring_violations,
    survivor_coloring_violations,
)
from repro.errors import ReproError
from repro.graphs.core import Graph
from repro.mis.algorithm3 import run_algorithm3
from repro.mis.baselines import run_rank_greedy_mis
from repro.mis.luby import run_luby
from repro.mis.verify import mis_violations, survivor_mis_violations
from repro.util.collector import collector_paused


@dataclass
class RunReport:
    """Common accounting attached to every API result.

    For asynchronous runs (``engine == "async"``) the report also carries
    the shadow synchronous baseline of the same cell and the derived
    cost of asynchrony: ``overhead_messages = messages - sync_messages``
    (the synchronizer's acks/safes plus any count drift from reordering)
    and ``overhead_rounds = rounds - sync_rounds`` (normalized async time
    minus synchronous rounds; negative when asynchrony finishes faster
    than the round clock).  ``synchronized_stages`` counts the stages
    that needed alpha-synchronizer wrapping (0 for async-native methods).
    """

    method: str
    n: int
    m: int
    messages: int
    rounds: int
    utilized_edges: int
    stage_messages: dict = field(default_factory=dict)
    #: wall-clock seconds per stage name (aggregated like
    #: ``stage_messages``) — where the engine actually spent its time;
    #: diagnostic only, never part of count identity.
    stage_wall: dict = field(default_factory=dict)
    #: wall-clock seconds of the primary engine's driver run.
    wall: Optional[float] = None
    engine: str = "sync"
    latency: Optional[str] = None
    sync_messages: Optional[int] = None
    sync_rounds: Optional[int] = None
    overhead_messages: Optional[int] = None
    overhead_rounds: Optional[int] = None
    synchronized_stages: int = 0
    #: Fault seam (``docs/faults.md``): the active fault spec (None on
    #: the fault-free path), the charged messages the faults destroyed,
    #: how many nodes ever crashed, and which vertices are casualties.
    #: ``survivor_valid`` is the survivor-restricted validity verdict —
    #: it mirrors ``.valid`` on faulted runs and is None when fault-free
    #: (where plain validity applies to every node).
    faults: Optional[str] = None
    dropped_messages: int = 0
    crashed_nodes: int = 0
    casualty_vertices: tuple = ()
    survivor_valid: Optional[bool] = None

    @property
    def messages_per_edge(self) -> float:
        return self.messages / max(self.m, 1)


@dataclass
class ColoringResult:
    colors: list[Optional[int]]
    num_colors: int
    palette_bound: int
    valid: bool
    report: RunReport
    detail: object = None

    @property
    def messages(self) -> int:
        return self.report.messages

    @property
    def messages_per_edge(self) -> float:
        return self.report.messages_per_edge


@dataclass
class MISResult:
    in_mis: list[bool]
    size: int
    valid: bool
    report: RunReport
    detail: object = None

    @property
    def messages(self) -> int:
        return self.report.messages


def _report(method: str, net, engine: str = "sync",
            latency: Optional[str] = None,
            baseline=None) -> RunReport:
    # Aggregate with += : a driver may legally reuse a stage name (e.g. a
    # retry loop), and assignment would silently drop the earlier stages
    # from the breakdown, breaking sum(stage_messages) == messages.
    per_stage: dict = {}
    per_stage_wall: dict = {}
    for s in net.stats.stages:
        per_stage[s.name] = per_stage.get(s.name, 0) + s.messages
        per_stage_wall[s.name] = per_stage_wall.get(s.name, 0.0) + s.wall
    report = RunReport(
        method=method,
        n=net.graph.n,
        m=net.graph.m,
        messages=net.stats.messages,
        rounds=net.stats.rounds,
        utilized_edges=net.stats.utilized_count,
        stage_messages=per_stage,
        stage_wall=per_stage_wall,
        engine=engine,
        latency=latency,
        synchronized_stages=len(getattr(net, "synchronized_stages", ())),
    )
    if baseline is not None:
        report.sync_messages = baseline.stats.messages
        report.sync_rounds = baseline.stats.rounds
        report.overhead_messages = report.messages - report.sync_messages
        report.overhead_rounds = report.rounds - report.sync_rounds
    if net.faults is not None:
        report.faults = net.faults.spec
        report.dropped_messages = net.stats.dropped_messages
        report.crashed_nodes = net.faults.crashed_count
        report.casualty_vertices = tuple(sorted(net.faults.casualties))
    return report


@collector_paused()
def _run_engines(build, drive, asynchronous: bool, latency: str,
                 faults=None, scheduler=None):
    """Run a cell on the requested engine.

    ``build(engine_cls, **engine_kwargs)`` constructs the network;
    ``drive(net)`` runs the method's driver and returns its outputs.
    Asynchronous cells first replay on the synchronous engine: the
    shadow run's per-stage round counts become the alpha-synchronizer
    budgets, and its totals become the overhead baseline.

    The shadow is a *heuristic* budget oracle, not a sound one: an
    asynchronous execution may legitimately diverge from it (a
    delivery-order-dependent leader election picks a different
    broadcast root, reseeding the shared random string), and a wrapped
    stage can then need more simulated rounds than the shadow recorded.
    When the synchronizer's budget expires the whole async run is
    retried from scratch on a fresh network with every budget doubled
    (a few escalations; the delay stream restarts identically, so only
    the budgets change).  Only the successful attempt's network is
    returned and accounted.

    ``faults`` (a spec string or FaultModel) applies to the *primary*
    engine only; the shadow run stays fault-free so the synchronizer
    budgets and the overhead baseline describe the undamaged execution.

    ``scheduler`` (``"rounds"`` / ``"columnar"`` / None) selects the
    synchronous delivery discipline; it applies to every synchronous
    network built here — the primary sync engine *and* the async
    shadow (whose counts are scheduler-invariant by the columnar parity
    contract).  The event-driven engine keeps its own scheduler.

    The whole call, shadow and retries included, runs with the cyclic
    garbage collector paused (:func:`repro.util.collector.collector_paused`).

    Returns ``(net, outputs, shadow_net_or_None, wall_seconds)`` where
    ``wall_seconds`` times the successful primary drive.
    """
    def run(net):
        # Multi-stage drivers read stage outputs between stages (the
        # danner builds its tree from the flood's parents, say); a
        # casualty's output is None, and a driver that cannot proceed
        # without it must fail naming the fault regime, not with a raw
        # TypeError from deep inside its pipeline.
        if net.faults is None:
            return drive(net)
        try:
            return drive(net)
        except ReproError:
            raise
        except Exception as exc:
            raise ReproError(
                f"driver failed under fault injection "
                f"{net.faults.spec!r}: {exc!r} (the method's "
                "inter-stage logic needs outputs a casualty never "
                "produced)"
            ) from exc

    if not asynchronous:
        net = build(SyncNetwork, faults=faults,
                    scheduler=make_scheduler(scheduler))
        t0 = time.perf_counter()
        outputs = run(net)
        return net, outputs, None, time.perf_counter() - t0
    shadow = build(SyncNetwork, scheduler=make_scheduler(scheduler))
    drive(shadow)
    budgets = [(s.name, s.rounds) for s in shadow.stats.stages]
    last_error: Optional[SynchronizerBudgetError] = None
    for scale in (1, 2, 4, 8):
        net = build(
            AsyncNetwork, latency=latency, faults=faults,
            round_budgets=[(name, rounds * scale)
                           for name, rounds in budgets],
        )
        try:
            t0 = time.perf_counter()
            outputs = run(net)
            return net, outputs, shadow, time.perf_counter() - t0
        except SynchronizerBudgetError as exc:
            last_error = exc
    raise last_error


@dataclass(frozen=True)
class Method:
    """One entry of :data:`METHODS`."""

    problem: str                #: "coloring" or "mis"
    rho: int                    #: KT-rho: IDs known within rho hops
    #: Opaque comparison-only IDs (``find_mis`` may override it).
    comparison_based: bool
    #: ``driver(net, seed=..., **options) -> (answer, detail)``;
    #: ``options`` are ``epsilon`` (coloring) and the caller's kwargs.
    driver: Callable
    #: Sweep-cell fields the method reads as keyword arguments; only
    #: a reader may set ``sample_constant``.
    knobs: tuple[str, ...] = ()
    #: The detail attribute holding the palette bound (None: Δ+1).
    palette: Optional[str] = None
    #: Sweep-record column -> detail attribute.
    extras: dict = field(default_factory=dict)


# The drivers reach the algorithms through this module's globals at
# call time, so a wrapper installed on ``api.run_luby`` (say) sees it.
def _algorithm1(net, seed, epsilon, **kwargs):
    detail = run_algorithm1(net, seed=seed, **kwargs)
    return detail.colors, detail


def _algorithm2(net, seed, epsilon, **kwargs):
    detail = run_algorithm2(net, epsilon=epsilon, seed=seed, **kwargs)
    return detail.colors, detail


def _algorithm3(net, seed, **kwargs):
    detail = run_algorithm3(net, seed=seed, **kwargs)
    return detail.in_mis, detail


#: Every method, once.  A problem's first entry is its default method
#: (the default of :func:`color_graph` / :func:`find_mis`).
METHODS: dict[str, Method] = {
    # Algorithm 1 (Thm. 3.3): (Δ+1)-coloring.
    "kt1-delta-plus-one": Method(
        "coloring", rho=1, comparison_based=False, driver=_algorithm1,
        extras={"levels": "num_levels", "deferred": "deferred_total"}),
    # Algorithm 2 (Thm. 3.8): (1+ε)Δ-coloring.
    "kt1-eps-delta": Method(
        "coloring", rho=1, comparison_based=False, driver=_algorithm2,
        knobs=("epsilon",), palette="palette_size",
        extras={"phases": "phases", "queries": "query_messages",
                "palette": "palette_size"}),
    "baseline-trial": Method(
        "coloring", rho=1, comparison_based=False,
        driver=lambda net, seed, **_: run_baseline_coloring(net, "trial")),
    "baseline-rank-greedy": Method(
        "coloring", rho=1, comparison_based=True,
        driver=lambda net, seed, **_: run_baseline_coloring(
            net, "rank-greedy")),
    # Algorithm 3 (Thm. 4.1): MIS with KT-2 knowledge.
    "kt2-sampled-greedy": Method(
        "mis", rho=2, comparison_based=True, driver=_algorithm3,
        knobs=("sample_constant",),
        extras={"sampled": "sampled",
                "remnant_deg": "remnant_max_degree_local",
                "remnant_size": "remnant_size"}),
    "luby": Method("mis", rho=1, comparison_based=True,
                   driver=lambda net, seed, **_: run_luby(net)),
    "rank-greedy": Method(
        "mis", rho=1, comparison_based=True,
        driver=lambda net, seed, **_: run_rank_greedy_mis(net)),
}


def method_names(problem: Optional[str] = None,
                 knob: Optional[str] = None) -> tuple[str, ...]:
    """Catalogued methods in table order, optionally only those of
    ``problem`` or those that read ``knob``."""
    return tuple(name for name, entry in METHODS.items()
                 if problem in (None, entry.problem)
                 and (knob is None or knob in entry.knobs))


def _solve(problem: str, graph: Graph, method: str, seed: int,
           options: dict, asynchronous: bool, latency: str,
           collect_utilization: bool, faults, scheduler: Optional[str],
           comparison_based: Optional[bool] = None):
    """The pipeline behind :func:`color_graph` and :func:`find_mis`:
    build, run, verify, account.  ``options`` go to the driver; a None
    ``comparison_based`` takes the method's ID model.  Returns
    ``(entry, answer, detail, valid, report)``."""
    if method not in method_names(problem):
        noun = "MIS" if problem == "mis" else problem
        raise ReproError(f"unknown {noun} method {method!r}")
    if graph.n == 0:
        raise ReproError("the graph has no vertices")
    entry = METHODS[method]
    if comparison_based is None:
        comparison_based = entry.comparison_based
    if faults == "none":
        faults = None
    if scheduler is None:
        scheduler = os.environ.get("REPRO_SCHEDULER") or None

    def build(engine, **engine_kwargs):
        return engine(graph, rho=entry.rho, seed=seed,
                      comparison_based=comparison_based,
                      collect_utilization=collect_utilization,
                      **engine_kwargs)

    def drive(net):
        return entry.driver(net, seed=seed, **options)

    net, (answer, detail), shadow, wall = _run_engines(
        build, drive, asynchronous, latency, faults=faults,
        scheduler=scheduler,
    )
    # Survivor validity under faults, plain validity otherwise.
    casualties = net.faults.casualties if net.faults is not None else None
    if problem == "coloring" and casualties is not None:
        valid = not survivor_coloring_violations(graph, answer, casualties)
    elif problem == "coloring":
        valid = (not coloring_violations(graph, answer)
                 and all(c is not None for c in answer))
    else:
        bad = (mis_violations(graph, answer) if casualties is None
               else survivor_mis_violations(graph, answer, casualties))
        valid = not bad["independence"] and not bad["maximality"]
    report = _report(
        method, net,
        engine="async" if asynchronous else "sync",
        latency=latency if asynchronous else None,
        baseline=shadow,
    )
    report.wall = wall
    if casualties is not None:
        report.survivor_valid = valid
    return entry, answer, detail, valid, report


def color_graph(
    graph: Graph,
    method: str = "kt1-delta-plus-one",
    seed: int = 0,
    epsilon: float = 0.5,
    asynchronous: bool = False,
    latency: str = "uniform",
    collect_utilization: bool = True,
    faults=None,
    scheduler: Optional[str] = None,
    **kwargs,
) -> ColoringResult:
    """Color a connected graph with one of the paper's algorithms.

    ``asynchronous=True`` reruns the method under the event-driven
    engine with the given ``latency`` model (one of
    :data:`~repro.congest.runtime.LATENCY_MODELS`); round-cadence
    methods are auto-synchronized (see module docstring).  ``latency``
    is ignored for synchronous runs.

    ``collect_utilization=False`` runs the engine in stats-lite mode
    (identical message/word/round counts, no utilized-edge or per-tag
    breakdowns) — the mode bulk experiment sweeps use.

    ``faults`` injects failures (a spec like ``"drop:0.05"`` /
    ``"crash:0.1"`` / ``"adversary:64"``, or a
    :class:`~repro.congest.runtime.FaultModel`); ``None``/``"none"`` is
    the bit-identical fault-free path.  Under faults ``result.valid``
    is the *survivor-validity* verdict: correctness judged only on the
    nodes the fault model left undamaged (``docs/faults.md``).

    ``scheduler`` selects the synchronous delivery discipline:
    ``"rounds"`` (the scalar reference), ``"columnar"`` (numpy-
    vectorized rounds, bit-identical counts, see ``docs/columnar.md``),
    or None to consult the ``REPRO_SCHEDULER`` environment variable
    (which is how sweep workers inherit the choice) and fall back to
    the default.
    """
    entry, colors, detail, valid, report = _solve(
        "coloring", graph, method, seed, {"epsilon": epsilon, **kwargs},
        asynchronous, latency, collect_utilization, faults, scheduler)
    return ColoringResult(
        colors=colors,
        num_colors=len({c for c in colors if c is not None}),
        palette_bound=(graph.max_degree() + 1 if entry.palette is None
                       else getattr(detail, entry.palette)),
        valid=valid,
        report=report,
        detail=detail,
    )


def find_mis(
    graph: Graph,
    method: str = "kt2-sampled-greedy",
    seed: int = 0,
    comparison_based: bool = True,
    asynchronous: bool = False,
    latency: str = "uniform",
    collect_utilization: bool = True,
    faults=None,
    scheduler: Optional[str] = None,
    **kwargs,
) -> MISResult:
    """Compute an MIS of a connected graph.

    ``asynchronous=True`` reruns the method under the event-driven
    engine (``latency`` as in :func:`color_graph`); Algorithm 3's
    round-cadence greedy stage is auto-synchronized, Luby and rank-greedy
    run async-native.  ``collect_utilization=False`` selects the
    engine's stats-lite mode.  ``faults`` injects failures exactly as
    in :func:`color_graph`; ``result.valid`` then reports
    survivor-validity (independence strict among survivors, maximality
    owed only where the whole closed neighborhood survived).
    ``scheduler`` selects the synchronous delivery discipline exactly
    as in :func:`color_graph` (``REPRO_SCHEDULER`` supplies the
    default).
    """
    _, in_mis, detail, valid, report = _solve(
        "mis", graph, method, seed, kwargs, asynchronous, latency,
        collect_utilization, faults, scheduler, comparison_based)
    return MISResult(
        in_mis=in_mis,
        size=sum(in_mis),
        valid=valid,
        report=report,
        detail=detail,
    )
