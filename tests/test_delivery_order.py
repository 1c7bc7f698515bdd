"""Delivery-order parity: batched and eager sends give the same inboxes.

Count identity (``test_count_identity.py``) cannot see a reordering
inside a round: two messages swapped in one inbox leave every total
unchanged.  These tests record each node's full inbox transcript —
stage, activation round, sender ID, tag and decoded fields, in the
order the node saw them — and require the batched outbox (one flush per
round or activation) and the per-send reference path
(``eager_charges=True``) to produce the same transcript, the same
counts, the same fault casualties and, with ``record_trace=True``, the
same trace events in the same order.  Cases cover the synchronous round
scheduler and the event scheduler, fault-free and under seeded drops
and the adaptive adversary.

Comparing the engine with itself cannot see a change both paths share,
so Algorithm 3's KT-2 transcripts (rounds and event schedulers) and one
KT-3 lower-bound run are also pinned to values recorded before KT-rho
knowledge was computed on demand, and Algorithm 1's KT-1 transcripts
(rounds and event schedulers) to values recorded before its driver
evaluated the level hashes once per ID instead of once per edge.  The
columnar KT-1 transcript is pinned as a relation: the rounds transcript
minus exactly the stages a columnar kernel runs.
"""

from __future__ import annotations

import hashlib
import re

import pytest

from repro.coloring.algorithm1 import run_algorithm1
from repro.coloring.baselines import run_baseline_coloring
from repro.congest.async_network import AsyncNetwork
from repro.congest.ids import id_value
from repro.congest.network import SyncNetwork
from repro.congest.node import NodeAlgorithm
from repro.congest.runtime import make_scheduler
from repro.congest.trace import decode_value
from repro.errors import ReproError
from repro.graphs.core import Graph
from repro.graphs.generators import family_graph
from repro.lowerbounds.kt_rho import run_cycle_experiment
from repro.mis.algorithm3 import run_algorithm3
from repro.mis.luby import run_luby

RUNNERS = {
    "luby": lambda net, seed: run_luby(net),
    "baseline-trial": lambda net, seed: run_baseline_coloring(net, "trial"),
    "kt1-delta-plus-one": lambda net, seed: run_algorithm1(net, seed=seed),
}

ENGINES = {
    "rounds": lambda graph, **kw: SyncNetwork(graph, **kw),
    "event": lambda graph, **kw: AsyncNetwork(graph, **kw),
    "rounds-traced": lambda graph, **kw: SyncNetwork(
        graph, record_trace=True, **kw),
}


def record_inboxes(net) -> dict[int, list]:
    """Make ``net`` log every node's inboxes; returns the live log.

    Wraps each stage's algorithms after the engine's own adaptation (the
    async synchronizer wrap), so the log holds exactly what the engine
    handed to ``on_round``.
    """
    log: dict[int, list] = {}
    vertex_of = net.vertex_of_value
    adapt = net._adapt_stage

    def recording_adapt(factory, inputs, stage_name):
        factory, inputs = adapt(factory, inputs, stage_name)

        def build():
            alg = factory()
            inner = alg.on_round

            def on_round(ctx, inbox):
                log.setdefault(ctx._vertex, []).append((
                    stage_name,
                    ctx.round,
                    [(id_value(m.sender_id), m.tag,
                      decode_value(m.fields, vertex_of)) for m in inbox],
                ))
                inner(ctx, inbox)

            alg.on_round = on_round
            return alg

        return build, inputs

    net._adapt_stage = recording_adapt
    return log


def observe(net, run) -> dict:
    """Run ``run(net)`` and collect everything a reordering could move.

    A protocol run that gives up (Algorithm 1's Boruvka under heavy
    drops) is an observation too: both paths must give up at the same
    point.
    """
    log = record_inboxes(net)
    error = None
    try:
        run(net)
    except ReproError as exc:
        error = f"{type(exc).__name__}: {exc}"
    stats = net.stats
    return {
        "error": error,
        "inboxes": log,
        "counts": (stats.sends, stats.messages, stats.words, stats.rounds,
                   stats.dropped_messages),
        "stages": [s.as_dict() for s in stats.stages],
        "by_tag": dict(stats.by_tag),
        "by_sender": stats.by_sender,
        "utilized": stats.utilized,
        "casualties": net.casualties,
        "trace": None if net.trace is None else list(net.trace.events),
    }


@pytest.mark.parametrize("faults", [None, "drop:0.1", "adversary"])
@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("method", sorted(RUNNERS))
def test_batched_and_eager_deliver_identical_inboxes(method, engine, faults):
    graph = family_graph("gnp", 40, p=0.3, seed=2)
    build = ENGINES[engine]
    runner = RUNNERS[method]
    seen = [
        observe(build(graph, seed=3, faults=faults, eager_charges=eager),
                lambda net: runner(net, 3))
        for eager in (False, True)
    ]
    assert seen[0]["inboxes"], "no node was ever activated"
    assert sum(len(v) for v in seen[0]["inboxes"].values()) > 40
    assert seen[0] == seen[1]
    if faults is not None:
        assert seen[0]["counts"][4] > 0, "the fault model dropped nothing"


class DuplicateFanout(NodeAlgorithm):
    """The node whose input is True broadcasts to a recipient list that
    repeats neighbors, between two unicasts on the same links, so several
    payloads queue on one link within a single round."""

    passive_when_idle = True

    def on_round(self, ctx, inbox):
        if ctx.round == 0 and ctx.input:
            a, b = ctx.neighbor_ids[:2]
            ctx.send(a, "first", 1)
            ctx.broadcast([a, b, a, a, b], "fan", ctx.my_id, 7, 8, 9, 10, 11)
            ctx.send(b, "last", 2)
        ctx.done(None)


@pytest.mark.parametrize("faults", [None, "drop:0.3"])
@pytest.mark.parametrize("engine", sorted(ENGINES))
def test_duplicate_recipients_in_one_broadcast(engine, faults):
    graph = Graph(3, [(0, 1), (0, 2), (1, 2)])
    seen = []
    for eager in (False, True):
        net = ENGINES[engine](graph, seed=5, faults=faults,
                              eager_charges=eager)
        seen.append(observe(net, lambda net: net.run(
            DuplicateFanout, inputs=[True, False, False])))
    assert seen[0] == seen[1]
    # Every copy is a separate send: 2 unicasts plus 5 fan-out copies,
    # each copy of the 6-word payload charged 2 messages.
    assert seen[0]["counts"][:3] == (7, 2 + 5 * 2, 2 + 5 * 6)
    if faults is None:
        delivered = [
            msg for v in (1, 2) for _stage, _r, inbox in seen[0]["inboxes"][v]
            for msg in inbox
        ]
        tags = sorted(tag for _sender, tag, _fields in delivered)
        assert tags == ["fan"] * 5 + ["first", "last"]


def test_duplicate_recipients_queue_on_their_link():
    """On synchronous rounds each copy to the same neighbor occupies the
    link for its charged rounds, in submission order."""
    graph = Graph(3, [(0, 1), (0, 2), (1, 2)])
    net = SyncNetwork(graph, seed=5)
    log = record_inboxes(net)
    net.run(DuplicateFanout, inputs=[True, False, False])
    first_neighbor = net.vertex_of(net.knowledge[0].neighbor_ids[0])
    arrivals = [
        (r, tag) for _stage, r, inbox in log[first_neighbor]
        for _sender, tag, _fields in inbox
    ]
    # "first" takes round 1; each 2-message "fan" copy then holds the
    # link for two rounds: arrivals at rounds 3, 5 and 7.
    assert arrivals == [(1, "first"), (3, "fan"), (5, "fan"), (7, "fan")]


def canonical(value):
    """A decoded payload with every frozenset in a fixed order (decoded
    vertex tuples hash through a str, so set order varies by process)."""
    if isinstance(value, tuple):
        return tuple(canonical(v) for v in value)
    if isinstance(value, frozenset):
        return ("frozenset",
                tuple(sorted((canonical(v) for v in value), key=repr)))
    return value


def transcript_digest(log: dict[int, list]) -> str:
    """sha256 of every node's inbox transcript: stage, round, sender ID
    value, tag and decoded fields, in delivery order."""
    h = hashlib.sha256()
    for v in sorted(log):
        for stage, rnd, inbox in log[v]:
            h.update(repr((v, stage, rnd, [
                (sender, tag, canonical(fields))
                for sender, tag, fields in inbox
            ])).encode())
    return h.hexdigest()


#: Algorithm 3 (kt2-sampled-greedy, comparison-based) on gnp n=60
#: p=0.3, graph and run seeded alike: (transcript digest, messages),
#: recorded before KT-rho knowledge became lazy.  Algorithm 3 iterates
#: the shared neighbor-ID frozensets of KT-2 knowledge when it picks
#: relay targets, and counts cannot see a change in that order.
KT2_TRANSCRIPTS = {
    ("rounds", 0): ("f9730926041c52dd8c39393edc4bc6f8"
                    "e08d04b4ba402aa5d89c2cbb48c63297", 538),
    ("rounds", 1): ("49effee27b7a89cace6763fe5df6e589"
                    "0735be8f363b832e7ee2a675dd873d31", 383),
    ("rounds", 2): ("0d809450008d578da5a33f7892419f00"
                    "5eab8ea2dc3efca3809a1a4b52c0ba30", 614),
    ("event", 0): ("49ab3e2f163cffed6a3b45d3705ddb6d"
                   "74a3cf343a70fdb902ed733384c116c9", 5092),
    ("event", 1): ("cd5aaa29f9aa46ad9e5625ac82a87dd0"
                   "b6eb45b2d8091dd794e23d831fb678cd", 4935),
    ("event", 2): ("87954a3b5b264183c4bd00cb39fe4347"
                   "a8694194f2542e51c7d30975617d0f52", 6278),
}


@pytest.mark.parametrize("engine, seed", sorted(KT2_TRANSCRIPTS))
def test_kt2_algorithm3_transcript_is_pinned(engine, seed):
    graph = family_graph("gnp", 60, p=0.3, seed=seed)
    kwargs = {}
    if engine == "event":
        # Synchronizer budgets from a synchronous run, as api does.
        shadow = SyncNetwork(graph, rho=2, seed=seed, comparison_based=True)
        run_algorithm3(shadow, seed=seed)
        kwargs["round_budgets"] = [
            (s.name, s.rounds) for s in shadow.stats.stages
        ]
    net = ENGINES[engine](graph, rho=2, seed=seed, comparison_based=True,
                          **kwargs)
    log = record_inboxes(net)
    run_algorithm3(net, seed=seed)
    assert (transcript_digest(log), net.stats.messages) == \
        KT2_TRANSCRIPTS[engine, seed]


#: Algorithm 1 (kt1-delta-plus-one) on gnp n=120 p=0.6, graph and run
#: seeded alike: (transcript digest, messages, deferred_total).  Every
#: case runs at least one partition level with deferrals, so the
#: driver's remnant, part and palette sets — extras included — all
#: reach the transcript.
KT1_TRANSCRIPTS = {
    ("rounds", 0): ("590e7a1edc057972a3791b19beb2ee9f"
                    "970c2175accf013c2c476e97bea3480b", 21140, 7),
    ("rounds", 1): ("ad4db2af0c3dcfeacc5b06c4f833540f"
                    "774d9f00bc9acfc913f06852518411b7", 22163, 2),
    ("rounds", 2): ("ce57d93fbf9beb3f4cabfa7b20619bc2"
                    "11cde44f0c60f9278d4ba98858f854e9", 21689, 9),
    ("event", 0): ("4bba8749e95551bf19441d21a357924d"
                   "df35b067b840935a47296bfb91dfc8df", 23338, 7),
    ("event", 1): ("76cfce60db319c8b9707f1bcf77ba306"
                   "511b4b300b5a962d2d55591b7ccf3a0f", 28095, 2),
    ("event", 2): ("ef0f89758715872e4fc67777b75d486d"
                   "ec04d13b7f945c942e949f1f3e6b0b7c", 25208, 9),
}

#: The same runs on the columnar scheduler: (messages, deferred_total).
#: Its transcript is pinned as a relation to the rounds transcript
#: instead (see the test below), since kernel stages never reach
#: ``on_round``.
KT1_COLUMNAR_COUNTS = {0: (21140, 7), 1: (22163, 2), 2: (21689, 9)}

#: The Algorithm 1 stages a columnar kernel runs, digits normalised.
KT1_KERNEL_STAGES = {"alg1-base-*", "alg1-color-*"}


def _run_kt1(engine, seed):
    graph = family_graph("gnp", 120, p=0.6, seed=seed)
    if engine == "event":
        # Synchronizer budgets from a synchronous run, as api does.
        shadow = SyncNetwork(graph, seed=seed)
        run_algorithm1(shadow, seed=seed)
        net = AsyncNetwork(graph, seed=seed, round_budgets=[
            (s.name, s.rounds) for s in shadow.stats.stages
        ])
    else:
        net = SyncNetwork(graph, seed=seed, scheduler=make_scheduler(engine))
    log = record_inboxes(net)
    result = run_algorithm1(net, seed=seed)
    assert any(not lv.base_case for lv in result.levels)
    assert result.deferred_total > 0
    return log, net, result


@pytest.mark.parametrize("engine, seed", sorted(KT1_TRANSCRIPTS))
def test_kt1_algorithm1_transcript_is_pinned(engine, seed):
    log, net, result = _run_kt1(engine, seed)
    assert (transcript_digest(log), net.stats.messages,
            result.deferred_total) == KT1_TRANSCRIPTS[engine, seed]


@pytest.mark.parametrize("seed", sorted(KT1_COLUMNAR_COUNTS))
def test_kt1_columnar_transcript_is_rounds_minus_kernel_stages(seed):
    """A columnar kernel stage never reaches ``on_round``, so the
    columnar log is the (pinned) rounds log with exactly the kernel
    stages taken out, and every other stage's inboxes unchanged."""
    rounds_log, _net, _result = _run_kt1("rounds", seed)
    assert transcript_digest(rounds_log) == KT1_TRANSCRIPTS["rounds", seed][0]
    log, net, result = _run_kt1("columnar", seed)
    assert (net.stats.messages, result.deferred_total) == \
        KT1_COLUMNAR_COUNTS[seed]
    stages = lambda log: {st for es in log.values() for st, _r, _i in es}
    kept = stages(log)
    filtered = {v: [e for e in es if e[0] in kept]
                for v, es in rounds_log.items()}
    assert log == {v: es for v, es in filtered.items() if es}
    missing = {re.sub(r"-\d+", "-*", st) for st in stages(rounds_log) - kept}
    assert missing == KT1_KERNEL_STAGES


def test_kt3_cycle_experiment_counts_are_pinned():
    """KT-3 knowledge (the BFS ball path) has no benchmark cell; pin one
    lower-bound cycle run to the values recorded before it became lazy."""
    result = run_cycle_experiment(12, 12, 0.5, seed=9, rho=3)
    assert (result.n, result.active_cycles, result.messages,
            result.failed_cycles, result.success) == (144, 6, 144, 6, False)
