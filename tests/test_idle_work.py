"""Algorithm 1's stages do interpreter work only for messages they move.

* Tree relays with no children make no send: a shared-bits broadcast
  makes one ``_submit`` per (node with children, chunk), and
  ``TreeAggregate`` echoes only from nodes with children.
* A relayed ``BitString`` chunk hits the payload memo, and the memo
  answers exactly what ``analyze_payload`` would; a ``(BitString,)`` key
  never answers for an int, str or tuple payload, even when the hashes
  collide.
* ``DannerLocalStage``, ``NotifyStage`` and ``FloodLeaderElect`` build
  their output at most once per change, and their outputs equal the old
  rebuild-on-every-activation definition on all three schedulers.  A
  traced run decodes the live danner set like an untraced run's.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.coloring.algorithm1 import NotifyStage
from repro.congest.async_network import AsyncNetwork
from repro.congest.ids import NodeId, id_value
from repro.congest.message import analyze_payload
from repro.congest.network import SyncNetwork
from repro.congest.runtime import make_scheduler
from repro.graphs.generators import connected_gnp_graph
from repro.substrates.danner import DannerLocalStage, build_danner, is_landmark
from repro.substrates.flooding import (
    FloodLeaderElect,
    ShareRandomBits,
    TreeAggregate,
)
from repro.util.bitstrings import BitString

from tests.test_fanout_structure import count_submits


def make_net(kind: str, graph, seed: int):
    if kind == "event":
        return AsyncNetwork(graph, seed=seed)
    if kind == "columnar":
        pytest.importorskip("numpy")
    return SyncNetwork(graph, seed=seed, scheduler=make_scheduler(kind))


SCHEDULERS = ("rounds", "columnar", "event")


# -- silent leaves -----------------------------------------------------------


@pytest.mark.parametrize("kind", SCHEDULERS)
@pytest.mark.parametrize("nbits", [1, 200, 999])
def test_shared_bits_submit_once_per_parent_and_chunk(kind, nbits):
    graph = connected_gnp_graph(70, 0.3, seed=3)
    net = make_net(kind, graph, seed=3)
    danner = build_danner(net, seed=3)
    parents = sum(1 for c in danner.children if c)
    chunks = math.ceil(nbits / (net.words_per_message * net.word_bits))
    calls = count_submits(net)
    stage = net.run(lambda: ShareRandomBits(nbits),
                    inputs=danner.tree_inputs(), name="bits")
    assert 0 < parents < graph.n
    assert sum(calls.values()) == parents * chunks
    assert calls["bce"] == parents
    # Every tree edge still carries every chunk.
    assert stage.stats.messages == (graph.n - 1) * chunks
    assert len(set(stage.outputs)) == 1


@pytest.mark.parametrize("kind", SCHEDULERS)
def test_tree_aggregate_echoes_only_from_parents(kind):
    graph = connected_gnp_graph(70, 0.3, seed=4)
    net = make_net(kind, graph, seed=4)
    danner = build_danner(net, seed=4)
    calls = count_submits(net)
    stage = net.run(
        TreeAggregate,
        inputs=[{**t, "value": 1} for t in danner.tree_inputs()],
        name="count",
    )
    assert stage.outputs == [graph.n] * graph.n
    assert calls["agg"] == graph.n - 1
    assert calls["echo"] == sum(1 for c in danner.children if c)
    assert stage.stats.messages == 2 * (graph.n - 1)


# -- the BitString payload memo ----------------------------------------------


NETS = {n: SyncNetwork(connected_gnp_graph(n, 0.5, seed=n), seed=n)
        for n in (6, 40, 300)}      # word_bits 8, 11 and 17


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(sorted(NETS)),
       st.lists(st.integers(0, 1), max_size=160))
def test_bitstring_memo_hit_matches_analysis(n, bits):
    net = NETS[n]
    fields = (BitString(bits),)
    expected = analyze_payload(fields, net.word_bits)
    assert net._analyze(fields) == expected          # miss, then stored
    assert fields in net._payload_cache
    # A relay forwards the same object; an equal copy hits too.
    assert net._analyze(fields) == expected
    assert net._analyze((BitString(bits),)) == expected


OTHER_PAYLOADS = [(0,), (1,), (True,), (None,), ("1",), ("",), ((1, 0),),
                  ((),), ((1,),), (12345,)]


@pytest.mark.parametrize("other", OTHER_PAYLOADS, ids=repr)
def test_bitstring_key_never_answers_for_other_payloads(other):
    net = SyncNetwork(connected_gnp_graph(30, 0.5, seed=5), seed=5)
    (value,) = other
    for bits in [(), (1,), (0,), (1, 0), (1,) * 40]:
        piece = BitString(bits)
        # Force a hash collision: only equality may tell the keys apart.
        piece._hash = hash(value)
        assert hash((piece,)) == hash(other)
        net._analyze((piece,))
        assert (piece,) in net._payload_cache
        assert (piece,) != other
    assert net._analyze(other) == analyze_payload(other, net.word_bits)


# -- outputs built once per change -------------------------------------------


def builds_recorder(base, state=lambda alg: None):
    """A subclass of ``base`` logging, per vertex, [activations, output
    objects built, activations that changed ``state(alg)``]."""

    class Recording(base):
        log: dict = {}

        def on_round(self, ctx, inbox):
            output, before = ctx.output, state(self)
            super().on_round(ctx, inbox)
            entry = self.log.setdefault(ctx._vertex, [0, 0, 0])
            entry[0] += 1
            entry[1] += ctx.output is not output
            entry[2] += state(self) != before

    return Recording


class OldDanner(DannerLocalStage):
    def on_round(self, ctx, inbox):
        super().on_round(ctx, inbox)
        ctx.done(frozenset(self.active))


class OldNotify(NotifyStage):
    def on_round(self, ctx, inbox):
        super().on_round(ctx, inbox)
        ctx.done({"struck": tuple(self.struck),
                  "extras": tuple(self.extras)})


class OldFlood(FloodLeaderElect):
    def on_round(self, ctx, inbox):
        super().on_round(ctx, inbox)
        self._publish(ctx)


def danner_stage(cls):
    landmark = lambda value: is_landmark(value, 7, 0.3)  # noqa: E731
    return (lambda: cls(6, landmark)), None


def notify_inputs(net, seed):
    rng = random.Random(seed)
    inputs = []
    for v, knowledge in enumerate(net.knowledge):
        role = rng.choice(["colored"] * 6 + ["deferred", "idle"])
        targets = tuple(u for u in knowledge.neighbor_ids
                        if rng.random() < 0.5)
        inputs.append({"role": role, "color": v, "targets": targets})
    return inputs


def run_pair(kind, seed, new_cls, old_cls, inputs_for):
    """Run the stage and its old definition on twin networks."""
    graph = connected_gnp_graph(60, 0.35, seed=seed)
    results = []
    for cls in (new_cls, old_cls):
        net = make_net(kind, graph, seed)
        factory, inputs = inputs_for(cls, net)
        results.append(net.run(factory, inputs=inputs, name="stage"))
    return results


STAGES = {
    "danner-local": (DannerLocalStage, OldDanner,
                     lambda cls, net: danner_stage(cls),
                     lambda out: frozenset(out)),
    "notify": (NotifyStage, OldNotify,
               lambda cls, net: (cls, notify_inputs(net, 8)),
               lambda out: {k: tuple(v) for k, v in out.items()}),
    "flood": (FloodLeaderElect, OldFlood,
              lambda cls, net: (cls, None),
              lambda out: out),
}


@pytest.mark.parametrize("kind", SCHEDULERS)
@pytest.mark.parametrize("stage", sorted(STAGES))
def test_outputs_equal_the_old_definition(kind, stage):
    new_cls, old_cls, inputs_for, normal = STAGES[stage]
    new, old = run_pair(kind, 9, new_cls, old_cls, inputs_for)
    assert [normal(o) for o in new.outputs] == old.outputs
    assert new.stats.messages == old.stats.messages
    assert new.rounds == old.rounds


@pytest.mark.parametrize("stage", ["danner-local", "notify"])
def test_growing_outputs_are_published_once(stage):
    new_cls, _, inputs_for, _ = STAGES[stage]
    cls = builds_recorder(new_cls)
    net = AsyncNetwork(connected_gnp_graph(60, 0.35, seed=10), seed=10)
    factory, inputs = inputs_for(cls, net)
    net.run(factory, inputs=inputs, name="stage")
    log = cls.log
    assert len(log) == net.graph.n
    assert all(builds == 1 for _, builds, _ in log.values())
    # The old definition rebuilt it on every activation.
    assert sum(acts for acts, _, _ in log.values()) > 2 * net.graph.n


def test_flood_publishes_only_when_its_candidate_improves():
    cls = builds_recorder(FloodLeaderElect,
                          state=lambda alg: (alg.best, alg.parent))
    net = AsyncNetwork(connected_gnp_graph(60, 0.35, seed=11), seed=11)
    net.run(cls, name="flood")
    log = cls.log
    assert len(log) == net.graph.n
    for acts, builds, changes in log.values():
        assert builds == 1 + changes
    assert (sum(b for _, b, _ in log.values())
            < sum(a for a, _, _ in log.values()))


def test_traced_danner_outputs_decode_like_an_untraced_run():
    """A traced run decodes the live H-neighbor set (a ``set``) to the
    vertex form of an untraced run's outputs (Definition 2.1)."""
    graph = connected_gnp_graph(60, 0.35, seed=12)
    factory, _ = danner_stage(DannerLocalStage)
    traced = SyncNetwork(graph, seed=12, record_trace=True)
    traced.run(factory, name="stage")
    plain = SyncNetwork(graph, seed=12)
    outputs = plain.run(factory, name="stage").outputs
    decoded = traced.trace.decoded_outputs
    assert decoded == {
        v: frozenset(("vertex", plain.vertex_of_value(id_value(u)))
                     for u in out)
        for v, out in enumerate(outputs)
    }
    assert not any(isinstance(u, NodeId)
                   for out in decoded.values() for u in out)
