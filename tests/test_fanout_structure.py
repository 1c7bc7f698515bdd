"""Algorithm 3's relay rule against its definition, and the fan-out
structure of the broadcast-heavy node programs.

Step 3 of Algorithm 3: node w relays joiner u to x iff x is in
N(w) \\ N[u] and w is the minimum-ID common neighbor of u and x, so every
(joiner, 2-hop neighbor) pair gets exactly one relay.  The structure pins
count ``_submit`` calls (one outbox entry each): ``NotifyStage``,
``ParallelGreedyMIS`` and ``InformTwoHop`` send each same-payload
fan-out as one ``ctx.broadcast``, so a return to per-target send loops
fails them while every count stays the same.  ``ParallelGreedyMIS``
also rebuilds its output only when a round changed it.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.coloring.algorithm1 import NotifyStage
from repro.congest.ids import id_value
from repro.congest.network import SyncNetwork
from repro.graphs.generators import gnp_random_graph
from repro.mis.algorithm3 import InformTwoHop
from repro.mis.greedy import ParallelGreedyMIS, run_parallel_greedy


def count_submits(net) -> Counter:
    """Count ``net``'s outbox submissions by tag (a live counter)."""
    calls: Counter = Counter()
    submit = net._submit

    def counting(sender, to_ids, tag, fields):
        calls[tag] += 1
        submit(sender, to_ids, tag, fields)

    net._submit = counting
    return calls


def run_inform(net, joiners):
    """Run Step 3 with ``joiners`` as the greedy stage's joiners; returns
    the relays as (relay vertex, joiner vertex, receiver vertex)."""
    graph = net.graph
    vertex_of = net.vertex_of_value
    relays = []

    class Recording(InformTwoHop):
        def on_round(self, ctx, inbox):
            for msg in inbox:
                relays.append((vertex_of(id_value(msg.sender_id)),
                               vertex_of(id_value(msg.fields[0])),
                               ctx._vertex))
            super().on_round(ctx, inbox)

    ids = net.topology.id_of
    net.run(Recording, inputs=[
        {"joined": v in joiners,
         "joined_neighbors": frozenset(ids[u] for u in graph.neighbors(v)
                                       if u in joiners)}
        for v in range(graph.n)
    ], name="inform")
    return relays


def brute_force_relays(graph, values, joiners):
    expected = []
    for u in joiners:
        n_u = set(graph.neighbors(u))
        for w in n_u:
            for x in graph.neighbors(w):
                if x == u or x in n_u:
                    continue
                common = n_u & set(graph.neighbors(x))
                if w == min(common, key=values.__getitem__):
                    expected.append((w, u, x))
    return expected


@pytest.mark.parametrize("seed", range(4))
def test_relays_match_the_definition(seed):
    rng = random.Random(seed)
    graph = gnp_random_graph(45, rng.choice([0.1, 0.25, 0.5]), seed=seed)
    net = SyncNetwork(graph, rho=2, seed=seed, comparison_based=True)
    # Joiners need not be independent for Step 3's rule.
    joiners = set(rng.sample(range(graph.n), 6))
    relays = run_inform(net, joiners)
    values = net.topology.values
    assert sorted(relays) == sorted(brute_force_relays(graph, values,
                                                       joiners))
    # Exactly one relay per (joiner, 2-hop neighbor) pair.
    pairs = Counter((u, x) for _, u, x in relays)
    two_hop = {
        (u, x) for u in joiners for w in graph.neighbors(u)
        for x in graph.neighbors(w)
        if x != u and x not in graph.neighbors(u)
    }
    assert set(pairs) == two_hop
    assert set(pairs.values()) <= {1}


def test_inform_sends_one_fanout_per_joiner():
    graph = gnp_random_graph(60, 0.3, seed=4)
    net = SyncNetwork(graph, rho=2, seed=4, comparison_based=True)
    calls = count_submits(net)
    relays = run_inform(net, {3, 17, 40})
    fanouts = {(w, u) for w, u, _ in relays}
    assert calls == Counter({"relay": len(fanouts)})
    assert len(relays) > len(fanouts)   # a send loop would differ


def test_greedy_sends_one_fanout_per_announcement():
    graph = gnp_random_graph(60, 0.3, seed=5)
    rng = random.Random(5)
    in_s = [rng.random() < 0.3 for _ in range(graph.n)]
    ranks = rng.sample(range(10_000), graph.n)
    net = SyncNetwork(graph, seed=5)
    calls = count_submits(net)
    stage = run_parallel_greedy(net, in_s, ranks, rank_space=10_000)
    out = stage.outputs
    assert calls == Counter({
        "rank": sum(in_s),
        "joined": sum(o["joined"] for o in out),
        "retired": sum(o["out"] for o in out),
    })
    assert calls["retired"] > 0
    assert stage.stats.messages > sum(calls.values())


def test_greedy_publishes_only_on_change():
    """``ParallelGreedyMIS`` is not passive, so every node runs every
    round; it rebuilds its output only in round 0, on a non-empty inbox
    and on a join, and the outputs match the plain stage's."""
    graph = gnp_random_graph(60, 0.3, seed=5)
    rng = random.Random(5)
    in_s = [rng.random() < 0.3 for _ in range(graph.n)]
    ranks = rng.sample(range(10_000), graph.n)
    plain = run_parallel_greedy(SyncNetwork(graph, seed=5), in_s, ranks,
                                rank_space=10_000)
    seen = Counter()

    class Counting(ParallelGreedyMIS):
        def _publish(self, ctx):
            seen["publish"] += 1
            super()._publish(ctx)

        def on_round(self, ctx, inbox):
            seen["activations"] += 1
            seen["busy"] += ctx.round > 0 and bool(inbox)
            super().on_round(ctx, inbox)

    net = SyncNetwork(graph, seed=5)
    stage = net.run(Counting, inputs=[
        {"in_s": in_s[v], "rank": ranks[v], "rank_space": 10_000}
        for v in range(graph.n)
    ])
    assert stage.outputs == plain.outputs
    joins = sum(o["joined"] for o in stage.outputs)
    assert seen["publish"] == graph.n + seen["busy"] + joins
    assert seen["publish"] < seen["activations"]


def test_notify_sends_one_fanout_per_wave():
    graph = gnp_random_graph(60, 0.3, seed=6)
    net = SyncNetwork(graph, seed=6)
    rng = random.Random(6)
    roles = [rng.choice(["colored"] * 6 + ["deferred", "idle"])
             for _ in range(graph.n)]
    ids = net.topology.id_of
    inputs = []
    for v, role in enumerate(roles):
        targets = tuple(x for x in net.knowledge[v].neighbor_ids
                        if rng.random() < 0.5)
        inputs.append({"role": role, "color": v, "targets": targets})
    calls = count_submits(net)
    stage = net.run(NotifyStage, inputs=inputs, name="notify")
    deferred = {v for v, r in enumerate(roles) if r == "deferred"}
    colored = [v for v, r in enumerate(roles) if r == "colored"]
    replying = [v for v in colored
                if deferred.intersection(graph.neighbors(v))]
    assert replying
    assert calls == Counter({
        "color": len(colored) + len(replying),
        "deferred": len(deferred),
    })
    assert stage.stats.messages > sum(calls.values())
    # A deferring node hears each colored neighbor's color once per
    # round-0 target entry plus once in that neighbor's reply fan-out.
    for d in deferred:
        heard = Counter(stage.outputs[d]["struck"])
        assert heard == Counter(
            [v for v in colored if ids[d] in inputs[v]["targets"]]
            + [v for v in colored if d in graph.neighbors(v)])
