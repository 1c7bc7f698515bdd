"""The event scheduler's one-call fan-out delays against per-copy draws.

``EventScheduler.schedule_fanout`` takes all of a send's delays from one
``LatencyModel.fanout_delays`` call.  For ``uniform`` (which draws
inline), ``fixed`` and ``adversary_latency`` (which loop ``link_delay``),
over charged sizes 1-8 and fan-outs of every size, that call must return
what a loop of ``link_delay`` calls returns, draw for draw and float for
float, and leave the rng and the adversary's bookkeeping in the same
state.  A subclass of ``uniform`` that changes a draw falls back to the
loop.  End to end, a stage's arrival transcript (charged sizes 1-4,
repeated receivers included) must equal the one a per-receiver
``link_delay`` scheduler produces.
"""

from __future__ import annotations

import heapq
import random
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

from repro.congest.async_network import AsyncNetwork
from repro.congest.message import Envelope, Msg
from repro.congest.node import FunctionAlgorithm
from repro.congest.runtime import (
    AdversaryLatency,
    EventScheduler,
    FixedLatency,
    LatencyModel,
    UniformLatency,
)
from repro.graphs.generators import connected_gnp_graph


@st.composite
def latency_models(draw):
    """A factory for twin instances of one drawn latency model."""
    kind = draw(st.sampled_from(["uniform", "fixed", "adversary_latency"]))
    if kind == "uniform":
        low = draw(st.floats(0.0, 1.0))
        high = low + draw(st.floats(0.0, 3.0))
        return lambda: UniformLatency(low, high)
    if kind == "fixed":
        delay = draw(st.floats(1e-3, 7.0))
        return lambda: FixedLatency(delay)
    slowdown = draw(st.floats(1.0, 9.0))
    budget = draw(st.integers(0, 6))
    warmup = draw(st.integers(0, 4))
    low = draw(st.floats(0.0, 0.5))
    return lambda: AdversaryLatency(slowdown, budget, warmup, low)


def envelope(sender: int) -> Envelope:
    return Envelope(sender, 1, (), Msg(None, "x", ()))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(latency_models(), st.integers(0, 2**32),
       st.lists(st.tuples(st.integers(0, 7), st.integers(1, 8),
                          st.integers(0, 12)), min_size=1, max_size=12))
def test_fanout_delays_match_per_copy_link_delay(factory, seed, sends):
    fanout_model, copy_model = factory(), factory()
    net = SimpleNamespace(_n=8)
    fanout_model.begin(net)
    copy_model.begin(net)
    fanout_rng, copy_rng = random.Random(seed), random.Random(seed)
    for sender, charged, k in sends:
        env = envelope(sender)
        got = fanout_model.fanout_delays(env, charged, k, fanout_rng)
        want = [copy_model.link_delay(env, charged, copy_rng)
                for _ in range(k)]
        assert got == want
    assert fanout_rng.getstate() == copy_rng.getstate()
    assert vars(fanout_model).keys() == vars(copy_model).keys()
    for name, value in vars(copy_model).items():
        if name != "base":
            assert getattr(fanout_model, name) == value


class PerCopyScheduler(EventScheduler):
    """The reference: one ``link_delay`` call per receiver, dict clocks."""

    def run_stage(self, *args):
        self._clocks: dict[int, float] = {}
        return super().run_stage(*args)

    def schedule_fanout(self, env, receivers, charged):
        link_delay = self.latency.link_delay
        base = env.sender * self.net._n
        for receiver in receivers:
            link = base + receiver
            clock = self._clocks.get(link, 0.0)
            now = self._now
            arrival = (clock if clock > now else now) + link_delay(
                env, charged, self._rng)
            self._clocks[link] = arrival
            self._seq += 1
            heapq.heappush(self._queue, (arrival, self._seq, receiver, env))


def transcript(graph, seed, factory, plans, scheduler=None):
    """Run one stage whose nodes send the planned fan-outs (one per
    activation while the plan lasts); returns every activation as
    (vertex, time, sender, tag, fields)."""
    net = AsyncNetwork(graph, seed=seed, latency=factory(),
                       scheduler=scheduler)
    log = []
    cursor = [0] * graph.n

    def program(ctx, inbox):
        v = ctx._vertex
        for msg in inbox:
            log.append((v, net.scheduler._now, msg.sender_id, msg.tag,
                        msg.fields))
        plan = plans[v]
        if cursor[v] < len(plan):
            picks, charged = plan[cursor[v]]
            cursor[v] += 1
            nbrs = ctx.neighbor_ids
            targets = [nbrs[i % len(nbrs)] for i in picks]
            if targets:
                # 4 one-word fields per charged message (4 words each).
                ctx.broadcast(targets, "x", *range(4 * charged))
        ctx.done()

    net.run(lambda: FunctionAlgorithm(program, passive=True), name="plan")
    return log, net.stats.messages, net.stats.rounds


@settings(max_examples=40, deadline=None, derandomize=True)
@given(latency_models(), st.integers(0, 2**16), st.integers(5, 10),
       st.data())
def test_stage_arrivals_match_per_copy_scheduler(factory, seed, n, data):
    graph = connected_gnp_graph(n, 0.5, seed=seed)
    plans = data.draw(st.lists(
        st.lists(st.tuples(st.lists(st.integers(0, 20), max_size=9),
                           st.integers(1, 4)), max_size=3),
        min_size=n, max_size=n))
    reference = transcript(graph, seed, factory, plans,
                           scheduler=PerCopyScheduler(factory()))
    assert transcript(graph, seed, factory, plans) == reference


class Doubled(UniformLatency):
    def packet_delay(self, rng):
        return 2 * super().packet_delay(rng)


class Renamed(UniformLatency):
    name = "renamed"


def test_uniform_subclass_that_changes_a_draw_uses_the_loop():
    assert Doubled.fanout_delays is LatencyModel.fanout_delays
    assert Renamed.fanout_delays is UniformLatency.fanout_delays
    env = envelope(0)
    got = Doubled().fanout_delays(env, 3, 5, random.Random(1))
    rng = random.Random(1)
    want = [Doubled().link_delay(env, 3, rng) for _ in range(5)]
    assert got == want
