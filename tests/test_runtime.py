"""Tests for the runtime core: schedulers and latency models."""

import random

import pytest

from repro.congest.async_network import AsyncNetwork
from repro.congest.network import SyncNetwork
from repro.congest.node import NodeAlgorithm
from repro.congest.runtime import (
    LATENCY_MODELS,
    AdversaryLatency,
    EventScheduler,
    FixedLatency,
    HeavyTailLatency,
    LatencyModel,
    RoundScheduler,
    UniformLatency,
    make_latency_model,
)
from repro.errors import ReproError
from repro.mis.luby import run_luby
from repro.mis.verify import check_mis


class EchoOnce(NodeAlgorithm):
    passive_when_idle = True

    def setup(self, ctx):
        self.heard = 0

    def on_round(self, ctx, inbox):
        self.heard += len(inbox)
        if ctx.round == 0:
            for u in ctx.neighbor_ids:
                ctx.send(u, "hi")
        ctx.done(self.heard)


# -- latency models -----------------------------------------------------------


def test_registry_names_and_instances():
    for name in LATENCY_MODELS:
        model = make_latency_model(name)
        assert isinstance(model, LatencyModel)
        assert model.name == name
    custom = FixedLatency(0.25)
    assert make_latency_model(custom) is custom
    with pytest.raises(ReproError):
        make_latency_model("tachyon")


def test_model_parameter_validation():
    with pytest.raises(ReproError):
        FixedLatency(0.0)
    with pytest.raises(ReproError):
        UniformLatency(low=0.5, high=0.2)
    with pytest.raises(ReproError):
        HeavyTailLatency(alpha=0.0)


def test_draws_are_seed_deterministic():
    for name in LATENCY_MODELS:
        model = make_latency_model(name)
        a = [model.packet_delay(random.Random(7)) for _ in range(1)]
        b = [model.packet_delay(random.Random(7)) for _ in range(1)]
        assert a == b
        assert all(d > 0 for d in a)


# -- scheduler pluggability ---------------------------------------------------


def test_explicit_round_scheduler_matches_default(gnp_small):
    default = SyncNetwork(gnp_small, seed=3)
    default.run(EchoOnce)
    explicit = SyncNetwork(gnp_small, seed=3, scheduler=RoundScheduler())
    explicit.run(EchoOnce)
    assert default.stats.summary() == explicit.stats.summary()


def test_event_scheduler_on_plain_network(gnp_small):
    """The scheduler seam is the whole async engine: a SyncNetwork with
    an EventScheduler delivers like an AsyncNetwork."""
    net = SyncNetwork(gnp_small, seed=3, scheduler=EventScheduler())
    res = net.run(EchoOnce)
    assert res.outputs == [gnp_small.degree(v)
                           for v in range(gnp_small.n)]
    anet = AsyncNetwork(gnp_small, seed=3)
    anet.run(EchoOnce)
    assert net.stats.messages == anet.stats.messages
    assert net.stats.rounds == anet.stats.rounds


def test_scheduler_serves_single_network(gnp_small):
    sched = RoundScheduler()
    SyncNetwork(gnp_small, seed=1, scheduler=sched)
    with pytest.raises(ReproError):
        SyncNetwork(gnp_small, seed=2, scheduler=sched)


# -- latency models through the engine ----------------------------------------


@pytest.mark.parametrize("latency", LATENCY_MODELS)
def test_luby_valid_and_count_stable_under_every_model(gnp_small, latency):
    """Count-based lockstep: the MIS stays valid under every delay
    distribution, and the message count matches the synchronous run."""
    anet = AsyncNetwork(gnp_small, seed=11, latency=latency)
    in_mis, _ = run_luby(anet)
    check_mis(gnp_small, in_mis)
    snet = SyncNetwork(gnp_small, seed=11)
    sync_mis, _ = run_luby(snet)
    assert in_mis == sync_mis
    assert anet.stats.messages == snet.stats.messages


def test_fixed_latency_time_is_deterministic(gnp_small):
    times = []
    for _ in range(2):
        anet = AsyncNetwork(gnp_small, seed=5, latency=FixedLatency(0.5))
        anet.run(EchoOnce)
        times.append(anet.stats.rounds)
    assert times[0] == times[1]


def test_latency_seed_determinism(gnp_small):
    """Same seed => identical schedule; different seed => (almost
    surely) different normalized time."""
    def time_of(seed):
        anet = AsyncNetwork(gnp_small, seed=seed, latency="heavy_tail")
        anet.run(EchoOnce)
        return anet.stats.rounds

    assert time_of(5) == time_of(5)


def test_async_network_exposes_latency_model(gnp_small):
    anet = AsyncNetwork(gnp_small, seed=1, latency="exponential")
    assert anet.latency_model.name == "exponential"
    assert isinstance(anet.scheduler, EventScheduler)


# -- the latency adversary ----------------------------------------------------


def test_adversary_latency_parameter_validation():
    with pytest.raises(ReproError):
        AdversaryLatency(slowdown=0.5)
    with pytest.raises(ReproError):
        AdversaryLatency(budget=-1)
    with pytest.raises(ReproError):
        AdversaryLatency(warmup=-1)


def test_adversary_latency_is_seed_deterministic(gnp_small):
    """Targeting consumes no randomness: a fixed seed reproduces the
    exact normalized-time schedule, run after run."""
    def run(seed):
        anet = AsyncNetwork(gnp_small, seed=seed,
                            latency="adversary_latency")
        anet.run(EchoOnce)
        return anet.stats.rounds, anet.stats.messages

    assert run(5) == run(5)
    assert run(9) == run(9)


def test_adversary_latency_stretches_time_not_counts(gnp_small):
    """Against `uniform` (the identical base draws), the adversary can
    only reorder and delay: message counts stay put, normalized time
    does not shrink."""
    adv = AsyncNetwork(gnp_small, seed=11, latency="adversary_latency")
    adv.run(EchoOnce)
    base = AsyncNetwork(gnp_small, seed=11, latency="uniform")
    base.run(EchoOnce)
    assert adv.stats.messages == base.stats.messages
    assert adv.stats.rounds >= base.stats.rounds
    assert adv.latency_model.slowed > 0


def test_adversary_latency_respects_budget(gnp_small):
    model = AdversaryLatency(budget=3, warmup=0)
    anet = AsyncNetwork(gnp_small, seed=4, latency=model)
    anet.run(EchoOnce)
    assert model.slowed == 3
    assert model.remaining == 0


def test_adversary_latency_zero_budget_matches_uniform(gnp_small):
    """budget=0 disarms the adversary entirely: same draws, same
    schedule, bit-identical normalized time."""
    model = AdversaryLatency(budget=0)
    adv = AsyncNetwork(gnp_small, seed=8, latency=model)
    adv.run(EchoOnce)
    base = AsyncNetwork(gnp_small, seed=8, latency="uniform")
    base.run(EchoOnce)
    assert adv.stats.rounds == base.stats.rounds
    assert adv.stats.messages == base.stats.messages


def test_adversary_latency_instance_resets_between_networks(gnp_small):
    """`begin` re-arms a reused instance: the second network sees the
    full budget again, not the first run's leftovers."""
    model = AdversaryLatency(budget=5, warmup=0)
    a = AsyncNetwork(gnp_small, seed=2, latency=model)
    a.run(EchoOnce)
    first = model.slowed
    assert first == 5
    b = AsyncNetwork(gnp_small, seed=2, latency=model)
    b.run(EchoOnce)
    assert model.slowed == first
    assert a.stats.rounds == b.stats.rounds
