"""Tests for the one-call API facade."""

import gc

import pytest

from repro import api
from repro.congest.runtime import make_scheduler
from repro.errors import ConvergenceError, ReproError, SynchronizerBudgetError
from repro.graphs.generators import connected_gnp_graph, family_graph

from tests.conftest import connected_families


@pytest.fixture(scope="module")
def workload():
    return connected_gnp_graph(120, 0.2, seed=42)


def test_color_graph_default(workload):
    result = api.color_graph(workload, seed=1)
    assert result.valid
    assert result.num_colors <= result.palette_bound
    assert result.report.n == workload.n
    assert result.messages > 0


def test_color_graph_eps_delta(workload):
    result = api.color_graph(workload, method="kt1-eps-delta",
                             epsilon=0.5, seed=2)
    assert result.valid
    assert result.palette_bound >= workload.max_degree() + 1


def test_color_graph_baselines(workload):
    trial = api.color_graph(workload, method="baseline-trial", seed=3)
    greedy = api.color_graph(workload, method="baseline-rank-greedy", seed=4)
    assert trial.valid and greedy.valid
    # rank-greedy is deterministic 2m messages
    assert greedy.report.messages == 2 * workload.m \
        or greedy.report.messages == pytest.approx(2 * workload.m, rel=0.2)


def test_color_graph_async(workload):
    result = api.color_graph(workload, seed=5, asynchronous=True)
    assert result.valid


def test_async_eps_delta_auto_synchronized(workload):
    """Algorithm 2 is round-cadence, yet runs async via the auto-wrapped
    alpha-synchronizer; the report carries the cost of asynchrony."""
    result = api.color_graph(workload, method="kt1-eps-delta", seed=5,
                             asynchronous=True)
    assert result.valid
    rep = result.report
    assert rep.engine == "async" and rep.latency == "uniform"
    assert rep.synchronized_stages >= 1
    assert rep.overhead_messages == rep.messages - rep.sync_messages
    assert rep.overhead_messages > 0      # acks + safes are not free
    # The shadow baseline is the synchronous run of the same cell.
    sync = api.color_graph(workload, method="kt1-eps-delta", seed=5)
    assert rep.sync_messages == sync.report.messages
    assert rep.sync_rounds == sync.report.rounds
    # The elected broadcast root may differ across engines (Boruvka
    # merging is delivery-order dependent), so colors need not be
    # identical — but the protocol constants derived from the aggregate
    # must be.
    assert result.palette_bound == sync.palette_bound


def test_async_mis_every_method(workload):
    for method in ("kt2-sampled-greedy", "luby", "rank-greedy"):
        result = api.find_mis(workload, method=method, seed=6,
                              asynchronous=True)
        assert result.valid, method
        assert result.report.engine == "async"
        assert result.report.sync_messages is not None


def test_unknown_coloring_method(workload):
    with pytest.raises(ReproError):
        api.color_graph(workload, method="nope")


def test_find_mis_default(workload):
    result = api.find_mis(workload, seed=6)
    assert result.valid
    assert 0 < result.size < workload.n


def test_find_mis_luby_and_greedy(workload):
    for method in ("luby", "rank-greedy"):
        result = api.find_mis(workload, method=method, seed=7)
        assert result.valid, method


def test_unknown_mis_method(workload):
    with pytest.raises(ReproError):
        api.find_mis(workload, method="nope")


def test_report_stage_breakdown(workload):
    result = api.color_graph(workload, seed=8)
    assert sum(result.report.stage_messages.values()) == result.messages
    assert result.report.utilized_edges <= workload.m


def test_messages_per_edge(workload):
    result = api.find_mis(workload, method="luby", seed=9)
    assert result.report.messages_per_edge == (
        result.messages / workload.m
    )


@pytest.mark.parametrize("name,graph", connected_families(seed=1000)[:5])
def test_api_on_families(name, graph):
    coloring = api.color_graph(graph, seed=10)
    mis = api.find_mis(graph, seed=11)
    assert coloring.valid and mis.valid


def test_mis_non_comparison_flag(workload):
    """comparison_based=False must give the same validity (the flag only
    switches the discipline checker)."""
    result = api.find_mis(workload, seed=12, comparison_based=False)
    assert result.valid


def test_report_aggregates_repeated_stage_names():
    """A driver that reuses a stage name must not lose earlier stages'
    messages from the breakdown (regression: dict assignment overwrote)."""
    from repro.congest.network import SyncNetwork
    from repro.congest.node import NodeAlgorithm

    class Ping(NodeAlgorithm):
        def on_round(self, ctx, inbox):
            if ctx.round == 0:
                for u in ctx.neighbor_ids:
                    ctx.send(u, "ping")
            ctx.done(None)

    g = connected_gnp_graph(20, 0.3, seed=3)
    net = SyncNetwork(g, seed=4)
    net.run(Ping, name="dup")
    net.run(Ping, name="dup")
    report = api._report("test", net)
    assert net.stats.messages > 0
    assert report.stage_messages == {"dup": net.stats.messages}
    assert sum(report.stage_messages.values()) == report.messages


def test_stats_lite_api(workload):
    """collect_utilization=False: same counts, no utilization detail."""
    full = api.color_graph(workload, seed=5)
    lite = api.color_graph(workload, seed=5, collect_utilization=False)
    assert lite.valid and lite.colors == full.colors
    assert lite.messages == full.messages
    assert lite.report.rounds == full.report.rounds
    assert lite.report.stage_messages == full.report.stage_messages
    assert lite.report.utilized_edges == 0
    assert full.report.utilized_edges > 0

    m_full = api.find_mis(workload, seed=5)
    m_lite = api.find_mis(workload, seed=5, collect_utilization=False)
    assert m_lite.in_mis == m_full.in_mis
    assert m_lite.messages == m_full.messages


# -- the cyclic garbage collector is paused for one engine run ---------------


def _spy_luby(monkeypatch, fail=None):
    """Patch Luby's driver to record ``gc.isenabled()`` per call and, on
    the calls ``fail(net, call_number)`` names, raise what it returns."""
    seen = []
    real = api.run_luby

    def spy(net):
        seen.append(gc.isenabled())
        exc = fail(net, len(seen)) if fail is not None else None
        if exc is not None:
            raise exc
        return real(net)

    monkeypatch.setattr(api, "run_luby", spy)
    return seen


def test_collector_paused_for_the_drive_and_resumed(workload, monkeypatch,
                                                    gc_enabled):
    seen = _spy_luby(monkeypatch)
    result = api.find_mis(workload, method="luby", seed=1)
    assert result.valid
    assert seen == [False]
    assert gc.isenabled()


@pytest.mark.parametrize("faults, raised, expected", [
    (None, ConvergenceError("no termination"), ConvergenceError),
    ("drop:0.1", TypeError("casualty output is None"), ReproError),
])
def test_collector_resumed_when_the_drive_raises(workload, monkeypatch,
                                                 gc_enabled, faults, raised,
                                                 expected):
    seen = _spy_luby(monkeypatch, fail=lambda net, call: raised)
    with pytest.raises(expected):
        api.find_mis(workload, method="luby", seed=1, faults=faults)
    assert seen == [False]
    assert gc.isenabled()


def test_collector_resumed_after_a_synchronizer_budget_retry(
        workload, monkeypatch, gc_enabled):
    # Call 1 is the synchronous shadow, call 2 the first async attempt.
    seen = _spy_luby(monkeypatch, fail=lambda net, call: (
        SynchronizerBudgetError("budget expired") if call == 2 else None))
    result = api.find_mis(workload, method="luby", seed=1,
                          asynchronous=True)
    assert result.valid and result.report.engine == "async"
    assert seen == [False, False, False]
    assert gc.isenabled()


def test_collector_left_off_when_the_caller_turned_it_off(workload,
                                                          monkeypatch,
                                                          gc_enabled):
    seen = _spy_luby(monkeypatch)
    gc.disable()
    api.find_mis(workload, method="luby", seed=1)
    assert seen == [False]
    assert not gc.isenabled()


@pytest.mark.pin
@pytest.mark.parametrize("n", [240, 320])
@pytest.mark.parametrize("method, options", [
    ("kt1-delta-plus-one", {"scheduler": "rounds"}),
    ("kt1-delta-plus-one", {"scheduler": "columnar"}),
    ("kt1-delta-plus-one", {"asynchronous": True}),
    ("baseline-trial", {}),
], ids=["alg1-rounds", "alg1-columnar", "alg1-async", "baseline-trial"])
def test_engine_run_leaves_only_per_node_cyclic_garbage(n, method, options,
                                                        gc_enabled):
    """``api._run_engines`` pauses the cyclic collector for a whole
    engine run.  The premise that makes that safe: a run leaves
    O(n) cyclic garbage (about 9-22 objects per node), nothing per
    message.  A per-message reference cycle (a ``Msg`` pointing back at
    its ``Envelope``, say) would fail both bounds here instead of
    quietly growing memory while the collector is off."""
    graph = family_graph("gnp", n, p=0.45, seed=0)
    make_scheduler("columnar")          # numpy's import is not the run's
    gc.collect()
    gc.disable()
    result = api.color_graph(graph, method=method, seed=0, **options)
    garbage = gc.collect()
    assert result.valid
    assert garbage <= 40 * n
    assert result.messages >= 10 * garbage
