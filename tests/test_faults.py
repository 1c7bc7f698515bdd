"""The fault-model seam: parsing, semantics, determinism, and plumbing.

Covers the contracts ``docs/faults.md`` states:

* spec grammar (``drop:P``, ``crash:P[:T[:R]]``, ``adversary[:B[:W]]``);
* charged-but-undelivered drops (bandwidth is paid, delivery is not);
* crash windows on the cumulative engine clock, with recovery;
* the adversary's budget/warmup bounds;
* bit-identical records for a fixed (seed, fault spec) — within one
  process and across fresh interpreters with different hash seeds;
* ``faults="none"`` being literally the fault-free engine path;
* the sweep layer: cell keys, spec validation, runner record fields.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro import api
from repro.congest.network import SyncNetwork
from repro.congest.runtime import (
    AdaptiveAdversary,
    MessageDrop,
    NodeCrash,
    make_fault_model,
)
from repro.errors import ReproError
from repro.graphs.generators import connected_gnp_graph, family_graph
from repro.mis.luby import run_luby


# -- spec grammar -------------------------------------------------------------


def test_none_specs_resolve_to_no_model():
    assert make_fault_model(None) is None
    assert make_fault_model("none") is None


def test_instances_pass_through():
    model = MessageDrop(p=0.3)
    assert make_fault_model(model) is model


def test_drop_spec_parsing():
    assert make_fault_model("drop").p == 0.05
    assert make_fault_model("drop:0.25").p == 0.25
    assert make_fault_model("drop:0").p == 0.0


def test_crash_spec_parsing():
    m = make_fault_model("crash")
    assert (m.p, m.at, m.recover) == (0.05, 16.0, None)
    m = make_fault_model("crash:0.2:8:4")
    assert (m.p, m.at, m.recover) == (0.2, 8.0, 4.0)


def test_adversary_spec_parsing():
    m = make_fault_model("adversary")
    assert (m.budget, m.warmup) == (64, 4)
    m = make_fault_model("adversary:32:2")
    assert (m.budget, m.warmup) == (32, 2)


@pytest.mark.parametrize("spec", [
    "drop:x", "drop:0.1:0.2", "crash:a", "crash:0.1:8:2:1",
    "adversary:1:2:3", "adversary:many", "bogus", 42,
])
def test_malformed_specs_raise(spec):
    with pytest.raises(ReproError):
        make_fault_model(spec)


#: The full accept/reject table for the spec grammar.  Accepted rows
#: check the constructed model's salient parameter; rejected rows check
#: both the exception type and that the message names the offending
#: spec — a bad entry in a 40-cell ``--faults`` axis must be findable
#: from the error alone.
ACCEPTED_SPECS = [
    ("drop", lambda m: m.p == 0.05),
    ("drop:0", lambda m: m.p == 0.0),
    ("drop:1", lambda m: m.p == 1.0),
    ("drop:0.25", lambda m: m.p == 0.25),
    ("crash", lambda m: (m.p, m.at, m.recover) == (0.05, 16.0, None)),
    ("crash:0.5", lambda m: m.p == 0.5),
    ("crash:0.2:8", lambda m: (m.p, m.at) == (0.2, 8.0)),
    ("crash:0.2:8:4", lambda m: (m.p, m.at, m.recover) == (0.2, 8.0, 4.0)),
    ("adversary", lambda m: (m.budget, m.warmup) == (64, 4)),
    ("adversary:0", lambda m: m.budget == 0),
    ("adversary:32:2", lambda m: (m.budget, m.warmup) == (32, 2)),
]

REJECTED_SPECS = [
    # malformed tokens
    "drop:x", "drop:", "crash:a", "adversary:many", "adversary:1.5",
    # arity
    "drop:0.1:0.2", "crash:0.1:8:2:1", "adversary:1:2:3",
    # out-of-range parameters (constructor errors, wrapped by the parser)
    "drop:1.5", "drop:-0.1", "crash:-1", "crash:2",
    "adversary:-3", "adversary:4:-1",
    # unknown heads
    "bogus", "drops:0.1", "",
]


@pytest.mark.parametrize("spec,check", ACCEPTED_SPECS,
                         ids=[s for s, _ in ACCEPTED_SPECS])
def test_spec_table_accepted(spec, check):
    assert check(make_fault_model(spec))


@pytest.mark.parametrize("spec", REJECTED_SPECS)
def test_spec_table_rejected_and_named(spec):
    """Every rejected spec raises ReproError (never bare ValueError)
    and the message contains the spec itself."""
    with pytest.raises(ReproError) as excinfo:
        make_fault_model(spec)
    assert repr(spec) in str(excinfo.value)


# -- drop semantics -----------------------------------------------------------


def test_drops_are_charged_but_undelivered():
    """With p=1 every message is paid for and none arrives: the message
    total equals the dropped total, and the run still terminates (the
    engine converts the resulting quiescence into starved casualties)."""
    g = connected_gnp_graph(20, 0.3, seed=0)
    net = SyncNetwork(g, seed=0, faults="drop:1")
    run_luby(net)
    assert net.stats.messages > 0
    assert net.stats.dropped_messages == net.stats.messages
    assert net.casualties           # nobody heard anything


def test_drop_zero_matches_fault_free_counts():
    """p=0 takes the faulted engine path but must measure identically to
    the fault-free one — the seam itself costs nothing."""
    g = connected_gnp_graph(30, 0.25, seed=1)
    plain = SyncNetwork(g, seed=1)
    run_luby(plain)
    guarded = SyncNetwork(g, seed=1, faults="drop:0")
    run_luby(guarded)
    assert guarded.stats.messages == plain.stats.messages
    assert guarded.stats.rounds == plain.stats.rounds
    assert guarded.stats.dropped_messages == 0
    assert guarded.casualties == {}


def test_drop_casualties_are_receivers():
    g = connected_gnp_graph(30, 0.25, seed=2)
    net = SyncNetwork(g, seed=2, faults="drop:0.2")
    run_luby(net)
    assert net.stats.dropped_messages > 0
    assert any(r == "dropped" for r in net.casualties.values())


# -- crash semantics ----------------------------------------------------------


def test_explicit_crash_schedule_silences_the_node():
    """A node crashed from time 0 sends nothing; its neighbors are not
    casualties just because it is (messages *to* it are discarded and
    counted, messages from the others still flow)."""
    g = connected_gnp_graph(20, 0.3, seed=3)
    model = NodeCrash(schedule={0: (0.0, None)})
    net = SyncNetwork(g, seed=3, faults=model)
    run_luby(net)
    assert net.casualties[0] == "crashed"
    assert net.stats.crashed_nodes == 1
    assert net.stats.dropped_messages > 0   # its inbound traffic discarded


def test_recovered_node_still_counts_as_casualty():
    """Recovery restores participation, not trust: a vertex that missed
    part of the run stays a casualty for verification purposes."""
    g = connected_gnp_graph(20, 0.3, seed=4)
    model = NodeCrash(schedule={1: (1.0, 2.0)})
    net = SyncNetwork(g, seed=4, faults=model)
    run_luby(net)
    assert net.casualties.get(1) == "crashed"
    assert not model.crashed_at(1, now=5.0)     # window over: participating
    assert model.crashed_at(1, now=1.5)


def test_seeded_crash_schedule_is_deterministic():
    g = connected_gnp_graph(40, 0.2, seed=5)
    runs = []
    for _ in range(2):
        net = SyncNetwork(g, seed=5, faults="crash:0.3:6")
        run_luby(net)
        runs.append((net.stats.messages, net.stats.rounds,
                     net.stats.crashed_nodes, dict(net.casualties)))
    assert runs[0] == runs[1]
    assert runs[0][2] > 0       # p=0.3 over 40 vertices: some crashed


# -- adversary semantics ------------------------------------------------------


def test_adversary_respects_budget():
    g = connected_gnp_graph(40, 0.3, seed=6)
    net = SyncNetwork(g, seed=6, faults="adversary:10:0")
    run_luby(net)
    assert 0 < net.stats.dropped_messages <= 10


def test_adversary_zero_budget_is_harmless():
    g = connected_gnp_graph(30, 0.25, seed=7)
    plain = SyncNetwork(g, seed=7)
    run_luby(plain)
    net = SyncNetwork(g, seed=7, faults="adversary:0")
    run_luby(net)
    assert net.stats.dropped_messages == 0
    assert net.stats.messages == plain.stats.messages


def test_adversary_targets_the_busiest_sender():
    """On a star every message goes through the hub, so once past warmup
    the hub's traffic is exactly what the adversary kills."""
    from repro.graphs.core import Graph

    star = Graph(8, [(0, i) for i in range(1, 8)])
    model = AdaptiveAdversary(budget=4, warmup=2)
    net = SyncNetwork(star, seed=8, faults=model)
    run_luby(net)
    assert model.budget - model.remaining == net.stats.dropped_messages
    assert net.stats.dropped_messages > 0


# -- determinism --------------------------------------------------------------


@pytest.mark.parametrize("spec", ["drop:0.1", "crash:0.2:6:3",
                                  "adversary:16:2"])
def test_same_seed_same_fault_pattern(spec):
    g = connected_gnp_graph(36, 0.25, seed=9)
    outcomes = []
    for _ in range(2):
        net = SyncNetwork(g, seed=9, faults=spec)
        in_mis, _ = run_luby(net)
        outcomes.append({
            "messages": net.stats.messages,
            "rounds": net.stats.rounds,
            "dropped": net.stats.dropped_messages,
            "casualties": dict(net.casualties),
            "in_mis": list(in_mis),
        })
    assert outcomes[0] == outcomes[1]


def test_fault_stream_independent_of_latency_stream():
    """drop decisions come from the faults-{seed} stream, not the
    delays-{seed} one: the sync engine (no latency draws at all) and a
    fresh model reproduce the identical drop pattern."""
    g = connected_gnp_graph(30, 0.25, seed=10)
    a = SyncNetwork(g, seed=10, faults="drop:0.15")
    run_luby(a)
    b = SyncNetwork(g, seed=10, faults="drop:0.15")
    run_luby(b)
    assert a.casualties == b.casualties
    assert a.stats.dropped_messages == b.stats.dropped_messages


_WORKER = """
import json, sys
sys.path.insert(0, {src!r})
from repro import api
from repro.graphs.generators import family_graph

g = family_graph("gnp", 32, p=0.25, seed=4)
r = api.find_mis(g, method="luby", seed=4, faults="drop:0.1")
print(json.dumps({{
    "messages": r.messages,
    "rounds": r.report.rounds,
    "dropped": r.report.dropped_messages,
    "casualties": list(r.report.casualty_vertices),
    "mis": [v for v, m in enumerate(r.in_mis) if m],
    "survivor_valid": r.report.survivor_valid,
}}, sort_keys=True))
"""


def test_cross_process_fault_determinism():
    """Two fresh interpreters with different hash seeds produce
    bit-identical faulted records — nothing leaks in from dict/set
    iteration order or interpreter state."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    script = _WORKER.format(src=os.path.abspath(src))
    outs = []
    for hash_seed in ("0", "1234"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, env=env,
                              check=True)
        outs.append(proc.stdout.strip())
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["dropped"] > 0


# -- api plumbing -------------------------------------------------------------


def test_api_report_carries_fault_fields():
    g = connected_gnp_graph(30, 0.3, seed=11)
    r = api.color_graph(g, method="baseline-rank-greedy", seed=11,
                        faults="drop:0.1")
    assert r.report.faults == "drop:0.1"
    assert r.report.dropped_messages > 0
    assert r.report.survivor_valid is True
    assert all(0 <= v < g.n for v in r.report.casualty_vertices)


def test_api_fault_free_report_defaults():
    g = connected_gnp_graph(20, 0.3, seed=12)
    r = api.find_mis(g, method="rank-greedy", seed=12)
    assert r.report.faults is None
    assert r.report.dropped_messages == 0
    assert r.report.crashed_nodes == 0
    assert r.report.casualty_vertices == ()
    assert r.report.survivor_valid is None


def test_api_faults_none_string_is_fault_free():
    g = connected_gnp_graph(20, 0.3, seed=13)
    plain = api.find_mis(g, method="luby", seed=13)
    named = api.find_mis(g, method="luby", seed=13, faults="none")
    assert named.report.faults is None
    assert named.messages == plain.messages
    assert named.report.rounds == plain.report.rounds
    assert named.in_mis == plain.in_mis


def test_structure_building_method_fails_loudly_under_crashes():
    """Algorithm 1's danner reads stage outputs between stages; a
    casualty's None output must surface as a ReproError naming the
    fault regime, never a raw TypeError — and the sweep farm records
    the same run as a status="error" cell instead of crashing."""
    from repro.experiments import Cell
    from repro.experiments.runner import run_cell

    g = connected_gnp_graph(48, 0.25, seed=2)
    with pytest.raises(ReproError, match="fault injection"):
        api.color_graph(g, method="kt1-delta-plus-one", seed=2,
                        faults="crash:0.1:8")
    rec = run_cell(Cell(family="gnp", n=48, seed=2,
                        method="kt1-delta-plus-one", faults="crash:0.1:8"))
    assert rec["status"] == "error"
    assert rec["faults"] == "crash:0.1:8"


def test_async_engine_supports_faults():
    g = connected_gnp_graph(24, 0.3, seed=14)
    r = api.find_mis(g, method="luby", seed=14, asynchronous=True,
                     faults="drop:0.1")
    assert r.report.engine == "async"
    assert r.report.faults == "drop:0.1"
    assert r.report.survivor_valid is True


# -- sweep layer --------------------------------------------------------------


def test_fault_free_cell_key_is_unchanged():
    from repro.experiments import Cell

    cell = Cell(family="gnp", n=100, seed=0, method="luby")
    assert cell.key() == "gnp/n100/p0.2/luby/sync/eps0.5/lite/s0"


def test_faulted_cell_key_carries_the_spec():
    from repro.experiments import Cell

    cell = Cell(family="gnp", n=100, seed=0, method="luby",
                faults="drop:0.05")
    assert "/fdrop:0.05/" in cell.key()


def test_sweep_spec_faults_axis_multiplies_and_validates():
    from repro.experiments import SweepSpec

    spec = SweepSpec(sizes=(40,), seeds=(0, 1), methods=("luby",),
                     faults=("none", "drop:0.05"))
    assert spec.size == 4
    assert sum(1 for c in spec.cells() if c.faults == "drop:0.05") == 2
    with pytest.raises(ReproError):
        SweepSpec(faults=("drop:oops",))
    with pytest.raises(ReproError):
        SweepSpec(faults=("drop:0.05", "drop:0.05"))
    with pytest.raises(ReproError):
        SweepSpec(faults=())


def test_run_cell_records_fault_fields():
    from repro.experiments import Cell
    from repro.experiments.runner import run_cell

    rec = run_cell(Cell(family="gnp", n=36, seed=0, method="luby",
                        faults="drop:0.1"))
    assert rec["status"] == "ok"
    assert rec["faults"] == "drop:0.1"
    assert rec["dropped_messages"] > 0
    assert rec["survivor_valid"] is True
    assert rec["casualties"] >= 0

    plain = run_cell(Cell(family="gnp", n=36, seed=0, method="luby"))
    assert plain["faults"] is None
    assert plain["dropped_messages"] == 0


def test_run_cell_fault_records_are_bit_identical():
    from repro.experiments import Cell
    from repro.experiments.runner import run_cell

    cell = Cell(family="torus", n=49, seed=1, method="rank-greedy",
                faults="crash:0.2:6")
    a, b = run_cell(cell), run_cell(cell)
    for rec in (a, b):
        rec.pop("wall_s")
        rec.pop("graph_s")
        rec.pop("stage_wall")
    assert a == b


def test_torus_and_hypercube_families_sweepable():
    from repro.experiments import Cell
    from repro.experiments.runner import run_cell

    for family, n in (("torus", 49), ("hypercube", 32)):
        rec = run_cell(Cell(family=family, n=n, seed=0, method="luby",
                            faults="drop:0.05"))
        assert rec["status"] == "ok", rec
        assert rec["valid"] is True
        assert rec["n"] == family_graph(family, n).n
