"""Tests for the experiment-sweep subsystem (repro.experiments)."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from repro import api, cli
from repro.errors import ReproError
from repro.experiments import (
    Cell,
    ResultStore,
    SweepSpec,
    bench_payload,
    fit_exponent,
    growth_exponents,
    latest_per_key,
    mean_ci,
    render_report,
    run_cell,
    run_sweep,
    summarize,
)
from repro.graphs.generators import family_graph, regular_degree_for
from repro.supervise import Supervisor, spawn_child

from scripted_children import HANG, ScriptedChild, spawn_script


# -- lazy package loading ------------------------------------------------------

_LAZY_PROBE = """
import sys
{statement}
assert "repro.experiments.distributed" not in sys.modules, "{statement}"
import repro.experiments as experiments
for name in experiments.__all__:
    getattr(experiments, name)
assert experiments.distributed.Coordinator is experiments.Coordinator
"""


@pytest.mark.parametrize("statement", [
    "import repro.serving",
    "from repro.experiments import runner",
])
def test_experiments_package_loads_distributed_only_on_use(statement):
    """A query server or a cell runner never imports the farm's wire stack,
    yet every exported name and submodule still resolves."""
    proc = subprocess.run(
        [sys.executable, "-c", _LAZY_PROBE.format(statement=statement)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_experiments_package_rejects_unknown_names():
    import repro.experiments as experiments

    with pytest.raises(AttributeError, match="no_such_name"):
        experiments.no_such_name


# -- spec ---------------------------------------------------------------------


def test_spec_expands_full_matrix():
    spec = SweepSpec(
        families=("gnp", "regular"),
        sizes=(40, 60),
        seeds=(0, 1, 2),
        methods=("kt1-delta-plus-one", "luby"),
    )
    cells = list(spec.cells())
    assert len(cells) == spec.size == 2 * 2 * 3 * 2
    assert len({c.key() for c in cells}) == len(cells)
    # Deterministic expansion order.
    assert [c.key() for c in spec.cells()] == [c.key() for c in cells]


def test_spec_rejects_unknown_method():
    with pytest.raises(ReproError):
        SweepSpec(methods=("no-such-method",))


def test_spec_rejects_empty_axis():
    with pytest.raises(ReproError):
        SweepSpec(sizes=())


def test_cell_problem_dispatch():
    assert Cell("gnp", 40, 0, "kt1-delta-plus-one").problem == "coloring"
    assert Cell("gnp", 40, 0, "luby").problem == "mis"


# -- store --------------------------------------------------------------------


def test_store_round_trip(tmp_path):
    store = ResultStore(str(tmp_path / "r.jsonl"))
    records = [{"key": f"k{i}", "messages": i * 10} for i in range(5)]
    with store:
        for rec in records:
            store.append(rec)
    assert store.load() == records
    assert store.completed_keys() == {f"k{i}" for i in range(5)}
    assert len(store) == 5


def test_store_tolerates_truncated_line(tmp_path):
    path = tmp_path / "r.jsonl"
    path.write_text('{"key": "a", "messages": 1}\n{"key": "b", "mess')
    store = ResultStore(str(path))
    assert store.completed_keys() == {"a"}


def test_store_missing_file_is_empty(tmp_path):
    store = ResultStore(str(tmp_path / "nope.jsonl"))
    assert store.load() == []
    assert store.completed_keys() == set()


# -- runner -------------------------------------------------------------------


def test_run_cell_coloring_record():
    rec = run_cell(Cell("gnp", 40, 3, "kt1-delta-plus-one"))
    g = family_graph("gnp", 40, p=0.2, seed=3)
    assert rec["valid"] is True
    assert rec["m"] == g.m
    assert rec["messages"] > 0 and rec["rounds"] > 0
    assert rec["utilized"] is None          # stats-lite default
    assert rec["colors"] <= rec["palette_bound"]
    assert rec["wall_s"] > 0


def test_run_cell_mis_record():
    rec = run_cell(Cell("gnp", 40, 3, "luby"))
    assert rec["valid"] is True
    assert rec["mis_size"] > 0


def test_run_cell_full_stats():
    rec = run_cell(Cell("gnp", 40, 3, "luby", collect_utilization=True))
    assert rec["utilized"] > 0


def test_stats_lite_counts_match_full_accounting():
    """The stats-lite engine mode must not change what it measures."""
    lite = run_cell(Cell("gnp", 50, 9, "kt1-delta-plus-one"))
    full = run_cell(Cell("gnp", 50, 9, "kt1-delta-plus-one",
                         collect_utilization=True))
    assert lite["messages"] == full["messages"]
    assert lite["rounds"] == full["rounds"]
    mis_lite = run_cell(Cell("regular", 50, 9, "kt2-sampled-greedy"))
    mis_full = run_cell(Cell("regular", 50, 9, "kt2-sampled-greedy",
                             collect_utilization=True))
    assert mis_lite["messages"] == mis_full["messages"]
    assert mis_lite["rounds"] == mis_full["rounds"]


def test_sweep_supervised_workers_match_serial(tmp_path):
    """>= 2 families x >= 2 seeds in supervised children == the serial
    run; every supervised record carries ``attempts``."""
    spec = SweepSpec(
        families=("gnp", "regular"),
        sizes=(40,),
        seeds=(0, 1),
        methods=("luby",),
    )
    serial = run_sweep(spec, store=None, workers=0)
    store = ResultStore(str(tmp_path / "workers.jsonl"))
    with store:
        parallel = run_sweep(spec, store=store, workers=2)
    assert len(serial) == len(parallel) == spec.size
    by_key = lambda recs: {r["key"]: r["messages"] for r in recs}
    assert by_key(serial) == by_key(parallel)
    assert {r["attempts"] for r in parallel} == {1}
    # Round-trip through the JSON-lines store preserves the records.
    stored = {r["key"]: r["messages"] for r in store.load()}
    assert stored == by_key(serial)


def test_sweep_workers_record_a_raising_cell_as_error(monkeypatch):
    """Under ``workers > 1`` a fault-free cell that raises becomes an
    error record; its siblings still run and succeed."""
    from repro.experiments import runner

    spec = SweepSpec(families=("gnp",), sizes=(30,), seeds=(0, 1, 2),
                     methods=("luby",))
    keys = [c.key() for c in spec.cells()]
    bad = keys[1]
    real_run_cell = runner.run_cell

    def run_cell(cell):
        if cell.key() == bad:
            raise ReproError("boom")
        return real_run_cell(cell)

    # Patched before the children fork, so they inherit it.
    monkeypatch.setattr(runner, "run_cell", run_cell)
    records = run_sweep(spec, store=None, workers=2)
    by_key = {r["key"]: r for r in records}
    assert len(records) == 3 and set(by_key) == set(keys)
    assert by_key[bad]["status"] == "error"
    assert "boom" in by_key[bad]["error"]
    assert by_key[bad]["attempts"] == 1
    assert all(r["status"] == "ok" and r["valid"]
               for key, r in by_key.items() if key != bad)
    with pytest.raises(ReproError, match="boom"):
        run_sweep(spec, store=None, workers=1)


def test_sweep_resume_skips_completed(tmp_path):
    spec = SweepSpec(families=("gnp",), sizes=(40,), seeds=(0, 1),
                     methods=("luby",))
    store = ResultStore(str(tmp_path / "resume.jsonl"))
    with store:
        first = run_sweep(spec, store=store, workers=0)
    assert len(first) == 2
    # Re-running the same spec against the same store does nothing...
    with store:
        again = run_sweep(spec, store=store, workers=0)
    assert again == []
    # ... and a widened spec runs only the new cells.
    wider = SweepSpec(families=("gnp",), sizes=(40,), seeds=(0, 1, 2),
                      methods=("luby",))
    with store:
        fresh = run_sweep(wider, store=store, workers=0)
    assert len(fresh) == 1
    assert len(store.load()) == 3


# -- stats --------------------------------------------------------------------


def test_fit_exponent_recovers_power_law():
    pts = [(n, 3.0 * n ** 1.5) for n in (50, 100, 200, 400)]
    assert abs(fit_exponent(pts) - 1.5) < 1e-9


def test_fit_exponent_degenerate_inputs():
    assert fit_exponent([]) == 0.0
    assert fit_exponent([(100, 5000)]) == 0.0          # single point
    assert fit_exponent([(0, 10), (-5, 20)]) == 0.0    # no positive sizes
    assert fit_exponent([(100, 10), (100, 20)]) == 0.0  # single distinct x
    # Non-positive sizes are dropped, not fatal.
    assert abs(fit_exponent([(0, 1), (10, 100), (100, 10000)]) - 2.0) < 1e-9
    # All-non-positive y leaves nothing to fit.
    assert fit_exponent([(10, 0), (100, 0)]) == 0.0


def test_fit_exponent_drops_nonpositive_y_symmetrically():
    """Regression: a zero-y point (an empty remnant's message count) used
    to be clamped to 1e-9, injecting log(1e-9) ~ -20.7 into the
    regression and swinging the fitted exponent by whole units; it must
    be dropped exactly like a non-positive x."""
    clean = [(n, n ** 2.0) for n in (10, 100, 1000)]
    assert abs(fit_exponent(clean + [(50, 0.0)]) - 2.0) < 1e-9
    assert abs(fit_exponent(clean + [(50, -3.0)]) - 2.0) < 1e-9


def test_mean_ci():
    mean, ci = mean_ci([10.0])
    assert (mean, ci) == (10.0, 0.0)
    mean, ci = mean_ci([8.0, 12.0])
    assert mean == 10.0 and ci > 0
    assert mean_ci([]) == (0.0, 0.0)


def test_growth_exponents_groups_by_family_method():
    records = []
    for family, scale in (("gnp", 1.5), ("regular", 2.0)):
        for n in (50, 100, 200):
            for seed in (0, 1):
                records.append({
                    "family": family, "method": "x", "n": n, "m": n * n,
                    "messages": n ** scale, "rounds": n,
                })
    rows = growth_exponents(records)
    assert [(r["family"], r["method"]) for r in rows] == \
        [("gnp", "x"), ("regular", "x")]
    assert abs(rows[0]["exponent"] - 1.5) < 1e-6
    assert abs(rows[1]["exponent"] - 2.0) < 1e-6
    assert rows[0]["points"][100]["runs"] == 2


def test_summarize_and_render(tmp_path):
    spec = SweepSpec(families=("gnp",), sizes=(40, 60), seeds=(0, 1),
                     methods=("luby",))
    records = run_sweep(spec, store=None, workers=0)
    summary = summarize(records)
    assert len(summary) == 1
    text = render_report(summary)
    assert "luby" in text and "gnp" in text
    payload = bench_payload(records, summary)
    assert payload["runs"] == 4
    assert payload["exponents"][0]["method"] == "luby"
    json.dumps(payload)  # must be serializable


# -- CLI ----------------------------------------------------------------------


def test_cli_sweep_and_report(tmp_path, capsys):
    out = str(tmp_path / "cli.jsonl")
    rc = cli.main([
        "sweep", "--families", "gnp", "--sizes", "40", "--seeds", "0", "1",
        "--methods", "luby", "--out", out, "--json",
    ])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["ran"] == 2

    # Resume: second invocation runs nothing new.
    rc = cli.main([
        "sweep", "--families", "gnp", "--sizes", "40", "--seeds", "0", "1",
        "--methods", "luby", "--out", out, "--json",
    ])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["ran"] == 0 and summary["resumed (skipped)"] == 2

    bench = str(tmp_path / "BENCH_engine.json")
    rc = cli.main(["report", "--results", out, "--bench-out", bench])
    assert rc == 0
    assert "luby" in capsys.readouterr().out
    payload = json.loads(open(bench).read())
    assert payload["runs"] == 2
    assert payload["schema"].startswith("repro-bench-engine")


def test_cli_report_missing_file(tmp_path, capsys):
    rc = cli.main(["report", "--results", str(tmp_path / "none.jsonl")])
    assert rc == 1


def test_cli_regular_family_large_p():
    """--p large enough to request degree >= n must clamp, not crash."""
    assert regular_degree_for(10, 5.0) == 9          # odd n*d fixed by cap
    assert regular_degree_for(9, 1.0) == 8
    assert regular_degree_for(2, 1.0) == 1
    g = family_graph("regular", 7, p=3.0, seed=0)
    assert g.n == 7 and g.max_degree() <= 6
    rc = cli.main(["info", "--family", "regular", "--n", "12", "--p", "2.5"])
    assert rc == 0


@pytest.mark.slow
def test_sweep_exponent_separation():
    """The flagship claim on a (small) dense sweep: Algorithm 1's message
    growth stays well below the Omega(m) baseline's."""
    spec = SweepSpec(
        families=("gnp",),
        sizes=(60, 100, 160),
        seeds=(0, 1),
        methods=("kt1-delta-plus-one", "baseline-trial"),
        density=0.3,
    )
    records = run_sweep(spec, store=None, workers=2)
    assert all(r["valid"] for r in records)
    rows = {r["method"]: r["exponent"] for r in summarize(records)}
    assert rows["baseline-trial"] > 1.6
    assert rows["kt1-delta-plus-one"] < rows["baseline-trial"]


def test_every_method_runs_async():
    """engine="async" is accepted for every registered method; the
    records carry the cost-of-asynchrony columns."""
    spec = SweepSpec(methods=("luby", "kt1-eps-delta"), engine="async",
                     sizes=(30,))
    assert spec.size == 2
    for cell in spec.cells():
        rec = run_cell(cell)
        assert rec["engine"] == "async" and rec["valid"], rec["key"]
        assert rec["latency"] == "uniform"
        assert rec["overhead_messages"] == \
            rec["messages"] - rec["sync_messages"]
    # Direct Cell construction works too (no up-front gate to dodge).
    rec = run_cell(Cell("gnp", 30, 0, "kt2-sampled-greedy",
                        engine="async"))
    assert rec["valid"] and rec["synchronized_stages"] >= 1


def test_engine_and_latency_axes():
    """engines x latencies is a real axis: async cells multiply by
    latency model, sync cells are emitted once."""
    spec = SweepSpec(methods=("luby",), sizes=(30,),
                     engines=("sync", "async"),
                     latencies=("uniform", "heavy_tail"))
    cells = list(spec.cells())
    assert spec.size == len(cells) == 3
    assert len({c.key() for c in cells}) == 3
    sync_cells = [c for c in cells if c.engine == "sync"]
    assert len(sync_cells) == 1
    # Latency participates in async keys only; sync keys are the
    # historical format (old stores stay resumable).
    assert sync_cells[0].key() == "gnp/n30/p0.2/luby/sync/eps0.5/lite/s0"
    assert {c.latency for c in cells if c.engine == "async"} == \
        {"uniform", "heavy_tail"}
    with pytest.raises(ReproError):
        SweepSpec(methods=("luby",), latencies=("warp",))
    with pytest.raises(ReproError):
        SweepSpec(methods=("luby",), engines=("sync", "steampunk"))


def test_cell_key_distinguishes_latency_and_sample_constant():
    base = Cell("gnp", 40, 0, "luby", engine="async")
    assert base.key() != Cell("gnp", 40, 0, "luby", engine="async",
                              latency="fixed").key()
    assert Cell("gnp", 40, 0, "kt2-sampled-greedy").key() != \
        Cell("gnp", 40, 0, "kt2-sampled-greedy", sample_constant=2.0).key()


def test_spec_rejects_empty_methods():
    with pytest.raises(ReproError):
        SweepSpec(methods=())


def test_cell_key_distinguishes_epsilon_and_accounting():
    """Re-running with different epsilon or full accounting must be a new
    cell, not a resume hit serving stale stored numbers."""
    base = Cell("gnp", 40, 0, "kt1-eps-delta")
    assert base.key() != Cell("gnp", 40, 0, "kt1-eps-delta",
                              epsilon=0.2).key()
    assert base.key() != Cell("gnp", 40, 0, "kt1-eps-delta",
                              collect_utilization=True).key()


def test_summarize_separates_mixed_workloads():
    """Sweeps with different density/engine knobs appended to one store
    must report as separate populations, not one pooled exponent fit."""
    recs = []
    for p in (0.1, 0.5):
        for n in (40, 60):
            recs.append({
                "family": "gnp", "method": "luby", "engine": "sync",
                "density": p, "epsilon": 0.5, "n": n, "m": n,
                "messages": n * (1 + p), "rounds": 1,
            })
    summary = summarize(recs)
    assert len(summary) == 2
    assert sorted(r["density"] for r in summary) == [0.1, 0.5]


def test_cli_sweep_resumed_invalid_still_fails(tmp_path, capsys):
    """A stored invalid cell keeps the sweep exit code red on re-run."""
    out = tmp_path / "inv.jsonl"
    spec = SweepSpec(families=("gnp",), sizes=(40,), seeds=(0,),
                     methods=("luby",))
    rec = run_cell(next(spec.cells()))
    rec["valid"] = False
    out.write_text(json.dumps(rec) + "\n")
    rc = cli.main([
        "sweep", "--families", "gnp", "--sizes", "40", "--seeds", "0",
        "--methods", "luby", "--out", str(out), "--json",
    ])
    assert rc == 1
    assert "INVALID" in capsys.readouterr().err


# -- timeout / retry ----------------------------------------------------------


def test_spec_timeout_fields_propagate_and_validate():
    spec = SweepSpec(sizes=(30,), methods=("luby",), timeout_s=2.0,
                     retries=3)
    cell = next(spec.cells())
    assert cell.timeout_s == 2.0 and cell.retries == 3
    # Patience knobs do not change what a cell measures: key unchanged.
    assert cell.key() == Cell("gnp", 30, 0, "luby").key()
    with pytest.raises(ReproError):
        SweepSpec(sizes=(30,), methods=("luby",), timeout_s=0.0)
    with pytest.raises(ReproError):
        SweepSpec(sizes=(30,), methods=("luby",), retries=-1)


def test_timeout_records_status_and_spares_the_pool(monkeypatch):
    """A cell over budget is killed and recorded with status=timeout;
    sibling cells in the same farm still complete."""
    from repro import supervise
    from repro.experiments import runner

    # The n=24 cell (first in the plan) runs for real in a real child;
    # the n=420 cell and its retry get children that never answer.  The
    # real child may not stay warm, so the retry cannot land on it.
    monkeypatch.setattr(supervise, "MAX_WARM_GROWTH_MB", -1)
    hung = spawn_script(ScriptedChild(HANG), ScriptedChild(HANG))
    real = []

    def spawn():
        if real:
            return hung()
        real.append(spawn_child())
        return real[0]

    monkeypatch.setattr(runner, "_spawn_cell_process", spawn)
    spec = SweepSpec(
        families=("gnp",),
        sizes=(24, 420),
        seeds=(0,),
        methods=("kt1-delta-plus-one",),
        density=0.3,
        timeout_s=0.5,
        retries=1,
    )
    records = run_sweep(spec, store=None, workers=2)
    assert hung.count == 2 and not real[0][0].is_alive()
    by_n = {r["n"]: r for r in records}
    assert len(records) == 2
    assert by_n[24]["status"] == "ok" and by_n[24]["valid"]
    timed_out = by_n[420]
    assert timed_out["status"] == "timeout"
    assert timed_out["valid"] is False
    assert timed_out["attempts"] == 2           # one retry granted
    assert "messages" not in timed_out


def test_timeout_records_excluded_from_fits_and_resume(tmp_path):
    ok_rec = run_cell(Cell("gnp", 40, 0, "luby", density=0.3))
    bad_rec = {"key": Cell("gnp", 60, 0, "luby", density=0.3).key(),
               "family": "gnp", "n": 60, "seed": 0, "method": "luby",
               "engine": "sync", "density": 0.3, "epsilon": 0.5,
               "status": "timeout", "valid": False, "wall_s": 1.0}
    rows = growth_exponents([ok_rec, bad_rec])
    assert sum(p["runs"] for row in rows for p in row["points"].values()) == 1
    store = ResultStore(str(tmp_path / "r.jsonl"))
    with store:
        store.append(ok_rec)
        store.append(bad_rec)
    # The failed key is retried on resume; the ok key is skipped.
    assert store.completed_keys() == {ok_rec["key"]}
    assert bad_rec["key"] in store.completed_keys(include_failed=True)


# -- farm races (deterministic via the _spawn_cell_process seam) --------------


def _ok_record(cell, messages=123):
    return {"key": cell.key(), "family": cell.family, "n": cell.n,
            "seed": cell.seed, "method": cell.method, "engine": cell.engine,
            "status": "ok", "valid": True, "messages": messages,
            "rounds": 4, "m": 90, "wall_s": 0.01}


def test_deadline_completion_race_drains_final_record(monkeypatch):
    """Regression: a cell finishing between the supervisor's poll and the
    deadline check used to lose its record — the completed cell was
    re-queued (or recorded as a timeout), and the retry's duplicate ok
    line for the same key inflated runs and skewed mean_ci.  The farm
    must drain the pipe once more after the deadline fires, before
    terminating."""
    from repro.experiments import runner

    cell = Cell("gnp", 30, 0, "luby", timeout_s=1e-9)
    child = ScriptedChild(HANG)
    # The record lands after the in-loop poll (the race window), at the
    # liveness check just before the deadline fires.
    child.proc.on_is_alive = lambda: child.reply(_ok_record(cell))
    monkeypatch.setattr(runner, "_spawn_cell_process", spawn_script(child))
    out = []
    runner._run_cells_with_timeout([cell], 1, out.append)
    assert len(out) == 1
    assert out[0]["status"] == "ok" and out[0]["messages"] == 123
    assert out[0]["attempts"] == 1


def test_retry_success_stamps_attempts(monkeypatch):
    """Regression: only non-ok farm records carried ``attempts``; a cell
    that succeeded on its second attempt was indistinguishable from a
    first-try success."""
    from repro.experiments import runner

    cell = Cell("gnp", 30, 0, "luby", timeout_s=0.05, retries=1)
    hung, fresh = ScriptedChild(HANG), ScriptedChild(_ok_record)
    monkeypatch.setattr(runner, "_spawn_cell_process",
                        spawn_script(hung, fresh))
    out = []
    runner._run_cells_with_timeout([cell], 1, out.append)
    assert len(out) == 1
    assert out[0]["status"] == "ok"
    assert out[0]["attempts"] == 2
    # the deadline kill replaced the child; the retry ran in a fresh one
    assert hung.proc.killed and len(fresh.tasks) == 1


def test_farm_runs_many_cells_in_one_warm_child(monkeypatch):
    from repro.experiments import runner

    cells = [Cell("gnp", 30, s, "luby", timeout_s=5.0) for s in range(5)]
    child = ScriptedChild(_ok_record)
    spawn = spawn_script(child)
    monkeypatch.setattr(runner, "_spawn_cell_process", spawn)
    out = []
    supervisor = Supervisor(spawn)
    runner._run_cells_with_timeout(cells[:2], 1, out.append,
                                   supervisor=supervisor)
    runner._run_cells_with_timeout(cells[2:], 1, out.append,
                                   supervisor=supervisor)
    assert not child.proc.killed    # outlives each call
    supervisor.close()
    assert [r["key"] for r in out] == [c.key() for c in cells]
    assert spawn.count == 1 and child.proc.killed


def test_farm_cell_error_record_keeps_the_child(monkeypatch):
    """A cell that fails deterministically comes back as an error record
    from a healthy child: the child is reused, not replaced."""
    from repro.experiments import runner

    bad, good = (Cell("gnp", 30, s, "luby", timeout_s=5.0) for s in (0, 1))
    child = ScriptedChild(
        lambda cell: runner._failure_record(cell, "error", error="boom"),
        _ok_record)
    spawn = spawn_script(child)
    monkeypatch.setattr(runner, "_spawn_cell_process", spawn)
    out = []
    runner._run_cells_with_timeout([bad, good], 1, out.append,
                                   supervisor=Supervisor(spawn))
    assert not child.proc.killed
    assert [r["status"] for r in out] == ["error", "ok"]
    assert out[0]["error"] == "boom"
    assert spawn.count == 1


def test_farm_real_children_are_reused(monkeypatch):
    """With real processes: a timeout sweep forks one child per slot,
    not one per cell."""
    from repro.experiments import runner

    spawned = []

    def counting_spawn():
        proc, conn = spawn_child()
        spawned.append(proc)
        return proc, conn

    monkeypatch.setattr(runner, "_spawn_cell_process", counting_spawn)
    spec = SweepSpec(families=("gnp",), sizes=(30,), seeds=(0, 1, 2),
                     methods=("luby", "baseline-trial"), timeout_s=60.0)
    records = run_sweep(spec, store=None, workers=1)
    assert len(records) == 6 and {r["status"] for r in records} == {"ok"}
    assert len(spawned) == 1
    assert not spawned[0].is_alive()        # closed with the sweep


def test_farm_ok_records_carry_attempts():
    """Every record the real farm produces has ``attempts`` — successes
    included, not just timeouts/errors."""
    spec = SweepSpec(families=("gnp",), sizes=(30,), seeds=(0,),
                     methods=("luby",), timeout_s=60.0)
    records = run_sweep(spec, store=None, workers=1)
    assert len(records) == 1
    assert records[0]["status"] == "ok"
    assert records[0]["attempts"] == 1


def test_duplicate_and_superseded_lines_dedup_last_wins(tmp_path):
    """Regression: aggregation pooled every raw store line — a failed
    line plus its later ok line (the documented resume path), or
    duplicate ok lines from the deadline race, all entered the pool,
    inflating ``runs``.  Last-record-wins everywhere."""
    cell = Cell("gnp", 40, 0, "luby", density=0.3)
    failed = {"key": cell.key(), "family": "gnp", "n": 40, "seed": 0,
              "method": "luby", "engine": "sync", "density": 0.3,
              "epsilon": 0.5, "status": "timeout", "valid": False,
              "wall_s": 1.0}
    ok1 = {**failed, "status": "ok", "valid": True, "m": 160,
           "messages": 500, "rounds": 5, "wall_s": 0.1}
    ok2 = dict(ok1)
    rows = growth_exponents([failed, ok1, ok2])
    runs = sum(p["runs"] for row in rows for p in row["points"].values())
    assert runs == 1
    # Keyless aggregation inputs (hand-built records) are left alone.
    assert latest_per_key([{"n": 1}, {"n": 2}]) == [{"n": 1}, {"n": 2}]
    # Last-wins applies at the store too: an ok line shadowed by a later
    # failure leaves the resume set (the cell will be re-attempted) ...
    store = ResultStore(str(tmp_path / "dup.jsonl"))
    with store:
        store.append(ok1)
        store.append(dict(failed))
    assert store.completed_keys() == set()
    assert store.latest_per_key()[cell.key()]["status"] == "timeout"
    # ... and a yet-later success supersedes the failure again.
    with store:
        store.append(ok2)
    assert store.completed_keys() == {cell.key()}


def test_failure_record_uses_built_graph_n():
    """Failure records must follow run_cell's convention — the n the
    family actually builds (expander fibers, barbell arithmetic), not
    the requested one — so ok and failed lines for one key agree."""
    from repro.experiments.runner import _failure_record
    from repro.graphs.generators import family_built_n

    cell = Cell("expander", 100, 0, "luby", density=0.45)
    rec = _failure_record(cell, "timeout")
    built = family_graph("expander", 100, p=0.45, seed=0).n
    assert rec["n"] == built == family_built_n("expander", 100, 0.45)
    assert rec["n"] != 100
    barbell = _failure_record(Cell("barbell", 101, 0, "luby"), "error")
    assert barbell["n"] == family_graph("barbell", 101).n


def test_report_surfaces_retried_runs():
    """`repro report` shows how many surviving records needed retries."""
    base = {"family": "gnp", "method": "luby", "engine": "sync",
            "density": 0.2, "epsilon": 0.5, "status": "ok", "valid": True,
            "rounds": 3}
    recs = [
        {**base, "key": "a", "n": 40, "m": 100, "messages": 400,
         "attempts": 1},
        {**base, "key": "b", "n": 60, "m": 220, "messages": 900,
         "attempts": 3},
    ]
    summary = summarize(recs)
    assert len(summary) == 1
    assert summary[0]["retried_runs"] == 1
    assert "retr" in render_report(summary)


def test_run_cell_method_extras():
    rec = run_cell(Cell("gnp", 40, 0, "kt1-delta-plus-one", density=0.3))
    assert rec["status"] == "ok"
    assert rec["levels"] >= 1 and rec["deferred"] >= 0
    rec3 = run_cell(Cell("gnp", 40, 0, "kt2-sampled-greedy", density=0.3))
    assert rec3["sampled"] >= 0 and rec3["remnant_deg"] >= 0


def test_sample_constant_rejected_for_non_alg3_methods():
    """The |S| knob only reaches Algorithm 3; other methods must reject
    it rather than mint keys whose numbers don't measure what the key
    claims."""
    with pytest.raises(ReproError):
        SweepSpec(methods=("luby", "kt2-sampled-greedy"),
                  sample_constant=2.0)
    with pytest.raises(ReproError):
        run_cell(Cell("gnp", 30, 0, "luby", sample_constant=2.0))
    # ... and it actually reaches Algorithm 3: a bigger c samples more.
    small = run_cell(Cell("gnp", 40, 0, "kt2-sampled-greedy",
                          density=0.3, sample_constant=0.5))
    big = run_cell(Cell("gnp", 40, 0, "kt2-sampled-greedy",
                        density=0.3, sample_constant=4.0))
    assert big["sampled"] > small["sampled"]


def test_record_n_is_built_graph_n():
    """Families that quantize the vertex count (expander fibers) must
    report the built graph's n, or exponent fits get a wrong x-axis."""
    from repro.graphs.generators import family_graph

    rec = run_cell(Cell("expander", 100, 0, "luby", density=0.45))
    assert rec["n"] == family_graph("expander", 100, p=0.45, seed=0).n
    assert rec["n"] != 100


# -- non-ok cells surface in the report (never silently excluded) -------------


def _fake_rec(key, n, status="ok", messages=100, **extra):
    rec = {"key": key, "family": "gnp", "method": "luby", "engine": "sync",
           "latency": None, "faults": None, "density": 0.2, "epsilon": 0.5,
           "sample_constant": None, "n": n, "m": 4 * n, "seed": 0,
           "status": status, "valid": status == "ok",
           "messages": messages, "rounds": 5, "wall_s": 0.1}
    rec.update(extra)
    return rec


def test_summarize_surfaces_non_ok_cells():
    recs = [
        _fake_rec("k1", 40),
        _fake_rec("k2", 60, messages=180),
        _fake_rec("k3", 80, status="timeout", messages=0, attempts=3),
        _fake_rec("k4", 90, status="error", messages=0),
    ]
    summary = summarize(recs)
    assert len(summary) == 1
    row = summary[0]
    # Failed cells stay out of the fit points but are counted per row...
    assert sorted(row["points"]) == [40, 60]
    assert row["failed_runs"] == 2
    assert row["failed_statuses"] == {"timeout": 1, "error": 1}
    # ... and named individually, with their attempt counts.
    cells = {c["key"]: c for c in row["failed_cells"]}
    assert cells["k3"]["status"] == "timeout"
    assert cells["k3"]["attempts"] == 3
    # The rendered table shows the bad column and the trailing listing.
    text = render_report(summary)
    assert "bad" in text
    assert "non-ok cells (2" in text
    assert "timeout" in text and "k3" in text


def test_summarize_keeps_all_failed_workloads_visible():
    """A workload whose every cell failed must still get a row (with
    empty points), not vanish from the report."""
    recs = [
        _fake_rec("ok1", 40),
        _fake_rec("bad1", 40, status="timeout", messages=0,
                  method="rank-greedy"),
        _fake_rec("bad2", 60, status="timeout", messages=0,
                  method="rank-greedy"),
    ]
    summary = summarize(recs)
    rows = {r["method"]: r for r in summary}
    assert rows["rank-greedy"]["points"] == {}
    assert rows["rank-greedy"]["failed_runs"] == 2
    text = render_report(summary)
    assert "rank-greedy" in text
    json.dumps(summary)     # synthetic rows stay serializable


def test_summarize_failure_columns_use_latest_record():
    """A failed line superseded by a later ok line for the same key is
    not a failure anymore (and vice versa)."""
    recs = [
        _fake_rec("k1", 40, status="timeout", messages=0),
        _fake_rec("k1", 40),                      # retry succeeded
    ]
    row = summarize(recs)[0]
    assert row["failed_runs"] == 0
    assert row["points"][40]["runs"] == 1


# -- faults axis end-to-end ---------------------------------------------------


def test_sweep_with_faults_axis(tmp_path):
    spec = SweepSpec(families=("gnp",), sizes=(36,), seeds=(0, 1),
                     methods=("luby",), faults=("none", "drop:0.1"))
    records = run_sweep(spec, store=None, workers=0)
    assert len(records) == 4
    by_fault = {}
    for r in records:
        by_fault.setdefault(r["faults"], []).append(r)
    assert set(by_fault) == {None, "drop:0.1"}
    assert all(r["dropped_messages"] == 0 for r in by_fault[None])
    assert sum(r["dropped_messages"] for r in by_fault["drop:0.1"]) > 0
    assert all(r["survivor_valid"] for r in by_fault["drop:0.1"])
    # Aggregation separates the faulted population from the clean one.
    summary = summarize(records)
    assert {row["faults"] for row in summary} == {None, "drop:0.1"}


def test_cli_dry_run_prints_axes(tmp_path, capsys):
    out = str(tmp_path / "axes.jsonl")
    argv = ["sweep", "--families", "gnp", "--sizes", "36", "--seeds", "0",
            "--methods", "luby", "--engines", "sync", "async",
            "--latencies", "uniform", "--faults", "none", "drop:0.05",
            "--out", out, "--dry-run"]
    rc = cli.main(argv)
    assert rc == 0
    text = capsys.readouterr().out
    assert "engines=sync,async" in text
    assert "latencies=uniform" in text
    assert "faults=none,drop:0.05" in text

    rc = cli.main(argv + ["--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["engines"] == ["sync", "async"]
    assert payload["latencies"] == ["uniform"]
    assert payload["faults"] == ["none", "drop:0.05"]
    assert payload["cells"] == 4 == payload["to_run"]


def test_cli_sweep_rejects_bad_fault_spec(tmp_path, capsys):
    rc = cli.main(["sweep", "--families", "gnp", "--sizes", "36",
                   "--faults", "drop:lots", "--dry-run",
                   "--out", str(tmp_path / "x.jsonl")])
    assert rc == 1
    assert "sweep: malformed fault spec 'drop:lots'" in capsys.readouterr().err


# -- graph-major plan and graph reuse -----------------------------------------


#: Record fields that time a run; everything else is fixed by the seed.
TIMING = ("wall_s", "graph_s", "stage_wall")


def _graph_key(cell):
    return (cell.family, cell.n, cell.density, cell.seed)


def test_spec_plan_is_graph_major():
    spec = SweepSpec(families=("gnp", "regular"), sizes=(30, 40),
                     seeds=(2, 0, 1), methods=("luby", "kt1-eps-delta"),
                     engines=("sync", "async"),
                     latencies=("uniform", "heavy_tail"),
                     faults=("none", "drop:0.1"))
    cells = list(spec.cells())
    # Reference: the same matrix nested seed-innermost.
    pairs = [("sync", "uniform"), ("async", "uniform"),
             ("async", "heavy_tail")]
    reference = [
        Cell(family=family, n=n, seed=seed, method=method, engine=engine,
             latency=latency, faults=fault)
        for family in spec.families
        for n in spec.sizes
        for method in spec.methods
        for engine, latency in pairs
        for fault in spec.faults
        for seed in spec.seeds
    ]
    assert spec.size == len(cells) == len(reference) == 2 * 2 * 3 * 2 * 3 * 2
    assert sorted(c.key() for c in cells) == sorted(
        c.key() for c in reference)
    # Each graph's cells form one contiguous run, in axis order.
    runs = [k for i, k in enumerate(map(_graph_key, cells))
            if i == 0 or k != _graph_key(cells[i - 1])]
    assert len(runs) == len(set(runs)) == 2 * 2 * 3
    assert runs[:3] == [("gnp", 30, 0.2, seed) for seed in (2, 0, 1)]


@pytest.mark.parametrize("axis, values", [
    ("families", ("gnp", "regular", "gnp")),
    ("sizes", (30, 30)),
    ("seeds", (0, 1, 0)),
    ("methods", ("luby", "luby")),
])
def test_spec_rejects_duplicate_axis_values(axis, values):
    base = {"sizes": (30,), "methods": ("luby",)}
    with pytest.raises(ReproError, match=f"duplicate .* in {axis} axis"):
        SweepSpec(**{**base, axis: values})
    # The wire path a farm ``submit`` takes (JSON lists) is checked too.
    data = {**SweepSpec(**base).to_dict(), axis: list(values)}
    with pytest.raises(ReproError, match=f"duplicate .* in {axis} axis"):
        SweepSpec.from_dict(data)


def test_fingerprint_ignores_axis_order():
    spec = SweepSpec(sizes=(30, 40), seeds=(0, 1, 2),
                     methods=("luby", "rank-greedy"))
    assert spec.fingerprint() == SweepSpec(
        sizes=(40, 30), seeds=(2, 0, 1),
        methods=("rank-greedy", "luby")).fingerprint()
    assert spec.fingerprint() != SweepSpec(
        sizes=(30, 40), seeds=(0, 1, 2), methods=("luby", "rank-greedy"),
        density=0.3).fingerprint()


@pytest.fixture
def graph_builds(monkeypatch):
    """Every real graph build ``run_cell`` makes, from an empty slot."""
    from repro.experiments import runner

    builds = []
    real = runner.family_graph

    def counting(family, n, p=0.2, seed=0):
        builds.append((family, n, p, seed))
        return real(family, n, p=p, seed=seed)

    monkeypatch.setattr(runner, "family_graph", counting)
    monkeypatch.setattr(runner, "_last_graph", None)
    return builds


def test_run_cell_reuses_the_previous_cells_graph(graph_builds):
    cold = run_cell(Cell("gnp", 30, 0, "luby", engine="columnar"))
    assert len(graph_builds) == 1 and cold["graph_s"] > 0
    run_cell(Cell("gnp", 30, 0, "kt1-delta-plus-one"))
    hit = run_cell(Cell("gnp", 30, 0, "luby", engine="columnar"))
    assert len(graph_builds) == 1 and hit["graph_s"] == 0.0
    assert hit["wall_s"] > 0
    for rec in (cold, hit):
        for field in TIMING:
            del rec[field]
    assert hit == cold


@pytest.mark.parametrize("change", [
    {"family": "regular"}, {"n": 32}, {"density": 0.3}, {"seed": 1},
])
def test_run_cell_rebuilds_for_another_graph(graph_builds, change):
    base = dict(family="gnp", n=30, seed=0, method="luby")
    run_cell(Cell(**base))
    rec = run_cell(Cell(**{**base, **change}))
    assert len(graph_builds) == 2 and rec["graph_s"] > 0
    run_cell(Cell(**base))
    assert len(graph_builds) == 3


def test_failed_build_leaves_the_slot_usable(graph_builds):
    run_cell(Cell("gnp", 30, 0, "luby"))
    with pytest.raises(ReproError, match="degree"):
        run_cell(Cell("regular", 0, 0, "luby"))       # no 0-vertex graph
    with pytest.raises(ReproError, match="degree"):
        run_cell(Cell("regular", 0, 0, "luby"))       # nothing was kept
    rec = run_cell(Cell("gnp", 30, 0, "rank-greedy"))
    assert rec["valid"] and rec["graph_s"] > 0
    assert len(graph_builds) == 4
    run_cell(Cell("gnp", 30, 0, "luby"))
    assert len(graph_builds) == 4


def test_shared_graph_survives_every_method_and_engine(graph_builds):
    import hashlib
    import pickle

    from repro.experiments import runner
    from repro.experiments.spec import ALL_METHODS

    def digest(g):
        return hashlib.sha256(
            pickle.dumps((g.n, g._adj, g._edges))).hexdigest()

    run_cell(Cell("gnp", 30, 4, "luby"))
    graph = runner._last_graph[1]
    before = digest(graph)
    for method in ALL_METHODS:
        for engine in ("sync", "columnar", "async"):
            rec = run_cell(Cell("gnp", 30, 4, method, engine=engine))
            assert rec["valid"], rec["key"]
    assert len(graph_builds) == 1 and runner._last_graph[1] is graph
    assert digest(graph) == before


@pytest.mark.pin
def test_serial_sweep_builds_each_graph_once(graph_builds):
    """The graph-major cell plan: a serial sweep builds one graph per
    (family, n, density, seed), shared by its sibling cells."""
    spec = SweepSpec(families=("gnp", "regular"), sizes=(24, 30),
                     seeds=(0, 1, 2), methods=("luby", "rank-greedy"),
                     engines=("sync", "columnar"))
    records = run_sweep(spec, store=None, workers=0)
    assert len(records) == spec.size == 48
    assert all(r["valid"] for r in records)
    assert len(graph_builds) == len(set(graph_builds)) == 2 * 2 * 3
    assert sum(r["graph_s"] > 0 for r in records) == 12
