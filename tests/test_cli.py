"""Tests for the command-line interface."""

import argparse
import json

import pytest

from repro.cli import build_parser, main

from scripted_children import HANG, ScriptedChild, spawn_script


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_color_default(capsys):
    code, out = run(capsys, "color", "--n", "80", "--p", "0.2",
                    "--seed", "1")
    assert code == 0
    assert "valid" in out and "True" in out
    assert "messages" in out


def test_color_json(capsys):
    code, out = run(capsys, "color", "--n", "60", "--p", "0.2",
                    "--json", "--seed", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["valid"] is True
    assert payload["messages"] > 0


def test_color_methods(capsys):
    for method in ("baseline-trial", "baseline-rank-greedy"):
        code, out = run(capsys, "color", "--n", "50", "--p", "0.25",
                        "--method", method, "--seed", "3")
        assert code == 0, method


def test_color_eps_delta(capsys):
    code, out = run(capsys, "color", "--n", "60", "--p", "0.3",
                    "--method", "kt1-eps-delta", "--epsilon", "0.8",
                    "--seed", "4")
    assert code == 0


def test_color_async(capsys):
    code, out = run(capsys, "color", "--n", "60", "--p", "0.25",
                    "--asynchronous", "--seed", "5")
    assert code == 0


def test_mis_default(capsys):
    code, out = run(capsys, "mis", "--n", "80", "--p", "0.2", "--seed", "6")
    assert code == 0
    assert "MIS size" in out


def test_mis_methods(capsys):
    for method in ("luby", "rank-greedy"):
        code, out = run(capsys, "mis", "--n", "50", "--p", "0.25",
                        "--method", method, "--seed", "7")
        assert code == 0, method


def test_lowerbound_silent(capsys):
    code, out = run(capsys, "lowerbound", "--t", "4", "--budget", "0",
                    "--sample", "5", "--seed", "8")
    assert code == 0
    assert "dichotomy holds: True" in out
    assert "correct on crossed: 0.0" in out


def test_lowerbound_mis_json(capsys):
    code, out = run(capsys, "lowerbound", "--t", "4", "--problem", "mis",
                    "--budget", "20", "--sample", "5", "--json",
                    "--seed", "9")
    assert code == 0
    payload = json.loads(out)
    assert payload["dichotomy holds"] is True


def test_cycles(capsys):
    code, out = run(capsys, "cycles", "--cycles", "6", "--k", "9",
                    "--fractions", "0.0", "1.0", "--trials", "2",
                    "--seed", "10")
    assert code == 0
    assert "success" in out


def test_info(capsys):
    code, out = run(capsys, "info", "--n", "100", "--p", "0.3")
    assert code == 0
    assert "word bits" in out


def test_graph_families(capsys):
    for family in ("gnp", "regular", "powerlaw", "barbell"):
        code, out = run(capsys, "info", "--n", "60", "--p", "0.2",
                        "--family", family)
        assert code == 0, family


@pytest.mark.parametrize("command", ["color", "mis"])
def test_empty_graph_exits_with_one_line(capsys, command):
    assert main([command, "--n", "0"]) == 1
    assert capsys.readouterr().err == f"{command}: the graph has no vertices\n"


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "repro", "info", "--n", "40"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    assert "word bits" in proc.stdout


def test_profile_subcommand(capsys):
    rc = main(["profile", "--method", "luby", "--n", "40", "--p", "0.3",
               "--top", "5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "cumulative" in out         # pstats table rendered
    assert "msgs" in out and "valid=True" in out


def test_profile_prints_the_graph_build_next_to_the_stage_total(
        capsys, monkeypatch):
    from repro.experiments import runner

    monkeypatch.setattr(runner, "_last_graph", None)    # build, not reuse
    rc = main(["profile", "--method", "luby", "--n", "40", "--p", "0.3",
               "--top", "3"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    total = next(i for i, line in enumerate(lines) if "(stage total)" in line)
    graph = lines[total + 1].split()
    assert graph[:2] == ["(graph", "build)"] and graph[-1] == "ms"
    assert float(graph[2]) > 0.0


def test_profile_unknown_method():
    with pytest.raises(SystemExit):
        main(["profile", "--method", "nope", "--n", "30"])


def test_sweep_timeout_flag(tmp_path, capsys, monkeypatch):
    from repro.experiments import runner

    # The cell's child never answers, so it is over budget on any box.
    monkeypatch.setattr(runner, "_spawn_cell_process",
                        spawn_script(ScriptedChild(HANG)))
    out = tmp_path / "t.jsonl"
    rc = main(["sweep", "--families", "gnp", "--sizes", "400", "--seeds",
               "0", "--methods", "kt1-delta-plus-one", "--p", "0.3",
               "--timeout", "0.4", "--out", str(out), "--json"])
    err = capsys.readouterr().err
    assert rc == 1                      # timed-out cell makes the sweep red
    assert "timeout" in err
    lines = [json.loads(l) for l in out.read_text().splitlines()]
    assert lines and lines[-1]["status"] == "timeout"


# -- parser parity: each role's flags are declared once ----------------------


def _subparser(*path):
    parser = build_parser()
    for name in path:
        [subs] = [a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction)]
        parser = subs.choices[name]
    return parser


def _options(*path) -> dict:
    """Option string -> its argparse action, for one (sub)command."""
    return {opt: action for action in _subparser(*path)._actions
            for opt in action.option_strings}


def _same(a, b) -> bool:
    return (a.default, a.required, a.choices, a.type, a.dest) == \
        (b.default, b.required, b.choices, b.type, b.dest)


HOST_FLAGS = ("--lease", "--journal", "--resume-journal",
              "--journal-interval", "--drain-grace", "--status-interval")


def test_sweep_and_farm_serve_take_the_same_host_flags():
    from repro.experiments import distributed

    sweep, farm = _options("sweep"), _options("farm", "serve")
    for flag in HOST_FLAGS:
        assert _same(sweep[flag], farm[flag]), flag
    assert sweep["--lease"].default == distributed.DEFAULT_LEASE_S
    assert (sweep["--journal-interval"].default
            == distributed.DEFAULT_JOURNAL_INTERVAL_S)
    assert sweep["--drain-grace"].default == distributed.DEFAULT_DRAIN_GRACE_S
    # --max-requeues is the farm's alone; sweep keeps its option set.
    assert "--max-requeues" in farm and "--max-requeues" not in sweep


def test_farm_serve_max_requeues_defaults_to_the_library_default():
    from repro.experiments.distributed import DEFAULT_MAX_REQUEUES

    args = build_parser().parse_args(["farm", "serve", "0",
                                      "--store-dir", "stores"])
    assert args.max_requeues == DEFAULT_MAX_REQUEUES


def test_color_and_mis_take_the_same_engine_flags():
    color, mis = _options("color"), _options("mis")
    for flag in ("--asynchronous", "--latency", "--faults", "--scheduler"):
        assert _same(color[flag], mis[flag]), flag


#: client command -> its request-deadline flag (the worker has none;
#: on `farm submit`, --timeout is the per-cell budget, a sweep axis).
CLIENTS = {
    ("worker",): None,
    ("farm", "submit"): "--rpc-timeout",
    ("farm", "attach"): "--timeout",
    ("farm", "cancel"): "--timeout",
    ("farm", "status"): "--timeout",
    ("query",): "--timeout",
    ("serve-status",): "--timeout",
}


@pytest.mark.parametrize("path", sorted(CLIENTS), ids=" ".join)
def test_client_commands_take_connect_deadline_and_json(path):
    from repro.wire import DEFAULT_REQUEST_TIMEOUT_S

    options = _options(*path)
    assert options["--connect"].required
    assert options["--json"].default is False
    deadline = CLIENTS[path]
    if deadline is not None:
        assert options[deadline].default == DEFAULT_REQUEST_TIMEOUT_S
