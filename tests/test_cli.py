"""Tests for the command-line interface."""

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
