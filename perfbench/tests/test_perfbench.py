"""The benchmark's own tests: tiny passes of every workload, a corrupted
oracle, a checkout without sources, and the self-time partition.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import attribution  # noqa: E402
import run  # noqa: E402


def _run(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170)
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines else None)


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]}, bench)


def test_declared_metrics_match_the_runner():
    e2e, layers, bench = _declared()
    assert e2e == run.E2E_UNITS
    assert layers == run.per_layer_units()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_pass_reports_every_metric(workload, trace):
    proc, result = _run("--workload", workload, "--seed", "3",
                        "--seconds", "1", "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    e2e, layers, _ = _declared()
    declared = layers if trace else e2e
    assert set(result["metrics"]) == set(declared)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == declared[name]
        assert math.isfinite(metric["value"]), name
    if trace:
        values = {k: m["value"] for k, m in result["metrics"].items()}
        parts = sum(values[m] for m in attribution.PARTITION_METRICS)
        assert parts == pytest.approx(values["trace.wall_s"], rel=1e-6)
        assert values["trace.wall_s"] > 0


def test_corrupted_oracle_entry_is_reported_as_a_failure(tmp_path):
    with open(os.path.join(ROOT, "BENCH_engine.json"),
              encoding="utf-8") as fh:
        payload = json.load(fh)
    key = "gnp/n80/p0.45/luby/sync/eps0.5/lite/s0"
    [entry] = [c for c in payload["cells"] if c["key"] == key]
    entry["messages"] += 1
    oracle = tmp_path / "oracle.json"
    oracle.write_text(json.dumps(payload))
    proc, result = _run("--workload", "engine-dense", "--seed", "3",
                        "--seconds", "1", "--trace", "0", "--tiny",
                        "--oracle", str(oracle))
    assert proc.returncode == 1
    assert result["correct"] is False
    # The sync cell and its columnar twin, once per pass.
    assert result["failed"] == 4
    assert f"FAILED {key}" in proc.stdout


def test_checkout_without_sources_exits_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc, result = _run("--workload", "engine-dense", "--seconds", "1",
                        cwd=tmp_path)
    assert proc.returncode != 0
    assert result is None


def _span(sid, name, parent, pid, tid, t0, t1):
    return {"id": sid, "name": name, "parent": parent, "pid": pid,
            "tid": tid, "t0": t0, "t1": t1}


def test_partition_charges_the_deepest_span_across_processes():
    spans = [
        _span("1.0", "farm.batch", None, 1, 10, 1.0, 9.0),
        # helper thread of the same process, parented across threads
        _span("1.1", "runner.supervise", "1.0", 1, 11, 2.0, 8.0),
        # forked child, parented across the process boundary
        _span("2.0", "runner.run_cell", "1.1", 2, 20, 3.0, 7.0),
        _span("2.1", "graphs.build", "2.0", 2, 20, 3.0, 4.0),
        # outside every lane: ignored
        _span("3.0", "farm.lease", None, 3, 30, 0.0, 5.0),
    ]
    charged, wall = attribution.partition(spans, [(1, 10, 0.0, 10.0)])
    assert wall == 10.0
    assert charged == {"farm.batch": 2.0, "runner.supervise": 2.0,
                       "runner.run_cell": 3.0, "graphs.build": 1.0}
    metrics = attribution.layer_metrics(spans, [(1, 10, 0.0, 10.0)])
    assert metrics["unattributed_s"] == pytest.approx(2.0)
    assert metrics["runner.cell_overhead_ms"] == pytest.approx(2000.0)


def test_alg1_phase_names():
    assert attribution.alg1_phase("alg1-danner-elect0-flood") == "elect"
    assert attribution.alg1_phase("alg1-danner-local") == "danner"
    assert attribution.alg1_phase("alg1-bits-0") == "bits"
    assert attribution.alg1_phase("alg1-base-1") == "base"
    assert attribution.alg1_phase("luby-round") is None
