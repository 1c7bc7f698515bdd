"""``engine-dense``: serial in-process ``run_cell`` on dense oracle cells.

gnp p=0.45 with n in {220, 320}: every method on both synchronous
schedulers, plus Algorithm 1 on the event-driven engine (gnp p=0.25).
The Omega(m) baselines charge 130-150k messages per cell, so engine
stages, driver code between stages and KT-rho setup dominate; no
process, socket or cache is involved.

A *pass* runs every such cell at graph seeds 0-2 (the oracle's): 54
cells, in an order the seed shuffles, so every pass does the same work.
A run makes ``--seconds / 10`` passes (at least two, a count that does
not depend on how fast the code is) and takes each cell's fastest pass:
interference from other processes only ever adds time, so the minimum
is the steadiest estimate of what the code costs.
"""

from __future__ import annotations

import gc
import os
import random
import subprocess
import sys
import threading
import time

import common

METHODS = ("kt1-delta-plus-one", "baseline-trial", "luby",
           "kt2-sampled-greedy")
SIZES = (220, 320)
TINY_SIZES = (80,)
SETUP_PROBES = 5


def one_pass(rng: random.Random, sizes=SIZES) -> list:
    from repro.experiments.spec import Cell

    cells = []
    for n in sizes:
        for seed in range(3):
            for method in METHODS:
                for engine in ("sync", "columnar"):
                    cells.append(Cell(family="gnp", n=n, seed=seed,
                                      method=method, engine=engine,
                                      density=0.45))
            cells.append(Cell(family="gnp", n=n, seed=seed,
                              method="kt1-delta-plus-one", engine="async",
                              density=0.25))
    rng.shuffle(cells)
    return cells


def probe_setup() -> float:
    """One fresh interpreter: imports (numpy included) and oracle load."""
    speed = common.speed_factor()
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(common.HERE, "run.py"),
         "--probe-setup"],
        stdout=subprocess.PIPE, env=common.child_env(), text=True)
    line = proc.stdout.readline()
    elapsed = time.monotonic() - t0
    proc.stdout.close()
    proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise common.BenchError("setup probe failed")
    return elapsed * speed


def setup_in_process() -> None:
    """What a probe does, in this process (``--probe-setup``)."""
    import numpy  # noqa: F401  (the columnar engine's import, paid up front)

    from repro import api  # noqa: F401
    from repro.experiments import runner  # noqa: F401
    common.load_oracle()


def _run_pass(cells, oracle, result) -> list[float]:
    """Run and check each cell; returns the per-cell latencies."""
    from repro.experiments import runner

    latencies = []
    for cell in cells:
        gc.collect()    # each cell starts from the same heap state
        speed = common.speed_factor(2)
        c0 = time.monotonic()
        try:
            rec = runner.run_cell(cell)
            error = common.check_record(rec, oracle)
        except Exception as exc:   # a crash is a failed cell
            error = f"{cell.key()}: {exc!r}"
        latencies.append((time.monotonic() - c0) * speed)
        result["attempted"] += 1
        if error:
            result["failed"] += 1
            result["errors"].append(error)
    return latencies


def run(seed: int, seconds: float, trace: bool, oracle: dict,
        tiny: bool = False) -> dict:
    sizes = TINY_SIZES if tiny else SIZES
    setups = [probe_setup() for _ in range(1 if tiny else SETUP_PROBES)]
    setup_in_process()
    from repro.experiments import runner
    from repro.experiments.spec import Cell

    rng = random.Random(f"engine-dense/{seed}")
    # Warm-up: lazy imports and first-call caches, outside the clock.
    runner.run_cell(Cell(family="gnp", n=40, seed=0, method="luby",
                         engine="columnar", density=0.45))
    result = {"attempted": 0, "failed": 0, "errors": []}
    cells = one_pass(rng, sizes)
    passes = max(2, round(seconds / 10))
    runs = [_run_pass(cells, oracle, result) for _ in range(passes)]
    fastest = [min(times) for times in zip(*runs)]
    out = {
        "inputs": {"cells": [c.key() for c in cells], "passes": passes},
        "e2e": {
            "setup_s": sorted(setups)[len(setups) // 2],
            "throughput_per_s": len(cells) / sum(fastest),
            "p50_ms": 1000 * common.percentile(fastest, 50),
            "p90_ms": 1000 * common.percentile(fastest, 90),
            "peak_rss_mb": common.peak_rss_mb(),
        },
    }
    if trace:
        out["trace"] = _traced_pass(cells, oracle, result, fastest)
    out.update(attempted=result["attempted"], failed=result["failed"],
               errors=result["errors"])
    return out


def _traced_pass(cells, oracle, result, untraced) -> dict:
    import attribution
    import tracing

    rec = tracing.Recorder()
    tracing.install(rec, ["engine"])
    start = time.monotonic()
    traced = _run_pass(cells, oracle, result)
    lanes = [(os.getpid(), threading.get_ident(), start, time.monotonic())]
    metrics = attribution.layer_metrics(rec.spans, lanes)
    metrics["trace.overhead_frac"] = sum(traced) / sum(untraced) - 1.0
    return metrics
