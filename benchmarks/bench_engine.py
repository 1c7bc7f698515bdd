"""ENGINE — the experiment-sweep subsystem as a perf benchmark.

Runs a reference multi-family, multi-seed sweep through
:mod:`repro.experiments` (worker pool, stats-lite engine mode) and writes
``BENCH_engine.json`` at the repo root: message counts, fitted growth
exponents, and wall-clock per cell.  Future PRs diff this artifact to see
whether the engine got faster or the algorithms chattier.

Run directly (no pytest needed):

    PYTHONPATH=src python benchmarks/bench_engine.py [--workers 4]
"""

from __future__ import annotations

import argparse
import json
import os
import time

from repro.experiments import (
    SweepSpec,
    bench_payload,
    render_report,
    run_sweep,
    summarize,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

BENCH_METHODS = ("kt1-delta-plus-one", "baseline-trial",
                 "kt2-sampled-greedy", "luby")

#: The shared-density reference matrix.  Sizes reach n=320 because the
#: n^1.5-vs-m separation only becomes visible once m >> n^1.5 — the
#: whole point of measuring the engine where it is actually loaded.
REFERENCE_SPEC = SweepSpec(
    families=("gnp", "regular"),
    sizes=(80, 140, 220, 320),
    seeds=(0, 1, 2),
    methods=BENCH_METHODS,
    density=0.25,
)

#: A denser gnp column (p = 0.45): m grows while n^1.5 stays put, so the
#: o(m) methods' advantage over the Omega(m) baselines widens — and the
#: engine's per-send costs dominate the wall clock, which is what this
#: benchmark exists to track.
DENSE_SPEC = SweepSpec(
    families=("gnp",),
    sizes=(80, 140, 220, 320),
    seeds=(0, 1, 2),
    methods=BENCH_METHODS,
    density=0.45,
)

#: The async column: Algorithm 1 under the event-driven engine (uniform
#: latency).  Each cell carries the shadow-sync baseline, so the artifact
#: charts the cost of asynchrony (overhead_messages) next to the sync
#: trajectory — and the async counts themselves become regression-gated.
ASYNC_SPEC = SweepSpec(
    families=("gnp",),
    sizes=(80, 140, 220, 320),
    seeds=(0, 1, 2),
    methods=("kt1-delta-plus-one",),
    engines=("async",),
    density=0.25,
)

SPECS = (REFERENCE_SPEC, DENSE_SPEC, ASYNC_SPEC)


def _dense_pass(scheduler: str | None) -> list[dict]:
    """One serial dense-column pass, in-process.

    ``workers=1`` runs the cells one after another in this interpreter:
    no sibling contention inflating numpy's memory-bandwidth appetite.
    Both disciplines run here, rounds first, so the columnar pass sees
    an interpreter already warmed by the rounds pass.
    """
    if scheduler:
        os.environ["REPRO_SCHEDULER"] = scheduler
    try:
        return run_sweep(DENSE_SPEC, store=None, workers=1)
    finally:
        os.environ.pop("REPRO_SCHEDULER", None)


def columnar_column() -> dict:
    """Measure the dense column under both synchronous schedulers.

    The dense gnp sweep is where per-send engine costs dominate, so it
    is the honest place to measure the columnar engine: same cells, same
    keys (``REPRO_SCHEDULER`` overrides delivery without touching the
    cell key), counts asserted identical between the two passes, wall
    clock recorded as its own column next to the scalar one.  ``run``
    calls this *before* the 4-way main sweep so both passes see the
    same quiet machine.
    """
    base = {r["key"]: r for r in _dense_pass(None)}
    col = {r["key"]: r for r in _dense_pass("columnar")}
    mismatches = sorted(
        key for key in col
        if (col[key]["messages"], col[key]["rounds"])
        != (base[key]["messages"], base[key]["rounds"])
    )
    rounds_wall = sum(r["wall_s"] for r in base.values())
    columnar_wall = sum(r["wall_s"] for r in col.values())
    return {
        "spec": "gnp p=0.45 dense column (serial passes)",
        "cells": {key: col[key]["wall_s"] for key in sorted(col)},
        "rounds_cell_wall_s": round(rounds_wall, 3),
        "columnar_cell_wall_s": round(columnar_wall, 3),
        "speedup": (round(rounds_wall / columnar_wall, 3)
                    if columnar_wall else None),
        "count_identical": not mismatches,
        "mismatches": mismatches,
    }


def run(workers: int = 4, out: str | None = None) -> dict:
    columnar_dense = columnar_column()
    t0 = time.perf_counter()
    records: list[dict] = []
    for spec in SPECS:
        records += run_sweep(spec, store=None, workers=workers)
    wall = time.perf_counter() - t0
    summary = summarize(records)
    payload = bench_payload(records, summary, wall_s=wall)
    payload["columnar_dense"] = columnar_dense
    print(render_report(summary))
    print(f"\n{len(records)} cells in {wall:.1f}s "
          f"({workers} workers)")
    cd = payload["columnar_dense"]
    print(f"columnar dense column: x{cd['speedup']} vs scalar rounds "
          f"(counts identical: {cd['count_identical']})")
    path = out or os.path.join(REPO_ROOT, "BENCH_engine.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return payload


def test_engine_sweep_benchmark(benchmark):
    """Pytest-benchmark entry: the sweep, serially, for timing stability."""
    payload = benchmark.pedantic(
        lambda: run(workers=0), rounds=1, iterations=1
    )
    # Every algorithm cell must have produced a verified-valid output.
    assert payload["runs"] == sum(spec.size for spec in SPECS)
    # Alg 1 must beat the Omega(m) baseline's growth on dense families,
    # in every density column.
    exps = {(e["family"], e["density"], e["method"]): e["messages_exponent"]
            for e in payload["exponents"]}
    for family, density in (("gnp", 0.25), ("regular", 0.25),
                            ("gnp", 0.45)):
        assert exps[(family, density, "kt1-delta-plus-one")] < \
            exps[(family, density, "baseline-trial")]
    # The columnar engine must be a pure delivery change: every dense
    # cell's messages/rounds identical to the scalar run.
    assert payload["columnar_dense"]["count_identical"], \
        payload["columnar_dense"]["mismatches"]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    run(workers=args.workers, out=args.out)
