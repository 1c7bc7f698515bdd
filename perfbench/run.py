"""The repository benchmark: one workload per invocation.

    python3 perfbench/run.py --workload engine-dense --seed 1 \\
        --seconds 16 --trace 0

Prints what it ran (seed, cells or query mix, core count), every metric
by name with its unit, and as its last line one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Exits non-zero when any output is wrong, and without a result when the
checkout cannot run the benchmark.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import common

WORKLOADS = ("engine-dense", "farm-sweep", "serve-mix")

#: End-to-end metrics (``--trace 0``) and their units.
E2E_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    """Per-layer metrics (``--trace 1``) and their units, in print order."""
    import attribution

    units = {name: "s" for name in attribution.PARTITION_METRICS}
    units["trace.wall_s"] = "s"
    units["trace.overhead_frac"] = "ratio"
    units["api.shadow_s"] = "s"
    for name in attribution.PER_CALL_MS:
        units[name] = "ms"
    for kind in attribution.SCHEDULER_KINDS:
        units[f"congest.runtime.msgs_per_s.{kind}"] = "msgs/s"
    units["congest.columnar.kernel_share"] = "ratio"
    for phase in attribution.ALG1_PHASES:
        units[f"alg1.phase_s.{phase}"] = "s"
        units[f"alg1.phase_msgs.{phase}"] = "msgs"
    units.update({
        "runner.cell_overhead_ms": "ms",
        "farm.cells_per_lease": "cells",
        "farm.worker_idle_frac": "ratio",
        "farm.requeued": "count",
        "farm.lost": "count",
        "farm.resumed": "count",
        "serve.child_overhead_ms": "ms",
        "serve.cache_hit_frac": "ratio",
        "serve.retries": "count",
        "serve.hit_p50_ms": "ms",
        "serve.degraded_frac": "ratio",
        "failed_frac": "ratio",
    })
    return units


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 oracle: dict, tiny: bool = False) -> dict:
    if name == "engine-dense":
        import engine_dense as workload
    elif name == "farm-sweep":
        import farm_sweep as workload
    else:
        import serve_mix as workload
    result = workload.run(seed, seconds, trace, oracle, tiny=tiny)
    failed_frac = result["failed"] / max(1, result["attempted"])
    if trace:
        units = per_layer_units()
        layers = dict.fromkeys(units, 0.0)
        layers.update(result["trace"])
        layers["failed_frac"] = failed_frac
        result["metrics"] = layers
    else:
        result["metrics"] = dict(result["e2e"])
        units = E2E_UNITS
    result["units"] = units
    result["failed_frac"] = failed_frac
    return result


def _report(args, result: dict) -> None:
    print(f"workload {args.workload}: seed {args.seed}, "
          f"{args.seconds}s, trace {args.trace}, "
          f"{os.cpu_count()} cores")
    print("inputs: " + json.dumps(result["inputs"], sort_keys=True))
    for note in result.get("notes", ()):
        print(f"NOTE {note}")
    for error in result["errors"][:20]:
        print(f"FAILED {error}")
    print(f"attempted {result['attempted']}, failed {result['failed']} "
          f"(failed_frac {result['failed_frac']:.4f})")
    for name, unit in result["units"].items():
        print(f"  {name:42s} {result['metrics'][name]:14.6g} {unit}")
    if args.trace:
        import attribution
        parts = sum(result["metrics"][m]
                    for m in attribution.PARTITION_METRICS)
        print(f"  attribution: self times + unattributed_s = {parts:.6f}"
              f" s of trace.wall_s {result['metrics']['trace.wall_s']:.6f}"
              f" s; tracing overhead "
              f"{100 * result['metrics']['trace.overhead_frac']:+.1f}%")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs (the benchmark's own tests)")
    parser.add_argument("--oracle", default=common.ORACLE_PATH,
                        help="oracle file (default: BENCH_engine.json)")
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        common.check_checkout()
        if args.probe_setup:
            import engine_dense
            engine_dense.setup_in_process()
            print("ready", flush=True)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace),
                              common.load_oracle(args.oracle),
                              tiny=args.tiny)
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    _report(args, result)
    metrics = {
        name: {"value": result["metrics"][name], "unit": unit}
        for name, unit in result["units"].items()
    }
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    correct = result["failed"] == 0 and result["attempted"] > 0 and finite
    print(json.dumps({"correct": correct,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
