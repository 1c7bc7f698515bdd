"""Engine-regression gate: diff a fresh sweep against BENCH_engine.json.

The committed ``BENCH_engine.json`` is the repo's perf-and-determinism
reference.  This script re-runs the reference sweep and compares:

* **exact** — ``messages`` and ``rounds`` per cell key must match the
  committed baseline bit-for-bit (any engine change that moves a count
  on a fixed seed is a semantics change, not an optimization);
* **advisory** — per-cell ``wall_s`` is summarized as a speedup ratio
  and printed, never asserted (machines differ).

Run directly:

    PYTHONPATH=src python benchmarks/check_regression.py [--workers 4]

The fast tier runs the same comparison on the n=80 slice via the
``slow``-marked ``tests/test_bench_regression.py``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from repro.experiments import bench_payload, run_sweep  # noqa: E402

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE_PATH = os.path.join(REPO_ROOT, "BENCH_engine.json")


def load_baseline(path: str = BASELINE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def fresh_payload(workers: int = 0, sizes=None) -> dict:
    """Re-run the reference sweep (optionally restricted to ``sizes``)."""
    import bench_engine

    t0 = time.perf_counter()
    records: list[dict] = []
    for spec in bench_engine.SPECS:
        if sizes is not None:
            keep = tuple(s for s in spec.sizes if s in sizes)
            if not keep:
                continue
            spec = dataclasses.replace(spec, sizes=keep)
        records += run_sweep(spec, store=None, workers=workers)
    return bench_payload(records, wall_s=time.perf_counter() - t0)


def compare(baseline: dict, fresh: dict) -> dict:
    """Cell-by-cell diff of two bench payloads.

    Returns shared-cell count, exact mismatches on messages/rounds,
    baseline cells absent from the fresh run, and the advisory wall-clock
    ratio over the shared cells.
    """
    base_cells = {c["key"]: c for c in baseline["cells"]}
    fresh_cells = {c["key"]: c for c in fresh["cells"]}
    shared = sorted(set(base_cells) & set(fresh_cells))
    mismatches = []
    for key in shared:
        b, f = base_cells[key], fresh_cells[key]
        for field in ("messages", "rounds"):
            if b[field] != f[field]:
                mismatches.append(
                    f"{key}: {field} {b[field]} -> {f[field]}"
                )
    base_wall = sum(base_cells[k]["wall_s"] for k in shared)
    fresh_wall = sum(fresh_cells[k]["wall_s"] for k in shared)
    return {
        "shared": len(shared),
        "mismatches": mismatches,
        "missing": sorted(set(base_cells) - set(fresh_cells)),
        "wall_baseline_s": round(base_wall, 3),
        "wall_fresh_s": round(fresh_wall, 3),
        "wall_ratio": round(fresh_wall / base_wall, 3) if base_wall else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--baseline", default=BASELINE_PATH)
    parser.add_argument(
        "--scheduler", default=None, choices=("rounds", "columnar"),
        help="run the fresh sweep under this synchronous scheduler "
             "(via REPRO_SCHEDULER, inherited by the supervised worker "
             "children); counts must still match the committed "
             "baseline bit-for-bit — that identity is the columnar "
             "parity contract",
    )
    args = parser.parse_args(argv)

    if args.scheduler:
        os.environ["REPRO_SCHEDULER"] = args.scheduler
    baseline = load_baseline(args.baseline)
    fresh = fresh_payload(workers=args.workers)
    result = compare(baseline, fresh)

    print(f"shared cells: {result['shared']}")
    print(f"wall (shared): baseline {result['wall_baseline_s']}s -> "
          f"fresh {result['wall_fresh_s']}s "
          f"(x{result['wall_ratio']}, advisory)")
    if result["missing"]:
        print(f"MISSING {len(result['missing'])} baseline cells: "
              f"{result['missing'][:5]}", file=sys.stderr)
    if result["mismatches"]:
        print(f"COUNT MISMATCHES ({len(result['mismatches'])}):",
              file=sys.stderr)
        for line in result["mismatches"][:20]:
            print(f"  {line}", file=sys.stderr)
    if result["missing"] or result["mismatches"]:
        return 1
    print("OK: messages/rounds identical on every shared cell")
    return 0


if __name__ == "__main__":
    sys.exit(main())
