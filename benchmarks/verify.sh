#!/bin/sh
# Fast verification gate: the tier-1 test suite minus the slow-marked
# scaling sweeps, then the exact fixed-seed count-regression check
# against the committed BENCH_engine.json.
#
#   benchmarks/verify.sh            # default: 4 regression workers
#   WORKERS=8 benchmarks/verify.sh
#
# Exits nonzero on the first failure.  This is the gate every engine
# change must pass before regenerating BENCH_engine.json.
set -e

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$REPO_ROOT"
export PYTHONPATH="$REPO_ROOT/src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 (fast slice: -m 'not slow') =="
python -m pytest -x -q -m "not slow"

echo "== benchmark harness tests (perfbench/) =="
# perfbench/tracing.py wraps supervisor, farm and serving functions by
# module attribute; a rename in src/ breaks the traced benchmark run,
# and these tests (a traced run included) catch it.
python -m pytest -q perfbench/tests

echo "== distributed sweep smoke (plan + two-worker end-to-end) =="
SMOKE_OUT="$(mktemp -u "${TMPDIR:-/tmp}/repro-smoke-XXXXXX.jsonl")"
python -m repro sweep --families gnp --sizes 30 --seeds 0 1 \
    --methods luby --out "$SMOKE_OUT" --dry-run
rm -f "$SMOKE_OUT"
python -m pytest -x -q \
    tests/test_distributed.py::test_two_worker_distributed_sweep_matches_serial

echo "== farm smoke (two tenants, batched workers, journal round-trip) =="
# The persistent-farm contract: two named sweeps served to two real
# worker subprocesses with batched leases must land per-sweep stores
# bit-identical to serial run_sweep, and a multi-tenant journal must
# restore every tenant across a drain/restart (docs/distributed.md).
python -m pytest -x -q \
    tests/test_farm.py::test_two_sweeps_two_workers_batched_matches_serial \
    tests/test_farm.py::test_farm_journal_multi_tenant_round_trip

echo "== fault-sweep smoke (seeded drops, survivor-valid records) =="
FAULT_OUT="$(mktemp -u "${TMPDIR:-/tmp}/repro-faults-XXXXXX.jsonl")"
python -m repro sweep --families gnp --sizes 40 --seeds 0 1 \
    --methods luby baseline-trial --faults drop:0.05 \
    --out "$FAULT_OUT"
python - "$FAULT_OUT" << 'EOF'
import json, sys

records = [json.loads(line) for line in open(sys.argv[1])]
assert records, "fault smoke produced no records"
assert all(r["status"] == "ok" for r in records), records
assert all(r["faults"] == "drop:0.05" for r in records), records
assert all(r["survivor_valid"] for r in records), records
dropped = sum(r["dropped_messages"] for r in records)
assert dropped > 0, "drop:0.05 sweep dropped nothing"
print(f"fault smoke: {len(records)} cells ok, {dropped} messages dropped")
EOF
rm -f "$FAULT_OUT"

echo "== chaos smoke (kill workers and solver children, bounce servers) =="
# Real subprocesses, real signals, three chapters.  Farm: one worker
# SIGKILLed mid-cell, the coordinator SIGTERM-drained (must exit 0) and
# restarted with --resume-journal; the merged store must be
# bit-identical per key to a serial run, with zero lost records and the
# surviving worker reconnecting through its backoff loop.  Tenants: a
# persistent `repro farm serve` hosting two named sweeps, a worker
# SIGKILLed mid-batch, the farm drained and restarted with every
# tenant restored from the journal; per-sweep stores must be
# bit-identical to serial with zero lost records.  Serve: a
# solver child (and its retry) SIGKILLed mid-request -> structured
# retriable error while the server keeps answering; an unmeetable
# deadline -> verified degraded answer in time; a flood past
# --max-pending -> immediate shed; SIGTERM -> in-flight answered,
# exit 0.  Heavier scenarios live behind the slow marker in
# tests/test_chaos.py and tests/test_serving.py.
CHAOS_DIR="$(mktemp -d "${TMPDIR:-/tmp}/repro-chaos-XXXXXX")"
python benchmarks/chaos_smoke.py --workdir "$CHAOS_DIR"
rm -rf "$CHAOS_DIR"

echo "== serve bench smoke (seeded concurrent traffic, quick mix) =="
# A quick closed-loop traffic replay against an in-process QueryServer:
# every query must be answered or accounted for (shed/error), proving
# the serving layer holds up under concurrency.  The committed
# BENCH_serve.json is regenerated by the full mix
# (benchmarks/bench_serve.py without --quick), not here.
SERVE_OUT="$(mktemp -u "${TMPDIR:-/tmp}/repro-serve-XXXXXX.json")"
python benchmarks/bench_serve.py --quick --out "$SERVE_OUT"
rm -f "$SERVE_OUT"

echo "== fixed-seed count regression vs BENCH_engine.json =="
python benchmarks/check_regression.py --workers "${WORKERS:-4}"

echo "== columnar engine: same counts, numpy scheduler =="
# The whole reference matrix again under the columnar scheduler: every
# cell's messages/rounds must still match the committed baseline
# bit-for-bit (the columnar parity contract, docs/columnar.md).
python benchmarks/check_regression.py --workers "${WORKERS:-4}" \
    --scheduler columnar

echo "== columnar engine: numpy-free fallback smoke =="
# A shadow 'numpy' that refuses to import: the columnar scheduler must
# warn once, fall back to the scalar path, and finish with a valid run.
NONUMPY_DIR="$(mktemp -d "${TMPDIR:-/tmp}/repro-nonumpy-XXXXXX")"
cat > "$NONUMPY_DIR/numpy.py" << 'EOF'
raise ImportError("numpy disabled for the columnar fallback smoke")
EOF
PYTHONPATH="$NONUMPY_DIR:$PYTHONPATH" python - << 'EOF'
import sys
from repro import api
from repro.graphs.generators import family_graph

res = api.find_mis(family_graph("gnp", 40, p=0.3, seed=0),
                   method="luby", seed=0, scheduler="columnar")
assert res.valid, "numpy-free columnar run produced an invalid MIS"
import repro.congest.columnar as columnar
assert columnar.get_numpy() is None, "shadow numpy was importable"
print(f"no-numpy smoke: valid MIS of {res.size}, "
      f"{res.report.messages} msgs via scalar fallback")
EOF
rm -rf "$NONUMPY_DIR"

echo "verify.sh: OK"
