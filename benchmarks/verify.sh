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
# The guards counts cannot see carry the `pin` marker (pytest.ini), each
# with its rationale in its docstring; none is slow-marked, so the fast
# slice runs each of them once.  This lists them and runs none:
python -m pytest --co -q -m pin
python -m pytest -x -q -m "not slow"

echo "== paper-claim benches (the paper's orderings, fixed seeds) =="
# The 22 tests in benchmarks/bench_*.py that assert the paper's claims:
# Figure 1's ordering, Thms 3.3/3.8/4.1 and Lemmas 3.5/3.7 (Algorithms
# 1-3), the danner, the lower-bound lemmas and theorems, and the async
# study.  pytest.ini's testpaths is tests/, so nothing else runs them.
# bench_engine.py and bench_serve.py are artifact writers, not claims.
python -m pytest -x -q benchmarks/bench_algorithm1.py \
    benchmarks/bench_algorithm2.py benchmarks/bench_algorithm3.py \
    benchmarks/bench_async.py benchmarks/bench_danner.py \
    benchmarks/bench_figure1.py benchmarks/bench_lowerbound.py \
    --benchmark-disable

echo "== benchmark harness tests (perfbench/) =="
# perfbench/tracing.py wraps supervisor, farm and serving functions by
# module attribute; a rename in src/ breaks the traced benchmark run,
# and these tests (a traced run included) catch it.  It wraps class
# methods through owner.__dict__, so Coordinator.lease_cells/submit,
# QueryServer.handle_query/__init__ and QueueJournal.write/write_farm
# must stay defined on their own classes: moving one into a base class
# (wire.Service, say) breaks the traced run too.
python -m pytest -q perfbench/tests

echo "== distributed sweep smoke (cell plan) =="
# The two-worker end-to-end sweep
# (tests/test_distributed.py::test_two_worker_distributed_sweep_matches_serial)
# and the shared graph build of sibling cells (run_cell keeps the
# previous cell's graph: 12 graphs, 48 cells, 12 builds;
# tests/test_experiments.py::test_serial_sweep_builds_each_graph_once)
# ran in the fast slice above.
SMOKE_OUT="$(mktemp -u "${TMPDIR:-/tmp}/repro-smoke-XXXXXX.jsonl")"
python -m repro sweep --families gnp --sizes 30 --seeds 0 1 \
    --methods luby --out "$SMOKE_OUT" --dry-run
rm -f "$SMOKE_OUT"

# The farm smoke runs in the fast slice above: the persistent-farm
# contract is that two named sweeps served to two real worker
# subprocesses with batched leases land per-sweep stores bit-identical
# to serial run_sweep
# (tests/test_farm.py::test_two_sweeps_two_workers_batched_matches_serial),
# and that a multi-tenant journal restores every tenant across a
# drain/restart (::test_farm_journal_multi_tenant_round_trip,
# docs/distributed.md).

echo "== wire smoke (CLI clients give up on a trickling peer) =="
# Every client reads each exchange under one total deadline
# (src/repro/wire.py): against a peer that trickles one byte every
# 100 ms, `farm status`, `farm attach`, `farm cancel`, `serve-status`
# and `query` with --timeout 0.5, and `farm submit` with --rpc-timeout
# 0.5 (its --timeout is the per-cell budget), must each exit 1 within
# 5 s instead of hanging.
python - << 'EOF'
import socket, subprocess, sys, threading, time

listener = socket.create_server(("127.0.0.1", 0))
port = listener.getsockname()[1]

def trickle(conn):
    with conn:
        try:
            while True:
                conn.sendall(b" ")
                time.sleep(0.1)
        except OSError:
            pass

def accept_loop():
    while True:
        try:
            conn, _ = listener.accept()
        except OSError:
            return
        threading.Thread(target=trickle, args=(conn,), daemon=True).start()

threading.Thread(target=accept_loop, daemon=True).start()
endpoint = f"127.0.0.1:{port}"
for argv in (["farm", "status", "--timeout", "0.5"],
             ["farm", "attach", "--name", "x", "--timeout", "0.5"],
             ["farm", "cancel", "--name", "x", "--timeout", "0.5"],
             ["farm", "submit", "--name", "x", "--sizes", "30",
              "--rpc-timeout", "0.5"],
             ["serve-status", "--timeout", "0.5"],
             ["query", "--n", "20", "--timeout", "0.5"]):
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro", *argv, "--connect", endpoint],
            capture_output=True, text=True, timeout=5)
    except subprocess.TimeoutExpired:
        sys.exit(f"wire smoke: `repro {' '.join(argv)}` still running "
                 "after 5 s against a trickling peer")
    elapsed = time.monotonic() - start
    if proc.returncode != 1:
        sys.exit(f"wire smoke: `repro {' '.join(argv)}` exited "
                 f"{proc.returncode}, want 1: {proc.stderr}")
    print(f"wire smoke: repro {' '.join(argv)} exited 1 in {elapsed:.2f}s "
          f"({proc.stderr.strip()})")
listener.close()
EOF

echo "== fault-sweep smoke (drops, crashes, adversary; counts pinned) =="
FAULT_OUT="$(mktemp -u "${TMPDIR:-/tmp}/repro-faults-XXXXXX.jsonl")"
python -m repro sweep --families gnp --sizes 40 --seeds 0 1 \
    --methods luby baseline-trial \
    --faults drop:0.05 crash:0.1 adversary:64 --out "$FAULT_OUT"
python - "$FAULT_OUT" << 'EOF'
import json, sys

# (messages, rounds, dropped_messages) per cell, recorded before the
# fan-out send path landed.  The count-regression gate covers only
# fault-free cells; these pin the drop/crash/adversary decisions and
# their rng draws, which run per receiver in submission order.
PINNED = {
    ("luby", "drop:0.05", 0): (536, 4, 19),
    ("luby", "drop:0.05", 1): (580, 4, 25),
    ("luby", "crash:0.1", 0): (876, 7, 0),
    ("luby", "crash:0.1", 1): (1032, 7, 0),
    ("luby", "adversary:64", 0): (498, 4, 25),
    ("luby", "adversary:64", 1): (563, 3, 31),
    ("baseline-trial", "drop:0.05", 0): (595, 6, 21),
    ("baseline-trial", "drop:0.05", 1): (662, 6, 25),
    ("baseline-trial", "crash:0.1", 0): (724, 7, 0),
    ("baseline-trial", "crash:0.1", 1): (805, 7, 8),
    ("baseline-trial", "adversary:64", 0): (493, 4, 25),
    ("baseline-trial", "adversary:64", 1): (555, 3, 33),
}
records = [json.loads(line) for line in open(sys.argv[1])]
assert len(records) == len(PINNED), (len(records), records)
assert all(r["status"] == "ok" for r in records), records
assert all(r["survivor_valid"] for r in records), records
for r in records:
    cell = (r["method"], r["faults"], r["seed"])
    got = (r["messages"], r["rounds"], r["dropped_messages"])
    assert got == PINNED[cell], f"{cell}: {got} != pinned {PINNED[cell]}"
dropped = sum(r["dropped_messages"] for r in records)
print(f"fault smoke: {len(records)} cells match the pinned counts, "
      f"{dropped} messages dropped")
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
# --workers N runs the cells in N supervised warm children (the same
# path as every multi-worker local sweep, see docs/distributed.md).
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
