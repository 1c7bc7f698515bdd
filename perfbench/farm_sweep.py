"""``farm-sweep``: one sweep served to two real ``repro worker`` processes.

The benchmark hosts a :class:`Coordinator` (store and journal in a temp
dir inside the checkout) and starts two ``python -m repro worker``
processes.  The sweep is the paper's exponent sweep as researchers run
it: gnp and regular, p=0.25, n in {80, 140}, seeds 0-2, four methods,
engines ``sync`` and ``columnar`` -- 96 cells, every one checked against
the oracle.  Forking a child per cell, the numpy import in every
columnar child, regular-family graph build and lease/submit dominate;
the engine is a minority.

A *round* is a fresh coordinator, two fresh workers and the whole
sweep; a run makes ``--seconds / 7`` rounds (at least three).  A cell's
*service time* is the gap between its record and the previous record
from the same worker (the progress hook fires in the coordinator thread
serving that worker): lease, fork, child imports, the cell, submit.
Each cell's fastest round is kept -- interference only adds time -- and
``throughput_per_s`` is the two workers' capacity, 2 / mean service
time, which leaves out the idle tail that batch boundaries leave at the
end of a sweep.  Service times are scaled to nominal machine speed by
:class:`common.SpeedSampler`, sampled during the round.  The cell set
is fixed by the oracle; the seed orders the graph seeds.
"""

from __future__ import annotations

import os
import random
import subprocess
import threading
import time

import common

METHODS = ("kt1-delta-plus-one", "baseline-trial", "luby",
           "kt2-sampled-greedy")
WORKERS = 2
MIN_ROUNDS = 3
SETUP_PROBES = 3
READY_TIMEOUT_S = 60.0
SWEEP_TIMEOUT_S = 150.0


def sweep_spec(rng: random.Random, tiny: bool = False):
    """The sweep; the seed orders the graph seeds within each group of
    sibling cells, so every seed runs the same cells in a similar order
    (which cells run side by side on the two workers stays comparable)."""
    from repro.experiments.spec import SweepSpec

    seeds = [0, 1, 2]
    rng.shuffle(seeds)
    if tiny:
        return SweepSpec(families=("gnp",), sizes=(80,), seeds=(0,),
                         methods=METHODS, engines=("sync", "columnar"),
                         density=0.25)
    return SweepSpec(families=("gnp", "regular"), sizes=(80, 140),
                     seeds=tuple(seeds), methods=METHODS,
                     engines=("sync", "columnar"), density=0.25)


def _session(spec, tmp: str, trace_dir: str | None) -> dict:
    """One coordinator over the round's store, two fresh workers, until
    every cell the store does not hold as ok has a record."""
    from repro.experiments.distributed import Coordinator, QueueJournal
    from repro.experiments.store import ResultStore

    arrivals: list[tuple[float, int, dict]] = []
    arrived = threading.Event()

    def progress(rec, count, total):
        # Runs in the coordinator thread serving the submitting worker's
        # connection: one thread per worker, so the gaps between its
        # calls are that worker slot's per-cell service times.
        arrivals.append((time.monotonic(), threading.get_ident(), rec))
        if count >= total:
            arrived.set()

    t0 = time.monotonic()
    store = ResultStore(os.path.join(tmp, "store.jsonl"))
    coord = Coordinator(spec, store=store, progress=progress,
                        journal=QueueJournal(os.path.join(tmp,
                                                          "journal.json")))
    host, port = coord.start()
    groups = ("engine", "cells", "worker")
    procs = []
    try:
        for _ in range(WORKERS):
            with open(os.path.join(tmp, f"worker-{time.monotonic_ns()}.log"),
                      "wb") as log:
                procs.append(subprocess.Popen(
                    common.repro_command(
                        ["worker", "--connect", f"{host}:{port}"],
                        trace_dir),
                    stdout=log, stderr=subprocess.STDOUT,
                    env=common.child_env(trace_dir, groups)))
        while coord.status_snapshot()["active_workers"] < WORKERS:
            if time.monotonic() - t0 > READY_TIMEOUT_S:
                raise common.BenchError("farm workers never connected")
            if any(p.poll() is not None for p in procs):
                raise common.BenchError("a farm worker exited at start-up")
            time.sleep(0.002)
        ready = time.monotonic()
        if not arrived.wait(SWEEP_TIMEOUT_S):
            raise common.BenchError("sweep did not finish in time")
        coord.wait(timeout=SWEEP_TIMEOUT_S, linger_s=0.5)
        snapshot = coord.status_snapshot()
        requeued = sum(coord.queue.snapshot()["requeues"].values())
    finally:
        coord.stop()
        for proc in procs:
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                common.stop_process(proc)
        store.close()
    return {"arrivals": arrivals, "setup_s": ready - t0, "ready": ready,
            "done": arrivals[-1][0], "pids": [p.pid for p in procs],
            "lost": snapshot["lost"], "requeued": requeued}


def run_round(spec, oracle: dict, tmp: str, result: dict,
              trace_dir: str | None = None) -> dict:
    """Run the sweep to completion: one session, plus one resume of the
    same store if any record came back non-ok (the documented recovery;
    those records are counted in ``result["resumed"]``)."""
    os.makedirs(tmp)
    with common.SpeedSampler() as sampler:
        first = _session(spec, tmp, trace_dir)
    speed = sampler.factor()
    final = {}
    for session in (first, None):
        if session is None:
            bad = [k for k, r in final.items() if r.get("status") != "ok"]
            if not bad:
                break
            result["resumed"] += len(bad)
            result["notes"].extend(
                f"resumed {k}: {final[k].get('error')}" for k in bad)
            session = _session(spec, tmp, trace_dir)
        last_by_thread: dict[int, float] = {}
        for when, thread, rec in session["arrivals"]:
            gap = speed * (when - last_by_thread.get(thread,
                                                     session["ready"]))
            last_by_thread[thread] = when
            key = rec.get("key")
            result["service"][key] = min(result["service"].get(key, gap),
                                         gap)
            final[key] = rec
    for cell in spec.cells():
        result["attempted"] += 1
        rec = final.get(cell.key())
        error = (common.check_record(rec, oracle) if rec is not None
                 else f"{cell.key()}: never recorded")
        if error:
            result["failed"] += 1
            result["errors"].append(error)
    return {"setup_s": first["setup_s"],
            "sweep_s": first["done"] - first["ready"],
            "cells": len(first["arrivals"]), "ready": first["ready"],
            "done": first["done"], "pids": first["pids"],
            "lost": first["lost"], "requeued": first["requeued"]}


def probe_setup(tmp: str) -> float:
    """Coordinator up and both workers connected, on an empty farm."""
    from repro.experiments.distributed import Coordinator

    t0 = time.monotonic()
    coord = Coordinator(persistent=True)
    host, port = coord.start()
    procs = []
    try:
        for _ in range(WORKERS):
            procs.append(subprocess.Popen(
                common.repro_command(["worker", "--connect",
                                      f"{host}:{port}"]),
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                env=common.child_env()))
        while coord.status_snapshot()["active_workers"] < WORKERS:
            if time.monotonic() - t0 > READY_TIMEOUT_S:
                raise common.BenchError("farm workers never connected")
            time.sleep(0.002)
        return time.monotonic() - t0
    finally:
        for proc in procs:
            common.stop_process(proc)
        coord.stop()


def run(seed: int, seconds: float, trace: bool, oracle: dict,
        tiny: bool = False) -> dict:
    rng = random.Random(f"farm-sweep/{seed}")
    spec = sweep_spec(rng, tiny)
    result = {"attempted": 0, "failed": 0, "errors": [], "notes": [],
              "service": {}, "resumed": 0}
    tmp = common.make_tmp()
    try:
        setups = [probe_setup(tmp) for _ in range(0 if tiny
                                                  else SETUP_PROBES)]
        n_rounds = 1 if (tiny or trace) else max(MIN_ROUNDS,
                                                 round(seconds / 7))
        rounds = [run_round(spec, oracle, os.path.join(tmp, f"r{i}"),
                            result)
                  for i in range(n_rounds)]
        setups = sorted(setups + [r["setup_s"] for r in rounds])
        service = list(result["service"].values())
        out = {
            "inputs": {"spec": spec.to_dict(), "cells": spec.size,
                       "rounds": len(rounds), "workers": WORKERS},
            "e2e": {
                "setup_s": setups[len(setups) // 2],
                "throughput_per_s": WORKERS * len(service) / sum(service),
                "p50_ms": 1000 * common.percentile(service, 50),
                "p90_ms": 1000 * common.percentile(service, 90),
                "peak_rss_mb": common.peak_rss_mb(),
            },
        }
        if trace:
            out["trace"] = _traced_round(spec, oracle, tmp, result,
                                         rounds[0])
    finally:
        common.remove_tmp(tmp)
    out.update(attempted=result["attempted"], failed=result["failed"],
               errors=result["errors"], notes=result["notes"])
    if trace:
        out["trace"]["farm.resumed"] = float(result["resumed"])
    return out


def _traced_round(spec, oracle, tmp, result, untraced) -> dict:
    import attribution
    import tracing

    trace_dir = os.path.join(tmp, "trace")
    os.makedirs(trace_dir)
    rec = tracing.Recorder()
    tracing.install(rec, ["coordinator"])
    traced = run_round(spec, oracle, os.path.join(tmp, "traced"), result,
                       trace_dir=trace_dir)
    spans = tracing.load_spans(trace_dir) + rec.spans
    lanes = []
    for pid in traced["pids"]:
        threads = {s["tid"] for s in spans
                   if s["pid"] == pid and s["parent"] is None
                   and s["name"] in ("farm.batch", "farm.rpc")}
        lanes += [(pid, tid, traced["ready"], traced["done"])
                  for tid in threads]
    metrics = attribution.layer_metrics(spans, lanes)
    metrics["farm.requeued"] = float(traced["requeued"])
    metrics["farm.lost"] = float(traced["lost"])
    metrics["trace.overhead_frac"] = (
        (traced["sweep_s"] / traced["cells"])
        / (untraced["sweep_s"] / untraced["cells"]) - 1.0)
    return metrics
