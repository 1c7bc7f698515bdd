"""Command-line interface: ``python -m repro <command> ...``.

Commands
--------
color       run a coloring algorithm on a generated graph
mis         run an MIS algorithm on a generated graph
sweep       run a declarative experiment matrix in supervised warm children
            (--serve hosts it for remote workers — the single-tenant
            alias for the farm — --dry-run prints the cell plan)
worker      pull cells (batched) from a coordinator ('sweep --serve'
            or 'farm serve') and run them (reconnects with backoff
            when the coordinator bounces)
farm        the persistent multi-tenant experiment service:
            farm serve   host named sweeps with per-sweep stores,
                         priorities, fair-share leasing, journal
            farm submit  register a named sweep on a running farm
            farm attach  follow one sweep until it completes
            farm cancel  drop a sweep's pending cells, revoke leases
            farm status  queue counts, per-worker health, per-sweep
                         progress, throughput/ETA
report      aggregate JSON-lines results (growth exponents); accepts
            multiple stores and globs for per-sweep farm files
lowerbound  run the Section 2 crossing experiment
cycles      run the Theorem 2.17 mute-cycle sweep
serve       host the coloring/MIS query service (deadlines, bounded
            queue with load-shedding, supervised solver children,
            result cache, graceful drain on SIGTERM)
query       send one coloring/MIS query to a 'repro serve' server
serve-status  read-only health probe of a running query server
profile     cProfile a single sweep cell (top cumulative entries)
info        print the model/engine constants for a given n

All graphs are generated from a seed, so every invocation is
reproducible; results print as a small report with message/round
accounting and verification status.  ``sweep`` appends one JSON line
per completed cell and skips cells already present in ``--out``, so an
interrupted sweep resumes where it stopped.

The three hosts (``sweep --serve``, ``farm serve``, ``serve``) run
their service through one routine, :func:`_host`: start, banner,
serve until done or drained by SIGTERM/SIGINT, stop.  Each flag set a
role shares is declared once (``_engine_args``, ``_host_args``,
``_client_args``), every command prints through :func:`_emit`, and a
``ReproError`` from any command exits 1 with ``<command>: <reason>``
on stderr (:func:`main`).
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import signal
import sys
import threading
import time

from repro import api
from repro.congest.runtime import (ENGINES, FAULT_MODELS, LATENCY_MODELS,
                                   SCHEDULERS)
from repro.errors import ReproError
from repro.graphs.core import Graph
from repro.graphs.generators import FAMILIES, family_graph
from repro.graphs.io import load_edge_list

GRAPH_FAMILIES = tuple(FAMILIES)

_FAULTS_HELP = (f"one of {', '.join(FAULT_MODELS)}, a model optionally "
                "followed by :PARAM values (docs/faults.md)")


def _build_graph(args) -> Graph:
    if getattr(args, "graph_file", None):
        return load_edge_list(
            args.graph_file, strict=not getattr(args, "lenient_graph", False))
    return family_graph(args.family, args.n, p=args.p, seed=args.graph_seed)


def _graph_label(args, graph: Graph) -> str:
    if getattr(args, "graph_file", None):
        return f"{args.graph_file}(n={graph.n}, m={graph.m})"
    return f"{args.family}(n={graph.n}, m={graph.m})"


def _graph_args(sub) -> None:
    sub.add_argument("--n", type=int, default=300, help="vertex count")
    sub.add_argument("--p", type=float, default=0.2,
                     help="density knob (edge probability for gnp)")
    sub.add_argument("--family", default="gnp", choices=GRAPH_FAMILIES)
    sub.add_argument("--graph-file", default=None, metavar="PATH",
                     help="run on an edge-list file instead of a "
                          "generated graph (overrides --family/--n/--p)")
    sub.add_argument("--lenient-graph", action="store_true",
                     help="with --graph-file: skip self-loops and "
                          "collapse duplicate edges (repository-dump "
                          "convention) instead of rejecting them")
    sub.add_argument("--graph-seed", type=int, default=0)
    sub.add_argument("--seed", type=int, default=0,
                     help="algorithm randomness seed")
    sub.add_argument("--json", action="store_true",
                     help="machine-readable output")


def _emit(args, payload: dict, sort_keys: bool = False) -> None:
    """Print ``payload`` as JSON under ``--json``, else as aligned
    ``key: value`` lines."""
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=sort_keys))
        return
    for key, value in payload.items():
        print(f"{key:>18}: {value}")


def _engine_payload(report) -> dict:
    """The cost-of-asynchrony and failure-injection lines shared by
    ``color`` and ``mis`` (what ``_engine_args`` switches on)."""
    payload = {}
    if report.engine == "async":
        payload.update({
            "latency model": report.latency,
            "sync messages": report.sync_messages,
            "overhead msgs": report.overhead_messages,
            "wrapped stages": report.synchronized_stages,
        })
    if report.faults is not None:
        payload.update({
            "fault model": report.faults,
            "dropped msgs": report.dropped_messages,
            "crashed nodes": report.crashed_nodes,
            "casualties": len(report.casualty_vertices),
            "survivor valid": report.survivor_valid,
        })
    return payload


def cmd_color(args) -> int:
    graph = _build_graph(args)
    result = api.color_graph(
        graph, method=args.method, seed=args.seed,
        epsilon=args.epsilon, asynchronous=args.asynchronous,
        latency=args.latency, faults=args.faults,
        scheduler=args.scheduler,
    )
    _emit(args, {
        "graph": _graph_label(args, graph),
        "method": args.method,
        "valid": result.valid,
        "colors used": result.num_colors,
        "palette bound": result.palette_bound,
        "messages": result.messages,
        "messages/edge": round(result.messages_per_edge, 3),
        "rounds": result.report.rounds,
        "utilized edges": result.report.utilized_edges,
        **_engine_payload(result.report),
    })
    return 0 if result.valid else 1


def cmd_mis(args) -> int:
    graph = _build_graph(args)
    result = api.find_mis(graph, method=args.method, seed=args.seed,
                          asynchronous=args.asynchronous,
                          latency=args.latency, faults=args.faults,
                          scheduler=args.scheduler)
    _emit(args, {
        "graph": _graph_label(args, graph),
        "method": args.method,
        "valid": result.valid,
        "MIS size": result.size,
        "messages": result.messages,
        "messages/edge": round(result.report.messages_per_edge, 3),
        "rounds": result.report.rounds,
        **_engine_payload(result.report),
    })
    return 0 if result.valid else 1


def _parse_endpoint(value: str, default_host: str, what: str):
    """``PORT`` or ``HOST:PORT`` -> (host, port)."""
    host, sep, port = value.rpartition(":")
    if not sep:
        host, port = default_host, value
    try:
        return host, int(port)
    except ValueError:
        raise SystemExit(f"{what} takes PORT or HOST:PORT, got {value!r}")


def _peer(args):
    """A client command's ``--connect`` address as (host, port)."""
    return _parse_endpoint(args.connect, "127.0.0.1", "--connect")


def _spec_from_args(args):
    """Build the SweepSpec shared by ``sweep`` and ``farm submit``
    (both parsers add the same axis flags via ``_sweep_axis_args``)."""
    from repro.experiments import SweepSpec

    return SweepSpec(
        families=tuple(args.families),
        sizes=tuple(args.sizes),
        seeds=tuple(args.seeds),
        methods=tuple(args.methods),
        engines=tuple(args.engines),
        latencies=tuple(args.latencies),
        faults=tuple(args.faults),
        density=args.p,
        epsilon=args.epsilon,
        sample_constant=args.sample_constant,
        collect_utilization=args.full_stats,
        timeout_s=args.timeout,
        retries=args.retries,
    )


def cmd_sweep(args) -> int:
    from repro.experiments import ResultStore, run_sweep

    spec = _spec_from_args(args)
    store = ResultStore(args.out)

    if args.dry_run:
        # The plan a run would execute — resume-aware, nothing runs.
        done = store.completed_keys()
        plan = [c.key() for c in spec.cells() if c.key() not in done]
        if args.json:
            _emit(args, {
                "cells": spec.size,
                "to_run": len(plan),
                "resumed (skipped)": spec.size - len(plan),
                "engines": list(spec.engine_axis),
                "latencies": list(spec.latencies),
                "faults": list(spec.faults),
                "plan": plan,
            })
        else:
            for key in plan:
                print(key)
            print(f"axes: engines={','.join(spec.engine_axis)} "
                  f"latencies={','.join(spec.latencies)} "
                  f"faults={','.join(spec.faults)}")
            print(f"dry-run: {len(plan)} of {spec.size} cells to run "
                  f"({spec.size - len(plan)} already in {args.out})")
        return 0

    def progress(rec, done, total):
        if rec.get("status", "ok") != "ok":
            print(f"[{done}/{total}] {rec['key']}: {rec['status'].upper()} "
                  f"after {rec.get('attempts', 1)} attempt(s)", flush=True)
            return
        note = (f" ({rec['attempts']} attempts)"
                if rec.get("attempts", 1) > 1 else "")
        print(
            f"[{done}/{total}] {rec['key']}: {rec['messages']} msgs, "
            f"{rec['rounds']} rounds, {rec['wall_s']:.2f}s{note}",
            flush=True,
        )

    def banner(service) -> str:
        host, port = service.address
        return (f"coordinator listening on {host}:{port}"
                f" — start workers with:\n"
                f"    python -m repro worker --connect HOST:{port}")

    def summary(snap: dict) -> None:
        eta = "?" if snap["eta_s"] is None else f"{snap['eta_s']:.0f}s"
        print(f"[serve] {snap['done']}/{snap['total']} done, "
              f"{snap['active_workers']} worker(s), "
              f"{snap['cells_per_s']:.2f} cells/s, eta {eta}", flush=True)

    if args.json:
        progress = banner = summary = None
    t0 = time.perf_counter()
    drained = False
    with store:
        if args.serve is not None:
            coord = _host_farm(
                args, _parse_endpoint(args.serve, "0.0.0.0", "--serve"),
                "coordinator", args.journal or args.out + ".journal",
                banner, summary, spec=spec, store=store, progress=progress)
            fresh, drained = coord.fresh, coord.drained
        else:
            fresh = run_sweep(spec, store=store, workers=args.workers,
                              progress=progress)
    wall = time.perf_counter() - t0
    failed = [r for r in fresh if r.get("status", "ok") != "ok"]
    payload = {
        "cells": spec.size,
        "ran": len(fresh),
        # both runners execute exactly the cells absent from the store.
        "resumed (skipped)": spec.size - len(fresh),
        "failed (timeout/error)": len(failed),
        "workers": "distributed" if args.serve is not None else args.workers,
        "wall seconds": round(wall, 2),
        "results": args.out,
    }
    if drained:
        payload["drained"] = True
    _emit(args, payload)
    if drained:
        # A drain is a *requested* early exit, not a failure: the store
        # and journal are flushed, and re-serving with --resume-journal
        # picks up exactly where this process stopped.
        print("drained: sweep incomplete by request; re-run with "
              "--serve --resume-journal to continue", file=sys.stderr)
        return 0
    # Exit nonzero if ANY of this spec's cells is invalid or failed —
    # including ones resumed from the store, so re-running a failed sweep
    # stays red.  Last-record-wins: a failed line is cleared by a later
    # successful record for the same key (and vice versa — a key whose
    # latest attempt failed is red even if an older line was ok).
    spec_keys = {c.key() for c in spec.cells()}
    bad: dict[str, str] = {}
    for key, rec in store.latest_per_key().items():
        if key not in spec_keys:
            continue
        if rec.get("status", "ok") != "ok":
            bad[key] = rec["status"]
        elif not rec.get("valid", True):
            bad[key] = "invalid"
    if bad:
        sample = [f"{k} ({v})" for k, v in list(bad.items())[:5]]
        print(f"FAILED/INVALID cells ({len(bad)}): {sample}",
              file=sys.stderr)
        return 1
    return 0


def _host(service, banner, notice: str, grace_s, interval: float,
          observe=None, **wait_kwargs):
    """Host a ``wire.Service`` — a Coordinator or a QueryServer — until
    its ``wait`` returns; returns what ``wait`` returned.

    Starts the service, prints ``banner(service)`` (if given) once it
    is bound, then serves.  SIGTERM/SIGINT prints ``notice`` and calls
    ``service.drain(grace_s)``, so in-flight work lands and the process
    exits 0 instead of dying mid-write.  ``observe(status_snapshot)``
    (if given) runs every ``interval`` seconds.  The service is stopped
    and the previous handlers restored on the way out.
    """
    from concurrent.futures import ThreadPoolExecutor
    from concurrent.futures import wait as futures_wait

    service.start()
    if banner is not None:
        print(banner(service), flush=True)

    def _drain_handler(signum, frame):
        service.drain(grace_s=grace_s)
        print(f"{signal.Signals(signum).name}: {notice}", file=sys.stderr,
              flush=True)

    previous = {sig: signal.signal(sig, _drain_handler)
                for sig in (signal.SIGTERM, signal.SIGINT)}
    done = threading.Event()
    if observe is not None and interval > 0:
        def _observe_loop():
            while not done.wait(interval):
                observe(service.status_snapshot())
        threading.Thread(target=_observe_loop, daemon=True).start()

    try:
        with ThreadPoolExecutor(1) as pool:
            waiting = pool.submit(service.wait, **wait_kwargs)
            # Wait in slices, not in one blocking call: a signal that
            # another thread happens to take (one exiting, say) runs its
            # Python handler only when the main thread next wakes.
            while not waiting.done():
                futures_wait([waiting], timeout=0.2)
            return waiting.result()
    finally:
        done.set()
        service.stop()
        for sig, handler in previous.items():
            signal.signal(sig, handler)


def _host_farm(args, address, what: str, journal_path: str, banner,
               summary, **coordinator):
    """Build the Coordinator behind ``sweep --serve`` and ``farm serve``
    from the host flags both declare (``_host_args``) and host it until
    it completes or a signal drains it; returns the coordinator.

    Both linger ``DEFAULT_LINGER_S`` after the end so late workers are
    told ``shutdown`` rather than refused (``Coordinator.wait``).
    """
    from repro.experiments.distributed import (
        DEFAULT_LINGER_S,
        Coordinator,
        QueueJournal,
    )

    coord = Coordinator(
        host=address[0], port=address[1],
        lease_s=args.lease,
        journal=QueueJournal(journal_path),
        resume_journal=args.resume_journal,
        journal_interval_s=args.journal_interval,
        **coordinator,
    )
    notice = (f"draining {what} — no new leases, up to "
              f"{args.drain_grace:g}s for in-flight cells "
              f"(journal: {journal_path})")
    _host(coord, banner, notice, args.drain_grace, args.status_interval,
          summary, linger_s=DEFAULT_LINGER_S)
    return coord


def cmd_farm_status(args) -> int:
    """One read-only status round trip against a live coordinator."""
    from repro.experiments.distributed import fetch_status

    host, port = _peer(args)
    snap = fetch_status(host, port, timeout_s=args.timeout)
    snap.pop("type", None)
    if args.json:
        _emit(args, snap)
        return 0
    eta = "-" if snap["eta_s"] is None else f"{snap['eta_s']:g}s"
    _emit(args, {
        "coordinator": f"{host}:{port}",
        "cells": (f"{snap['done']}/{snap['total']} done, "
                  f"{snap['leased']} leased, {snap['pending']} pending"),
        "lost": snap["lost"],
        "cells/s": snap["cells_per_s"],
        "eta": eta,
        "elapsed": f"{snap['elapsed_s']:.0f}s",
        "draining": "yes" if snap["draining"] else "no",
        "workers": snap["active_workers"],
    })
    for wid, w in sorted(snap["workers"].items()):
        beat = ("never" if w["last_heartbeat_age_s"] is None
                else f"heartbeat {w['last_heartbeat_age_s']:.1f}s ago")
        state = "up" if w["connected"] else "gone"
        print(f"    {wid}: {state}, {w['completed']} done, "
              f"{len(w['leases'])} lease(s), {beat}")
    for name, s in sorted(snap.get("sweeps", {}).items()):
        eta = "-" if s["eta_s"] is None else f"{s['eta_s']:g}s"
        flag = (" [cancelled]" if s["cancelled"]
                else " [finished]" if s["finished"] else "")
        print(f"    sweep {name}: {s['done']}/{s['total']} done, "
              f"{s['leased']} leased, {s['pending']} pending, "
              f"{s['lost']} lost, {s['cells_per_s']:.2f} cells/s, "
              f"eta {eta}, priority {s['priority']}{flag}")
    return 0


def cmd_farm_serve(args) -> int:
    """Host the persistent multi-tenant farm until SIGTERM drains it."""
    os.makedirs(args.store_dir, exist_ok=True)
    journal_path = args.journal or os.path.join(args.store_dir,
                                                "farm.journal")

    def banner(service) -> str:
        host, port = service.address
        text = (f"farm serving on {host}:{port} "
                f"(stores: {args.store_dir}, journal: {journal_path})\n"
                f"    submit:  python -m repro farm submit "
                f"--connect HOST:{port} --name NAME ...\n"
                f"    workers: python -m repro worker --connect HOST:{port}")
        resumed = sorted(service.status_snapshot()["sweeps"])
        if resumed:
            text += (f"\nresumed {len(resumed)} sweep(s) from the journal: "
                     f"{', '.join(resumed)}")
        return text

    def summary(snap: dict) -> None:
        sweeps = snap["sweeps"]
        live = sum(1 for s in sweeps.values()
                   if not s["finished"] and not s["cancelled"])
        print(f"[farm] {len(sweeps)} sweep(s), {live} live, "
              f"{snap['done']}/{snap['total']} cells done, "
              f"{snap['active_workers']} worker(s), "
              f"{snap['cells_per_s']:.2f} cells/s", flush=True)

    _host_farm(args, _parse_endpoint(args.listen, "0.0.0.0", "PORT"),
               "farm", journal_path, banner, summary, persistent=True,
               store_dir=args.store_dir, max_requeues=args.max_requeues)
    print("farm drained: stores and journal flushed; restart with "
          "--resume-journal to continue every sweep", file=sys.stderr)
    return 0


def cmd_farm_submit(args) -> int:
    """Register a named sweep on a running farm."""
    from repro.experiments.distributed import submit_sweep

    host, port = _peer(args)
    ack = submit_sweep(host, port, args.name, _spec_from_args(args),
                       priority=args.priority, timeout_s=args.rpc_timeout)
    _emit(args, {
        "coordinator": f"{host}:{port}",
        "sweep": ack.get("sweep"),
        "created": ack.get("created"),
        "cells to run": ack.get("total"),
        "fingerprint": ack.get("fingerprint"),
        "priority": args.priority,
    })
    return 0


def cmd_farm_attach(args) -> int:
    """Follow one sweep's progress until it completes (or once with
    ``--poll 0``)."""
    from repro.errors import DistributedError
    from repro.experiments.distributed import fetch_sweep

    host, port = _peer(args)
    last_done = None
    while True:
        snap = fetch_sweep(host, port, args.name, timeout_s=args.timeout)
        snap.pop("type", None)
        if not args.json and snap["done"] != last_done:
            eta = "-" if snap["eta_s"] is None else f"{snap['eta_s']:g}s"
            print(f"[{args.name}] {snap['done']}/{snap['total']} done, "
                  f"{snap['leased']} leased, {snap['pending']} pending, "
                  f"{snap['cells_per_s']:.2f} cells/s, eta {eta}",
                  flush=True)
            last_done = snap["done"]
        if snap.get("cancelled"):
            raise DistributedError(f"sweep {args.name!r} was cancelled")
        if snap.get("finished") or args.poll <= 0:
            if args.json:
                _emit(args, snap)
            elif snap.get("finished"):
                print(f"[{args.name}] finished: {snap['done']}/"
                      f"{snap['total']} done, {snap['lost']} lost "
                      f"(store: {snap['store']})")
            return 1 if snap.get("finished") and snap["lost"] else 0
        time.sleep(args.poll)


def cmd_farm_cancel(args) -> int:
    """Cancel a named sweep on a running farm."""
    from repro.experiments.distributed import cancel_sweep

    host, port = _peer(args)
    ack = cancel_sweep(host, port, args.name, timeout_s=args.timeout)
    _emit(args, {
        "coordinator": f"{host}:{port}",
        "sweep": ack.get("sweep"),
        "dropped (pending)": ack.get("dropped"),
        "revoked (leases)": ack.get("revoked"),
    })
    return 0


def cmd_worker(args) -> int:
    """Run cells for a coordinator — ``repro sweep --serve`` or
    ``repro farm serve`` — until it tells the worker to shut down."""
    from repro.experiments.distributed import run_worker

    host, port = _peer(args)

    def progress(rec, count):
        status = rec.get("status", "ok")
        if status != "ok":
            print(f"[{count}] {rec['key']}: {status.upper()}", flush=True)
        else:
            print(f"[{count}] {rec['key']}: {rec['messages']} msgs, "
                  f"{rec['wall_s']:.2f}s", flush=True)

    def on_reconnect(attempt, delay, reason):
        # Always on stderr (even with --json): operators watching a
        # flapping farm need the evidence, and stdout stays parseable.
        print(f"worker: connection problem ({reason}); reconnect "
              f"attempt {attempt}/{args.reconnect} in {delay:.1f}s",
              file=sys.stderr, flush=True)

    completed = run_worker(
        host, port,
        worker_id=args.id,
        poll_s=args.poll,
        progress=None if args.json else progress,
        reconnect=args.reconnect,
        backoff_s=args.backoff,
        backoff_max_s=args.backoff_max,
        on_reconnect=on_reconnect,
        max_batch=args.max_batch,
        batch_target_s=args.batch_target,
    )
    _emit(args, {"coordinator": f"{host}:{port}", "cells run": completed})
    return 0


def cmd_report(args) -> int:
    from repro.experiments import (
        ResultStore,
        bench_payload,
        render_report,
        summarize,
    )

    # Each argument may be a literal path or a glob (per-sweep farm
    # stores: ``repro report --store 'farm-stores/*.jsonl'``).  A
    # pattern matching nothing falls through as a literal path so the
    # "no records" diagnostic names it.
    paths: list[str] = []
    for pattern in args.results:
        for path in sorted(glob.glob(pattern)) or [pattern]:
            if path not in paths:
                paths.append(path)
    records = []
    for path in paths:
        records.extend(ResultStore(path).load())
    if not records:
        print(f"no records found in {', '.join(paths)}", file=sys.stderr)
        return 1
    summary = summarize(records)
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(render_report(summary))
    if args.bench_out:
        with open(args.bench_out, "w", encoding="utf-8") as fh:
            json.dump(bench_payload(records, summary), fh, indent=2,
                      sort_keys=True)
            fh.write("\n")
        if not args.json:
            print(f"\nwrote {args.bench_out}")
    return 0


def cmd_lowerbound(args) -> int:
    from repro.lowerbounds.algorithms import (
        ProbedCountColoring,
        ProbedExtremaMIS,
    )
    from repro.lowerbounds.crossing_experiment import (
        dichotomy_experiment,
        summarize_records,
    )

    factory_cls = (ProbedCountColoring if args.problem == "coloring"
                   else ProbedExtremaMIS)
    recs = dichotomy_experiment(
        args.t, lambda: factory_cls(args.budget), args.problem,
        sample=args.sample, seed=args.seed,
    )
    s = summarize_records(recs)
    _emit(args, {
        "family": f"F(t={args.t}), n={6 * args.t}, m={4 * args.t ** 2}",
        "problem": args.problem,
        "probe budget": args.budget,
        "trials": s["trials"],
        "correct on base": round(s["base_correct_fraction"], 3),
        "correct on crossed": round(s["crossed_correct_fraction"], 3),
        "pair utilized": round(s["pair_utilized_fraction"], 3),
        "mean messages": round(s["mean_messages"], 1),
        "dichotomy holds": s["dichotomy_holds"],
    })
    return 0


def cmd_cycles(args) -> int:
    from repro.lowerbounds.kt_rho import cycle_tradeoff_sweep

    rows = cycle_tradeoff_sweep(
        args.cycles, args.k,
        fractions=tuple(args.fractions), trials=args.trials,
        seed=args.seed,
    )
    if args.json:
        print(json.dumps(rows, indent=2))
    else:
        print(f"{'fraction':>9} {'messages':>10} {'success':>8} "
              f"{'failed cycles':>14}")
        for r in rows:
            print(f"{r['fraction']:>9} {r['mean_messages']:>10.0f} "
                  f"{r['success_rate']:>8.2f} "
                  f"{r['mean_failed_cycles']:>14.1f}")
    return 0


def cmd_profile(args) -> int:
    """cProfile one sweep cell and print the top cumulative entries.

    The perf-work entry point: ``repro profile --method luby --n 220``
    shows where the engine spends its time on exactly the workload the
    sweeps run, without leaving the CLI.
    """
    import cProfile
    import pstats

    from repro.experiments import Cell
    from repro.experiments.runner import run_cell

    cell = Cell(
        family=args.family,
        n=args.n,
        seed=args.seed,
        method=args.method,
        engine=args.engine,
        latency=args.latency,
        density=args.p,
        epsilon=args.epsilon,
        collect_utilization=args.full_stats,
    )
    profiler = cProfile.Profile()
    profiler.enable()
    record = run_cell(cell)
    profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative").print_stats(args.top)
    stage_wall = record.get("stage_wall") or {}
    if stage_wall:
        print("per-stage wall (engine time inside run_stage):")
        total = sum(stage_wall.values())
        for name, wall in sorted(stage_wall.items(),
                                 key=lambda kv: -kv[1])[:args.top]:
            print(f"  {name:32s} {wall * 1000:9.2f} ms")
        print(f"  {'(stage total)':32s} {total * 1000:9.2f} ms "
              f"of {record['wall_s'] * 1000:.2f} ms cell wall")
        print(f"  {'(graph build)':32s} {record['graph_s'] * 1000:9.2f} ms")
    print(f"cell {record['key']}: {record['messages']} msgs, "
          f"{record['rounds']} rounds, {record['wall_s']:.3f}s, "
          f"valid={record['valid']}")
    return 0 if record["valid"] else 1


def cmd_serve(args) -> int:
    """Host the query service until SIGTERM/SIGINT drains it."""
    from repro.experiments.store import write_json_atomic
    from repro.serving import QueryServer

    host, port = _parse_endpoint(args.listen, "0.0.0.0", "PORT")
    server = QueryServer(
        host=host, port=port,
        solvers=args.solvers,
        max_pending=args.max_pending,
        cache_size=args.cache_size,
        deadline_s=args.deadline,
        grace_s=args.grace,
    )

    def banner(service) -> str:
        host, port = service.address
        # perfbench reads the port off this first stdout line.
        return (f"serving on {host}:{port} — query with:\n"
                f"    python -m repro query --connect HOST:{port} "
                f"--problem coloring --n 100")

    def observe(snap: dict) -> None:
        if args.stats_out:
            write_json_atomic(args.stats_out, snap)
        if args.status_interval > 0:
            p99 = "-" if snap["p99_ms"] is None else f"{snap['p99_ms']:.0f}ms"
            print(f"[serve] {snap['queries']} queries "
                  f"({snap['queries_per_s']:.2f}/s), "
                  f"{snap['cache_hits']} cached, "
                  f"{snap['degraded']} degraded, "
                  f"{snap['shed']} shed, "
                  f"{snap['errors']} errors, p99 {p99}", flush=True)

    # grace_s=None: a drain grants in-flight queries their deadline plus
    # --grace.
    _host(server, banner,
          "draining — answering in-flight queries, refusing new ones",
          None, args.status_interval or 30.0,
          observe if args.status_interval > 0 or args.stats_out else None)
    if args.stats_out:
        write_json_atomic(args.stats_out, server.status_snapshot())
    print("drained: all in-flight queries answered", file=sys.stderr)
    return 0


def cmd_query(args) -> int:
    """One query round trip against a running ``repro serve``."""
    from repro.serving import build_query, query_once

    host, port = _peer(args)
    if args.graph_file and args.send_path:
        # Ship the path; the server (which shares our filesystem)
        # loads the file itself — no megabyte edge lists inline.
        graph = {"graph_file": args.graph_file}
    else:
        built = _build_graph(args)
        graph = {"edges": built.edges(), "n": built.n}
    request = build_query(args.problem, method=args.method, seed=args.seed,
                          epsilon=args.epsilon, deadline_s=args.deadline,
                          **graph)
    result = query_once(host, port, request, timeout_s=args.timeout)
    if args.json:
        _emit(args, result.payload, sort_keys=True)
        return 0 if result.ok else 1
    if result.status == "overloaded":
        hint = ("draining" if result.payload.get("draining")
                else f"retry in {result.retry_after_s:g}s")
        print(f"server overloaded ({hint})", file=sys.stderr)
        return 1
    if result.status == "error":
        retriable = ("retriable" if result.payload.get("retriable")
                     else "permanent")
        print(f"query failed ({retriable}): {result.error}",
              file=sys.stderr)
        return 1
    payload = {
        "server": f"{host}:{port}",
        "problem": args.problem,
        "method": result.payload.get("method"),
        "valid": result.valid,
        "degraded": result.degraded,
        "cached": result.cached,
        "messages": result.messages,
        "rounds": result.rounds,
        "elapsed": f"{result.payload.get('elapsed_s', 0):.3f}s",
    }
    if args.problem == "coloring":
        payload["colors used"] = result.num_colors
        payload["palette bound"] = result.palette_bound
    else:
        payload["MIS size"] = result.size
    if result.messages_per_edge is not None:
        payload["messages/edge"] = round(result.messages_per_edge, 3)
    _emit(args, payload)
    return 0 if result.valid else 1


def cmd_serve_status(args) -> int:
    """One read-only status round trip against a live query server."""
    from repro.serving import fetch_serve_status

    host, port = _peer(args)
    snap = fetch_serve_status(host, port, timeout_s=args.timeout)
    snap.pop("type", None)
    if args.json:
        _emit(args, snap, sort_keys=True)
        return 0
    p50 = "-" if snap["p50_ms"] is None else f"{snap['p50_ms']:.1f}ms"
    p99 = "-" if snap["p99_ms"] is None else f"{snap['p99_ms']:.1f}ms"
    _emit(args, {
        "server": f"{host}:{port}",
        "uptime": f"{snap['uptime_s']:.0f}s",
        "queries": (f"{snap['queries']} "
                    f"({snap['queries_per_s']:.2f}/s)"),
        "ok": snap["ok"],
        "cache": (f"{snap['cache_hits']} hits "
                  f"({snap['cache_hit_rate']:.0%}), "
                  f"{snap['cache_entries']}/{snap['cache_size']} "
                  "entries"),
        "degraded": snap["degraded"],
        "shed": snap["shed"],
        "errors": snap["errors"],
        "retries": snap["retries"],
        "in flight": (f"{snap['in_flight']} "
                      f"({snap['running']} running, "
                      f"{snap['solvers']} slots)"),
        "latency": f"p50 {p50}, p99 {p99}",
        "draining": "yes" if snap["draining"] else "no",
    })
    return 0


def cmd_info(args) -> int:
    from repro.congest.network import SyncNetwork

    graph = _build_graph(args)
    net = SyncNetwork(graph, seed=args.seed)
    _emit(args, {
        "graph": _graph_label(args, graph),
        "max degree": graph.max_degree(),
        "ID space": net.assignment.space_bound(),
        "word bits": net.word_bits,
        "words/message": net.words_per_message,
        "n^1.5": int(graph.n ** 1.5),
        "m vs n^1.5": round(graph.m / graph.n ** 1.5, 2),
    })
    return 0


def _sweep_axis_args(p) -> None:
    """Experiment-matrix flags shared by ``sweep`` and ``farm submit``
    (everything :func:`_spec_from_args` reads)."""
    p.add_argument("--families", nargs="+", default=["gnp"],
                   choices=GRAPH_FAMILIES, metavar="FAMILY")
    p.add_argument("--sizes", type=int, nargs="+", default=[100, 160, 240],
                   metavar="N")
    p.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2],
                   metavar="SEED")
    p.add_argument("--methods", nargs="+", default=["kt1-delta-plus-one"],
                   metavar="METHOD",
                   help="coloring: "
                        f"{', '.join(api.method_names('coloring'))}; "
                        f"MIS: {', '.join(api.method_names('mis'))}")
    p.add_argument("--engines", "--engine", nargs="+", dest="engines",
                   default=["sync"], choices=ENGINES,
                   metavar="ENGINE",
                   help="engine axis: sync (scalar rounds), columnar "
                        "(numpy whole-round scheduler; counts identical "
                        "to sync, wall clock differs — docs/columnar.md), "
                        "async (event-driven; every method runs async, "
                        "round-cadence ones via the alpha-synchronizer)")
    p.add_argument("--latencies", nargs="+", default=["uniform"],
                   choices=LATENCY_MODELS, metavar="MODEL",
                   help="latency-model axis for async cells "
                        f"({', '.join(LATENCY_MODELS)}); sync cells "
                        "ignore it")
    p.add_argument("--faults", nargs="+", default=["none"], metavar="SPEC",
                   help=f"fault-model axis: {_FAULTS_HELP}; multiplies "
                        "every cell (fault-free keys are unchanged)")
    p.add_argument("--p", type=float, default=0.2,
                   help="density knob (edge probability for gnp)")
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--sample-constant", type=float, default=None,
                   help="Algorithm 3 |S| knob (kt2-sampled-greedy only; "
                        "default: the method's 1.0)")
    p.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                   help="per-cell wall-clock budget; a cell past it is "
                        "killed (its child replaced), retried --retries "
                        "times, then recorded with status=timeout")
    p.add_argument("--retries", type=int, default=0,
                   help="extra attempts for a timed-out cell")
    p.add_argument("--full-stats", action="store_true",
                   help="full accounting (utilized edges, per-tag) "
                        "instead of the default stats-lite mode")


def _engine_args(p) -> None:
    """Engine flags shared by ``color`` and ``mis``."""
    p.add_argument("--asynchronous", action="store_true")
    p.add_argument("--latency", default="uniform", choices=LATENCY_MODELS,
                   help="async latency model (with --asynchronous)")
    p.add_argument("--faults", default=None, metavar="SPEC",
                   help=f"fault model: {_FAULTS_HELP} (default: none)")
    p.add_argument("--scheduler", default=None, choices=SCHEDULERS,
                   help="synchronous delivery engine: rounds (scalar "
                        "per-node loop) or columnar (numpy whole-round "
                        "batches; identical counts, see docs/columnar.md)")


def _host_args(p, title: str) -> None:
    """Coordinator flags shared by ``sweep --serve`` and ``farm serve``
    (everything :func:`_host_farm` reads)."""
    g = p.add_argument_group(title)
    g.add_argument("--lease", type=float, default=30.0, metavar="SECONDS",
                   help="lease duration per cell (a batch of K cells "
                        "holds K leases renewed by one heartbeat); a "
                        "worker silent past it is presumed dead and its "
                        "cells are re-served")
    g.add_argument("--journal", default=None, metavar="PATH",
                   help="queue-journal file (default: <out>.journal for "
                        "sweep --serve, <store-dir>/farm.journal for farm "
                        "serve) — an fsync'd snapshot of each sweep's "
                        "done keys, requeue counts and live leases, so a "
                        "bounced coordinator can restart mid-sweep")
    g.add_argument("--resume-journal", action="store_true",
                   help="restore the journal at startup — done cells "
                        "stay done, requeue history (max_requeues) "
                        "survives, cancelled sweeps stay cancelled")
    g.add_argument("--journal-interval", type=float, default=2.0,
                   metavar="SECONDS",
                   help="seconds between journal writes")
    g.add_argument("--drain-grace", type=float, default=5.0,
                   metavar="SECONDS",
                   help="on SIGTERM/SIGINT: stop leasing, wait this long "
                        "for in-flight cells, flush stores and journal, "
                        "exit 0")
    g.add_argument("--status-interval", type=float, default=30.0,
                   metavar="SECONDS",
                   help="print a one-line progress summary (done/total, "
                        "workers, cells/s) this often; 0 disables")


def _client_args(p, peer: str, deadline: str | None = "--timeout",
                 with_json: bool = True) -> None:
    """Flags shared by the client commands: the peer's ``--connect``
    address, the request deadline (``deadline=None``: the command has
    none) and ``--json``."""
    p.add_argument("--connect", required=True, metavar="HOST:PORT",
                   help=f"the {peer}'s address")
    if deadline is not None:
        p.add_argument(deadline, type=float, default=10.0,
                       metavar="SECONDS",
                       help="deadline per request (a query's own "
                            "deadline and grace are added on top); past "
                            "it the command exits 1")
    if with_json:
        p.add_argument("--json", action="store_true",
                       help="machine-readable output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Can We Break Symmetry with o(m) "
                    "Communication?' (PODC 2021)",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("color", help="run a coloring algorithm")
    _graph_args(p)
    p.add_argument("--method", default="kt1-delta-plus-one",
                   choices=api.method_names("coloring"))
    p.add_argument("--epsilon", type=float, default=0.5)
    _engine_args(p)
    p.set_defaults(fn=cmd_color)

    p = subs.add_parser("mis", help="run an MIS algorithm")
    _graph_args(p)
    p.add_argument("--method", default="kt2-sampled-greedy",
                   choices=api.method_names("mis"))
    _engine_args(p)
    p.set_defaults(fn=cmd_mis)

    p = subs.add_parser(
        "sweep",
        help="run an experiment matrix (family x n x seed x method) "
             "in supervised worker processes; JSON-lines output, "
             "resumable",
    )
    _sweep_axis_args(p)
    p.add_argument("--workers", type=int, default=0,
                   help="worker processes (0/1 = serial in-process, "
                        "where a raising cell aborts the sweep; more = "
                        "supervised children, where it is an error "
                        "record)")
    p.add_argument("--out", default="results.jsonl",
                   help="JSON-lines result store (appended; completed "
                        "cells are skipped on re-run)")
    p.add_argument("--serve", default=None, metavar="[HOST:]PORT",
                   help="instead of running locally, serve the cells to "
                        "'repro worker' processes over a TCP work queue "
                        "(lease/heartbeat/requeue; records merge into "
                        "--out); HOST defaults to 0.0.0.0")
    _host_args(p, "coordinator (with --serve)")
    p.add_argument("--dry-run", action="store_true",
                   help="print the resume-aware cell plan (one key per "
                        "line) and exit without running anything")
    p.add_argument("--json", action="store_true",
                   help="machine-readable summary")
    p.set_defaults(fn=cmd_sweep)

    p = subs.add_parser(
        "worker",
        help="pull sweep cells from a coordinator ('repro sweep --serve' "
             "or 'repro farm serve'), run them (timeouts/retries "
             "included), stream records back",
    )
    _client_args(p, "coordinator", deadline=None)
    p.add_argument("--id", default=None,
                   help="worker name in coordinator logs/leases "
                        "(default: hostname-pid)")
    p.add_argument("--poll", type=float, default=1.0, metavar="SECONDS",
                   help="idle back-off when every cell is leased out")
    p.add_argument("--reconnect", type=int, default=5, metavar="N",
                   help="consecutive failed (re)connection attempts "
                        "before giving up (exponential backoff with "
                        "jitter between attempts; 0 = fail immediately)")
    p.add_argument("--backoff", type=float, default=0.5, metavar="SECONDS",
                   help="base reconnect backoff (doubles per attempt)")
    p.add_argument("--backoff-max", type=float, default=15.0,
                   metavar="SECONDS", help="reconnect backoff ceiling")
    p.add_argument("--max-batch", type=int, default=16, metavar="K",
                   help="lease up to K cells per round trip (one "
                        "heartbeat covers the batch); auto-tuned down "
                        "from an EWMA of cell wall time so a batch "
                        "targets --batch-target seconds. 1 = one cell "
                        "per lease")
    p.add_argument("--batch-target", type=float, default=5.0,
                   metavar="SECONDS",
                   help="wall-clock a leased batch should amount to "
                        "(capped by the coordinator's lease duration)")
    p.set_defaults(fn=cmd_worker)

    p = subs.add_parser(
        "farm",
        help="run and drive the persistent multi-tenant experiment farm "
             "(serve/submit/attach/cancel/status)",
    )
    farm_subs = p.add_subparsers(dest="farm_command", required=True)

    ps = farm_subs.add_parser(
        "serve",
        help="host a persistent coordinator: named sweeps are submitted "
             "with 'farm submit', workers pull from every live sweep "
             "(fair-share by priority), results land in per-sweep "
             "stores under --store-dir",
    )
    ps.add_argument("listen", metavar="[HOST:]PORT",
                    help="listen address; HOST defaults to 0.0.0.0")
    ps.add_argument("--store-dir", required=True, metavar="DIR",
                    help="directory for per-sweep result stores "
                         "(<name>.jsonl) and the farm journal")
    _host_args(ps, "coordinator")
    # distributed.DEFAULT_MAX_REQUEUES, written out so that building the
    # parser imports no farm module (tests/test_cli.py pins the two).
    ps.add_argument("--max-requeues", type=int, default=5, metavar="N",
                    help="times a cell may be re-served after lease "
                         "expiry before it is recorded as lost")
    ps.set_defaults(fn=cmd_farm_serve)

    ps = farm_subs.add_parser(
        "submit",
        help="register a named sweep on a running farm (idempotent: "
             "re-submitting the same name+spec attaches to the live "
             "sweep; same name, different spec is refused)",
    )
    # --timeout is the per-cell budget here, an axis flag.
    _client_args(ps, "farm coordinator", deadline="--rpc-timeout")
    ps.add_argument("--name", required=True, metavar="NAME",
                    help="sweep name (letters, digits, . _ -); also "
                         "names the store file <name>.jsonl")
    ps.add_argument("--priority", type=int, default=0,
                    help="fair-share priority; higher drains first")
    _sweep_axis_args(ps)
    ps.set_defaults(fn=cmd_farm_submit)

    ps = farm_subs.add_parser(
        "attach",
        help="follow one sweep's progress until it finishes (exit 0 "
             "clean, 1 on lost cells or cancellation)",
    )
    _client_args(ps, "farm coordinator")
    ps.add_argument("--name", required=True, metavar="NAME")
    ps.add_argument("--poll", type=float, default=2.0, metavar="SECONDS",
                    help="progress poll interval; 0 = print one "
                         "snapshot and exit")
    ps.set_defaults(fn=cmd_farm_attach)

    ps = farm_subs.add_parser(
        "cancel",
        help="cancel a named sweep: pending cells are dropped, leased "
             "cells are revoked at the next heartbeat; its store keeps "
             "already-recorded results",
    )
    _client_args(ps, "farm coordinator")
    ps.add_argument("--name", required=True, metavar="NAME")
    ps.set_defaults(fn=cmd_farm_cancel)

    ps = farm_subs.add_parser(
        "status",
        help="live queue counts, per-worker heartbeat ages, per-sweep "
             "pending/leased/done, cells/s, eta (read-only; never "
             "leases or disturbs the sweeps)",
    )
    _client_args(ps, "coordinator")
    ps.set_defaults(fn=cmd_farm_status)

    p = subs.add_parser(
        "report",
        help="aggregate sweep results: mean ± CI per size and fitted "
             "messages-vs-n growth exponents per (family, method)",
    )
    p.add_argument("--results", "--store", dest="results", nargs="+",
                   default=["results.jsonl"], metavar="PATH",
                   help="JSON-lines store(s) written by 'repro sweep' / "
                        "the farm; accepts multiple paths and globs "
                        "(quote them), e.g. --store 'stores/*.jsonl'")
    p.add_argument("--json", action="store_true")
    p.add_argument("--bench-out", default=None, metavar="PATH",
                   help="also write a BENCH_engine.json perf artifact")
    p.set_defaults(fn=cmd_report)

    p = subs.add_parser("lowerbound",
                        help="Section 2 crossing experiment")
    p.add_argument("--t", type=int, default=6)
    p.add_argument("--problem", default="coloring",
                   choices=("coloring", "mis"))
    p.add_argument("--budget", type=int, default=0,
                   help="probe budget per node (0 = silent)")
    p.add_argument("--sample", type=int, default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_lowerbound)

    p = subs.add_parser("cycles", help="Theorem 2.17 mute-cycle sweep")
    p.add_argument("--cycles", type=int, default=20)
    p.add_argument("--k", type=int, default=12)
    p.add_argument("--fractions", type=float, nargs="+",
                   default=[0.0, 0.5, 0.9, 1.0])
    p.add_argument("--trials", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_cycles)

    p = subs.add_parser(
        "profile",
        help="cProfile one sweep cell (top cumulative entries)",
    )
    _graph_args(p)
    p.add_argument("--method", default="kt1-delta-plus-one",
                   choices=api.method_names(), metavar="METHOD",
                   help="any sweep method (coloring or MIS)")
    p.add_argument("--engine", default="sync", choices=ENGINES)
    p.add_argument("--latency", default="uniform", choices=LATENCY_MODELS)
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--top", type=int, default=20,
                   help="how many profile rows to print")
    p.add_argument("--full-stats", action="store_true",
                   help="profile the full-accounting path instead of "
                        "stats-lite")
    p.set_defaults(fn=cmd_profile)

    p = subs.add_parser(
        "serve",
        help="host the coloring/MIS query service: per-request "
             "deadlines with degraded-mode fallback, bounded queue "
             "with load-shedding, supervised solver subprocesses, "
             "LRU result cache, graceful drain on SIGTERM "
             "(docs/serving.md)",
    )
    p.add_argument("listen", metavar="[HOST:]PORT",
                   help="address to listen on (HOST defaults to "
                        "0.0.0.0; PORT 0 picks a free port)")
    p.add_argument("--solvers", type=int, default=2,
                   help="concurrent solver subprocesses")
    p.add_argument("--max-pending", type=int, default=8,
                   help="queries allowed to wait beyond the solver "
                        "slots; past this, new queries are shed with "
                        "an 'overloaded' response")
    p.add_argument("--cache-size", type=int, default=128,
                   help="LRU result-cache entries (0 disables)")
    p.add_argument("--deadline", type=float, default=30.0,
                   metavar="SECONDS",
                   help="default per-query deadline (queries may set "
                        "their own); past it the solver child is "
                        "killed and a degraded greedy answer returned")
    p.add_argument("--grace", type=float, default=2.0, metavar="SECONDS",
                   help="extra allowance past a deadline for the "
                        "degraded fallback to be computed and sent")
    p.add_argument("--status-interval", type=float, default=30.0,
                   metavar="SECONDS",
                   help="print a one-line health summary this often "
                        "(0 disables)")
    p.add_argument("--stats-out", default=None, metavar="PATH",
                   help="periodically write the status snapshot as "
                        "JSON (atomic rename), for dashboards")
    p.set_defaults(fn=cmd_serve)

    p = subs.add_parser(
        "query",
        help="send one coloring/MIS query to a 'repro serve' server",
    )
    _graph_args(p)
    _client_args(p, "query server", with_json=False)  # _graph_args has it
    p.add_argument("--problem", default="coloring",
                   choices=("coloring", "mis"))
    p.add_argument("--method", default=None, metavar="METHOD",
                   help="solver method (default: the problem's "
                        "kt-native method)")
    p.add_argument("--epsilon", type=float, default=0.5)
    p.add_argument("--deadline", type=float, default=None,
                   metavar="SECONDS",
                   help="per-query deadline (default: the server's); "
                        "an over-deadline solve returns degraded=true")
    p.add_argument("--send-path", action="store_true",
                   help="with --graph-file: send the path for the "
                        "server to load, instead of inlining edges")
    p.set_defaults(fn=cmd_query)

    p = subs.add_parser(
        "serve-status",
        help="read-only health probe of a running query server "
             "(queries/s, p50/p99, cache hit rate, shed/degraded/"
             "error counts)",
    )
    _client_args(p, "query server")
    p.set_defaults(fn=cmd_serve_status)

    p = subs.add_parser("info", help="model constants for a graph")
    _graph_args(p)
    p.set_defaults(fn=cmd_info)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        command = " ".join(filter(None, (
            args.command, getattr(args, "farm_command", None))))
        print(f"{command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
