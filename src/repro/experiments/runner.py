"""Cell execution and the multiprocessing worker pool.

``run_cell`` is the unit of work: build the cell's graph, run its method
under the requested engine, and return a flat JSON-serializable record.
``run_sweep`` drives a whole :class:`~repro.experiments.spec.SweepSpec`
through a ``multiprocessing`` pool (or serially for ``workers <= 1``),
appending each record to a :class:`~repro.experiments.store.ResultStore`
as it completes and skipping cells the store already holds.

Timeouts: a spec with ``timeout_s`` runs each cell in its own worker
process supervised by a small process farm (at most ``workers`` alive at
once).  A cell still running at its deadline is terminated — the farm and
the other in-flight cells are unaffected — retried up to ``retries``
times, and finally recorded with ``status="timeout"`` (``valid=False``).
Aggregation (:mod:`repro.experiments.stats`) excludes non-``ok`` records
from exponent fits, and :meth:`ResultStore.completed_keys` omits them
from the resume set so a re-run attempts them again.
"""

from __future__ import annotations

import math
import multiprocessing
import threading
import time
from collections import deque
from typing import Callable, Optional

from repro import api
from repro.errors import ReproError
from repro.experiments.spec import Cell, SweepSpec
from repro.experiments.store import ResultStore
from repro.graphs.generators import family_built_n, family_graph


def _method_extras(cell: Cell, result) -> dict:
    """Method-specific detail columns for the result record.

    These are the paper-specific quantities the hand-rolled benchmark
    sweeps used to re-derive (Lemma 3.2 recursion levels, deferral
    counts, Lemma 3.7 query traffic, Konrad-Lemma-1 remnant degrees);
    surfacing them here lets those benchmarks run through ``run_cell``
    instead.
    """
    detail = result.detail
    if cell.method == "kt1-delta-plus-one":
        return {"levels": detail.num_levels,
                "deferred": detail.deferred_total}
    if cell.method == "kt1-eps-delta":
        return {"phases": detail.phases,
                "queries": detail.query_messages,
                "palette": detail.palette_size}
    if cell.method == "kt2-sampled-greedy":
        return {"sampled": detail.sampled,
                "remnant_deg": detail.remnant_max_degree_local,
                "remnant_size": detail.remnant_size}
    return {}


def run_cell(cell: Cell) -> dict:
    """Execute one sweep cell and return its result record.

    The record is flat and JSON-serializable: identity fields (key,
    family, n, seed, method, engine, latency — ``None`` for sync cells),
    the graph's m, the accounting (messages, words, rounds, utilized —
    ``None`` in stats-lite mode), validity, ``status="ok"``, wall-clock
    seconds, and method-specific extras (see :func:`_method_extras`).
    Async cells additionally carry the shadow synchronous baseline and
    the cost-of-asynchrony columns (``sync_messages``, ``sync_rounds``,
    ``overhead_messages``, ``overhead_rounds``,
    ``synchronized_stages``).
    """
    if (cell.sample_constant is not None
            and cell.method != "kt2-sampled-greedy"):
        # SweepSpec rejects this at construction; a hand-built Cell gets
        # the same answer instead of a mislabeled record whose key
        # claims a knob the method never saw.
        raise ReproError(
            "sample_constant only applies to kt2-sampled-greedy, "
            f"not {cell.method!r}"
        )
    t0 = time.perf_counter()
    graph = family_graph(cell.family, cell.n, p=cell.density,
                         seed=cell.seed)
    asynchronous = cell.engine == "async"
    # The columnar engine is the sync semantics on the numpy scheduler:
    # identical counts (parity contract), different wall clock.
    scheduler = "columnar" if cell.engine == "columnar" else None
    faulted = cell.faults != "none"
    try:
        if cell.problem == "coloring":
            result = api.color_graph(
                graph,
                method=cell.method,
                seed=cell.seed,
                epsilon=cell.epsilon,
                asynchronous=asynchronous,
                latency=cell.latency,
                collect_utilization=cell.collect_utilization,
                faults=cell.faults,
                scheduler=scheduler,
            )
            extra = {"colors": result.num_colors,
                     "palette_bound": result.palette_bound}
        else:
            mis_kwargs = {}
            if cell.sample_constant is not None:
                mis_kwargs["sample_constant"] = cell.sample_constant
            result = api.find_mis(
                graph,
                method=cell.method,
                seed=cell.seed,
                asynchronous=asynchronous,
                latency=cell.latency,
                collect_utilization=cell.collect_utilization,
                faults=cell.faults,
                scheduler=scheduler,
                **mis_kwargs,
            )
            extra = {"mis_size": result.size}
    except Exception as exc:
        if not faulted:
            raise
        # A multi-stage driver may legitimately break when the fault
        # model eats its control messages (that fragility is a finding,
        # not a crash): record it as an error cell and keep sweeping.
        return _failure_record(
            cell, "error", wall_s=time.perf_counter() - t0,
            error=repr(exc),
        )
    extra.update(_method_extras(cell, result))
    report = result.report
    record = {
        "key": cell.key(),
        "family": cell.family,
        # The *built* graph's size: families that quantize the vertex
        # count (expander fibers, barbell halves) would otherwise feed
        # exponent fits a systematically wrong x-coordinate.
        "n": graph.n,
        "m": graph.m,
        "seed": cell.seed,
        "method": cell.method,
        "engine": cell.engine,
        "latency": cell.latency if asynchronous else None,
        "density": cell.density,
        "epsilon": cell.epsilon,
        # None (not "none") when fault-free, pooling with records from
        # stores written before the fault axis existed (WORKLOAD_KEYS
        # groups missing fields under None).
        "faults": cell.faults if faulted else None,
        "messages": report.messages,
        "rounds": report.rounds,
        "utilized": (report.utilized_edges
                     if cell.collect_utilization else None),
        "valid": result.valid,
        # Fault columns ride every record (all-zero on the fault-free
        # path); survivor_valid is None when fault-free — plain validity
        # already covered every node.
        "dropped_messages": report.dropped_messages,
        "crashed_nodes": report.crashed_nodes,
        "casualties": len(report.casualty_vertices),
        "survivor_valid": report.survivor_valid,
        "status": "ok",
        "wall_s": round(time.perf_counter() - t0, 6),
        # Diagnostic only (never part of count identity): where the
        # engine spent its time, per protocol stage.
        "stage_wall": {name: round(w, 6)
                       for name, w in report.stage_wall.items()},
    }
    if cell.sample_constant is not None:
        record["sample_constant"] = cell.sample_constant
    if asynchronous:
        record["sync_messages"] = report.sync_messages
        record["sync_rounds"] = report.sync_rounds
        record["overhead_messages"] = report.overhead_messages
        record["overhead_rounds"] = report.overhead_rounds
        record["synchronized_stages"] = report.synchronized_stages
    record.update(extra)
    return record


def _failure_record(cell: Cell, status: str, wall_s: float = 0.0,
                    attempts: int = 1,
                    error: Optional[str] = None) -> dict:
    """A record for a cell that produced no measurement."""
    rec = {
        "key": cell.key(),
        "family": cell.family,
        # Same convention as run_cell: the n the family would *build*
        # (expander fibers, barbell arithmetic quantize the request), so
        # ok and failure records for one key never disagree on n.
        "n": family_built_n(cell.family, cell.n, cell.density),
        "seed": cell.seed,
        "method": cell.method,
        "engine": cell.engine,
        "latency": cell.latency if cell.engine == "async" else None,
        "density": cell.density,
        "epsilon": cell.epsilon,
        "faults": cell.faults if cell.faults != "none" else None,
        "valid": False,
        "status": status,
        "attempts": attempts,
        "wall_s": round(wall_s, 6),
    }
    if error is not None:
        rec["error"] = error
    return rec


def _cell_worker(conn, cell: Cell) -> None:
    """Farm worker: run one cell, ship the record (or an error record)."""
    try:
        record = run_cell(cell)
    except Exception as exc:  # recorded, not raised: one bad cell must
        # not take the whole supervised sweep down.
        record = _failure_record(cell, "error", error=repr(exc))
    try:
        conn.send(record)
    finally:
        conn.close()


def _spawn_cell_process(cell: Cell):
    """Start a single-cell worker process; returns ``(proc, recv_conn)``.

    A seam: the farm races (deadline vs completion, retry interleavings)
    are nondeterministic with real processes, so tests substitute
    scripted process/connection fakes here to drive them exactly.
    """
    recv_conn, send_conn = multiprocessing.Pipe(duplex=False)
    proc = multiprocessing.Process(
        target=_cell_worker, args=(send_conn, cell), daemon=True
    )
    proc.start()
    send_conn.close()
    return proc, recv_conn


def _stamp_attempts(rec: dict, attempt: int, now: float,
                    t0: float) -> dict:
    """Stamp the supervisor's attempt count on a farm record.

    Every record gets ``attempts`` — a cell that succeeded on retry 3
    must be distinguishable from a first-try success (flaky-workload
    triage, and `repro report` surfaces it).  The worker cannot know
    which attempt it was; for non-ok records the supervisor's wall clock
    also replaces the worker's, so a retry failure is not misreported as
    a zero-second first attempt.
    """
    rec["attempts"] = attempt + 1
    if rec.get("status", "ok") != "ok":
        rec["wall_s"] = round(now - t0, 6)
    return rec


def _last_drain(conn, attempt: int, now: float,
                t0: float) -> Optional[dict]:
    """A record still waiting in the pipe, or None."""
    if not conn.poll():
        return None
    try:
        return _stamp_attempts(conn.recv(), attempt, now, t0)
    except EOFError:
        return None


def _run_cells_with_timeout(
    cells: list[Cell],
    workers: int,
    record: Callable[[dict], None],
    poll_interval: float = 0.02,
    cancel: Optional[threading.Event] = None,
) -> None:
    """Process farm with per-cell deadlines.

    Keeps at most ``workers`` single-cell processes alive; a process past
    its cell's deadline is terminated (the farm keeps running) and the
    cell is re-queued while it has retries left.

    ``cancel`` is the cooperative kill seam: setting it terminates every
    in-flight child process, drops the still-pending cells, and returns
    without recording anything for them.  A distributed worker whose
    lease was revoked (heartbeat answered ``gone``) uses this to stop
    burning CPU on a cell whose record would be discarded anyway.
    """
    workers = max(1, workers)
    pending: deque[tuple[Cell, int]] = deque((c, 0) for c in cells)
    running: list[list] = []   # [proc, conn, cell, attempt, deadline, t0]
    while pending or running:
        if cancel is not None and cancel.is_set():
            for proc, conn, *_ in running:
                proc.terminate()
                proc.join()
                conn.close()
            return
        while pending and len(running) < workers:
            cell, attempt = pending.popleft()
            proc, recv_conn = _spawn_cell_process(cell)
            t0 = time.monotonic()
            budget = cell.timeout_s if cell.timeout_s is not None else math.inf
            running.append([proc, recv_conn, cell, attempt, t0 + budget, t0])
        now = time.monotonic()
        progressed = False
        still: list[list] = []
        for item in running:
            proc, conn, cell, attempt, deadline, t0 = item
            if conn.poll():
                try:
                    rec = _stamp_attempts(conn.recv(), attempt, now, t0)
                except EOFError:
                    rec = _failure_record(
                        cell, "error", wall_s=now - t0,
                        attempts=attempt + 1, error="worker died mid-send",
                    )
                conn.close()
                proc.join()
                record(rec)
                progressed = True
            elif not proc.is_alive():
                # One last drain: the child may have sent its record and
                # exited between the poll above and the liveness check.
                rec = _last_drain(conn, attempt, now, t0)
                conn.close()
                proc.join()
                record(rec or _failure_record(
                    cell, "error", wall_s=now - t0, attempts=attempt + 1,
                    error=f"worker exited with code {proc.exitcode} "
                          "without a result",
                ))
                progressed = True
            elif now >= deadline:
                # Drain one last time before killing: the cell may have
                # finished in the window between the poll above and this
                # deadline check.  Discarding that record would re-queue
                # a *completed* cell, and the retry's duplicate ok line
                # for the same key would inflate per-size run counts.
                rec = _last_drain(conn, attempt, now, t0)
                proc.terminate()
                proc.join()
                conn.close()
                if rec is not None:
                    record(rec)
                elif attempt < cell.retries:
                    pending.append((cell, attempt + 1))
                else:
                    record(_failure_record(
                        cell, "timeout", wall_s=now - t0,
                        attempts=attempt + 1,
                    ))
                progressed = True
            else:
                still.append(item)
        running = still
        if not progressed and running:
            time.sleep(poll_interval)


def run_sweep(
    spec: SweepSpec,
    store: Optional[ResultStore] = None,
    workers: int = 0,
    progress: Optional[Callable[[dict, int, int], None]] = None,
) -> list[dict]:
    """Run every cell of ``spec`` not already present in ``store``.

    ``workers <= 1`` runs serially in-process; otherwise a
    ``multiprocessing.Pool`` of that many workers executes cells
    concurrently (cells are independent fixed-seed runs, so completion
    order does not affect the stored results beyond line order).
    Specs with a ``timeout_s`` instead run under the supervised process
    farm (:func:`_run_cells_with_timeout`), which can kill and retry
    individual cells without poisoning the rest of the sweep.
    Returns the newly produced records; previously stored cells are
    skipped, which is what makes an interrupted sweep resumable.
    """
    done = store.completed_keys() if store is not None else set()
    cells = [c for c in spec.cells() if c.key() not in done]
    total = len(cells)
    fresh: list[dict] = []

    def _record(rec: dict) -> None:
        fresh.append(rec)
        if store is not None:
            store.append(rec)
        if progress is not None:
            progress(rec, len(fresh), total)

    if any(c.timeout_s is not None for c in cells):
        _run_cells_with_timeout(cells, workers, _record)
        return fresh

    if workers <= 1 or total <= 1:
        for cell in cells:
            _record(run_cell(cell))
        return fresh

    with multiprocessing.Pool(processes=min(workers, total)) as pool:
        for rec in pool.imap_unordered(run_cell, cells):
            _record(rec)
    return fresh
