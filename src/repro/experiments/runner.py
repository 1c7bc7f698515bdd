"""Cell execution, serially or in supervised warm children.

``run_cell`` is the unit of work: build the cell's graph (or reuse the
previous cell's, when it names the same one), run its method under the
requested engine, and return a flat JSON-serializable record.
``run_sweep`` drives a whole :class:`~repro.experiments.spec.SweepSpec`
serially in-process (``workers <= 1``) or in supervised children,
appending each record to a :class:`~repro.experiments.store.ResultStore`
as it completes and skipping cells the store already holds.

Supervised cells: a sweep with ``workers > 1`` or a ``timeout_s`` runs
its cells in warm, reusable child processes (:mod:`repro.supervise`, at
most ``workers`` at once).  A child is replaced only when it is killed,
crashes, misses a deadline or has grown past
``supervise.MAX_WARM_GROWTH_MB``, and runs one cyclic GC after each
cell; the heap a child inherits at fork is frozen, so that GC walks only
the child's own objects.  A cell still running at its
deadline has its child killed — the other in-flight cells are
unaffected — is retried up to ``retries`` times, and is finally
recorded with ``status="timeout"`` (``valid=False``).
Aggregation (:mod:`repro.experiments.stats`) excludes non-``ok`` records
from exponent fits, and :meth:`ResultStore.completed_keys` omits them
from the resume set so a re-run attempts them again.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Optional

from repro import api
from repro.experiments.spec import Cell, SweepSpec, check_knob_readers
from repro.experiments.store import ResultStore
from repro.graphs.core import Graph
from repro.graphs.generators import family_built_n, family_graph
from repro.supervise import Outcome, Supervisor, Task, spawn_child

#: The previous cell's graph, as ``((family, n, density, seed), graph)``
#: -- the full argument list of ``family_graph``.  A graph-major plan
#: (:meth:`SweepSpec.cells`) runs a graph's sibling cells back to back,
#: so one slot is enough for a process to build each graph once per run
#: of siblings.  Sharing is sound because a ``Graph`` is immutable.
_last_graph: Optional[tuple[tuple, Graph]] = None


def _cell_graph(cell: Cell) -> tuple[Graph, float]:
    """The cell's input graph and the seconds spent building it (0.0
    when the previous cell already built it)."""
    global _last_graph
    key = (cell.family, cell.n, cell.density, cell.seed)
    if _last_graph is not None and _last_graph[0] == key:
        return _last_graph[1], 0.0
    # Emptied before the build, filled only after it succeeds: a build
    # that raises leaves no entry, and the old graph is not kept alive
    # while the new one is built.
    _last_graph = None
    t0 = time.perf_counter()
    # Looked up on the module at call time, so a wrapped
    # ``runner.family_graph`` sees every real build.
    graph = family_graph(cell.family, cell.n, p=cell.density,
                         seed=cell.seed)
    _last_graph = (key, graph)
    return graph, time.perf_counter() - t0


def run_cell(cell: Cell) -> dict:
    """Execute one sweep cell and return its result record.

    The record is flat and JSON-serializable: identity fields (key,
    family, n, seed, method, engine, latency — ``None`` for sync cells),
    the graph's m, the accounting (messages, words, rounds, utilized —
    ``None`` in stats-lite mode), validity, ``status="ok"``, timings,
    and the method's extras (:attr:`repro.api.Method.extras`: Lemma 3.2
    levels, Lemma 3.7 query traffic, remnant degrees, ...).
    ``wall_s`` covers the whole cell from before the graph lookup;
    ``graph_s`` is the part of it spent building the graph, 0.0 when
    the cell reused the previous cell's graph (same ``(family, n,
    density, seed)``, see :func:`_cell_graph`).
    Async cells additionally carry the shadow synchronous baseline and
    the cost-of-asynchrony columns (``sync_messages``, ``sync_rounds``,
    ``overhead_messages``, ``overhead_rounds``,
    ``synchronized_stages``).
    """
    entry = cell.entry
    if cell.sample_constant is not None:
        # SweepSpec refuses this at construction; a hand-built Cell
        # gets the same answer.
        check_knob_readers("sample_constant", (cell.method,))
    t0 = time.perf_counter()
    graph, graph_s = _cell_graph(cell)
    asynchronous = cell.engine == "async"
    # The columnar engine is the sync semantics on the numpy scheduler:
    # identical counts (parity contract), different wall clock.
    scheduler = "columnar" if cell.engine == "columnar" else None
    # Knobs left at None keep the method's default.
    knobs = {name: getattr(cell, name) for name in entry.knobs
             if getattr(cell, name) is not None}
    coloring = entry.problem == "coloring"
    try:
        result = (api.color_graph if coloring else api.find_mis)(
            graph,
            method=cell.method,
            seed=cell.seed,
            asynchronous=asynchronous,
            latency=cell.latency,
            collect_utilization=cell.collect_utilization,
            faults=cell.faults,
            scheduler=scheduler,
            **knobs,
        )
    except Exception as exc:
        if cell.faults == "none":
            raise
        # A multi-stage driver may legitimately break when the fault
        # model eats its control messages (that fragility is a finding,
        # not a crash): record it as an error cell and keep sweeping.
        return _failure_record(
            cell, "error", wall_s=time.perf_counter() - t0,
            error=repr(exc),
        )
    extra = ({"colors": result.num_colors,
              "palette_bound": result.palette_bound} if coloring
             else {"mis_size": result.size})
    extra.update((column, getattr(result.detail, attr))
                 for column, attr in entry.extras.items())
    report = result.report
    record = {
        **_identity(cell, graph.n),
        "m": graph.m,
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
        "graph_s": round(graph_s, 6),
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


def _identity(cell: Cell, n: int) -> dict:
    """The fields that say which cell a record measures.

    ``n`` is the *built* graph's size: families that quantize the vertex
    count (expander fibers, barbell halves) would otherwise feed exponent
    fits a systematically wrong x-coordinate, and an ok and a failure
    record for one key would disagree on it.
    """
    return {
        "key": cell.key(),
        "family": cell.family,
        "n": n,
        "seed": cell.seed,
        "method": cell.method,
        "engine": cell.engine,
        "latency": cell.latency if cell.engine == "async" else None,
        "density": cell.density,
        "epsilon": cell.epsilon,
        # None (not "none") when fault-free, pooling with records from
        # stores written before the fault axis existed (WORKLOAD_KEYS
        # groups missing fields under None).
        "faults": cell.faults if cell.faults != "none" else None,
    }


def _failure_record(cell: Cell, status: str, wall_s: float = 0.0,
                    attempts: int = 1,
                    error: Optional[str] = None) -> dict:
    """A record for a cell that produced no measurement; its n is the
    one the family would build (:func:`family_built_n`)."""
    rec = {
        **_identity(cell, family_built_n(cell.family, cell.n,
                                         cell.density)),
        "valid": False,
        "status": status,
        "attempts": attempts,
        "wall_s": round(wall_s, 6),
    }
    if error is not None:
        rec["error"] = error
    return rec


def _cell_worker(cell: Cell) -> dict:
    """The farm's task: one cell's record, or an error record."""
    try:
        return run_cell(cell)
    except Exception as exc:  # recorded, not raised: one bad cell must
        # not take the whole supervised sweep down.
        return _failure_record(cell, "error", error=repr(exc))


#: The seam that starts one idle warm child (see :mod:`repro.supervise`).
_spawn_cell_process = spawn_child


def _cell_task(cell: Cell, attempt: int) -> Task:
    budget = cell.timeout_s if cell.timeout_s is not None else math.inf
    return Task(_cell_worker, (cell,), budget, tag=attempt)


def _run_cells_with_timeout(
    cells: list[Cell],
    workers: int,
    record: Callable[[dict], None],
    keep: Optional[Callable[[], bool]] = None,
    supervisor: Optional[Supervisor] = None,
) -> bool:
    """Run cells in warm supervised children with per-cell deadlines
    (``inf`` for a cell without a ``timeout_s``).

    At most ``workers`` cells run at once (the ``slots`` of
    ``supervisor`` when one is passed; otherwise a supervisor is made
    for this call and closed at the end).  A child past its cell's
    deadline is killed and the cell re-queued while it has retries
    left; a child that dies yields an error record.  Every record gets
    ``attempts`` (a success on retry 3 must be distinguishable from a
    first-try one); a non-ok record also gets the supervisor's wall
    clock, so a retry failure does not read as a zero-second attempt.

    ``keep`` is the cooperative kill seam, asked on this thread before
    a cell starts and every ``supervise.KEEP_CHECK_S`` while one runs:
    when it returns False every in-flight child is killed, the
    still-pending cells are dropped with nothing recorded for them, and
    the call returns False (True when every cell was recorded).  A
    distributed worker heartbeats its lease from ``keep``, and stops
    burning CPU on a revoked cell whose record would be discarded.
    """
    def settle(task: Task, outcome: Outcome) -> Optional[Task]:
        (cell,), attempt = task.args, task.tag
        if outcome.kind == "ok":
            rec = outcome.reply
            rec["attempts"] = attempt + 1
            if rec.get("status", "ok") != "ok":
                rec["wall_s"] = round(outcome.wall_s, 6)
            record(rec)
        elif outcome.kind == "died":
            record(_failure_record(
                cell, "error", wall_s=outcome.wall_s, attempts=attempt + 1,
                error=f"worker {outcome.error}"))
        elif attempt < cell.retries:
            return _cell_task(cell, attempt + 1)
        else:
            record(_failure_record(cell, "timeout", wall_s=outcome.wall_s,
                                   attempts=attempt + 1))
        return None

    own = supervisor is None
    if own:
        supervisor = Supervisor(_spawn_cell_process, workers)
    try:
        return supervisor.run([_cell_task(c, 0) for c in cells], settle,
                              keep)
    finally:
        if own:
            supervisor.close()


def run_sweep(
    spec: SweepSpec,
    store: Optional[ResultStore] = None,
    workers: int = 0,
    progress: Optional[Callable[[dict, int, int], None]] = None,
) -> list[dict]:
    """Run every cell of ``spec`` not already present in ``store``.

    ``workers <= 1`` runs serially in-process, and a cell that raises
    (outside a fault model) aborts the sweep.  ``workers > 1``, or any
    cell with a ``timeout_s``, runs the cells in supervised warm
    children (:func:`_run_cells_with_timeout`, deadline ``inf`` without
    a ``timeout_s``): every record then carries ``attempts``, and a
    cell that raises becomes a ``status="error"`` record while the rest
    of the sweep goes on.  Cells are independent fixed-seed runs, so
    completion order changes only the stored line order.
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

    if workers > 1 or any(c.timeout_s is not None for c in cells):
        _run_cells_with_timeout(cells, workers, _record)
        return fresh
    for cell in cells:
        _record(run_cell(cell))
    return fresh
