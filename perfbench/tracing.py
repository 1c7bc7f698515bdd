"""Outside-in span recorder for the traced benchmark run.

The wrappers here are installed from the benchmark's own files around
the public entry points of each layer of ``repro``; the program itself
is not modified.  A span records its name, start, end, parent span, the
process and thread it ran in, and an optional correlation id (a cell
key).  Spans stay in memory; each process writes its own file
(``spans-<pid>.jsonl``) when it ends.

Processes forked while a span is open (farm cell children, serving
solver children) inherit the wrappers.  Their root spans are parented
to the span that was open in the forking thread, so self time can be
computed across the process boundary.  A thread with an empty span
stack is parented to the span open in its process's main thread (the
farm worker runs each cell from a helper thread while the main thread
holds the batch).
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time

#: Spans that only fork: a child forked inside one of them is parented to
#: the enclosing span instead, so the fork call's self time stays the
#: fork cost and the child's work lands under the supervisor.
FORK_TRANSPARENT = frozenset({"runner.spawn", "serve.child_start"})


class Recorder:
    """Per-process span store with a span stack per thread."""

    def __init__(self, out_dir: str | None = None):
        self.out_dir = out_dir
        self.spans: list[dict] = []
        self._pid = os.getpid()
        self._seq = itertools.count()
        self._local = threading.local()
        self._main_stack: list | None = None
        self._inherited: str | None = None
        self._fork_parent: str | None = None
        os.register_at_fork(before=self._before_fork,
                            after_in_child=self._after_fork_in_child)

    # -- stacks and parents ------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.current_thread() is threading.main_thread():
                self._main_stack = stack
        return stack

    def _parent(self, stack: list) -> str | None:
        if stack:
            return stack[-1][0]
        main = self._main_stack
        if main is not None and main is not stack:
            try:
                return main[-1][0]
            except IndexError:
                pass
        return self._inherited

    def _before_fork(self) -> None:
        stack = self._stack()
        parent = None
        for frame in reversed(stack):
            if frame[1] not in FORK_TRANSPARENT:
                parent = frame[0]
                break
        self._fork_parent = parent or self._parent([])

    def _after_fork_in_child(self) -> None:
        self._pid = os.getpid()
        self.spans = []
        self._local = threading.local()
        self._main_stack = None
        self._inherited = self._fork_parent

    # -- recording ---------------------------------------------------------

    def open(self, name: str, rid: str | None = None) -> list:
        stack = self._stack()
        frame = [f"{self._pid}.{next(self._seq)}", name,
                 self._parent(stack), time.monotonic(), rid]
        stack.append(frame)
        return frame

    def close(self, frame: list, attrs: dict | None = None) -> None:
        t1 = time.monotonic()
        stack = self._stack()
        if stack and stack[-1] is frame:
            stack.pop()
        elif frame in stack:
            stack.remove(frame)
        span = {"id": frame[0], "name": frame[1], "parent": frame[2],
                "pid": self._pid, "tid": threading.get_ident(),
                "t0": frame[3], "t1": t1}
        if frame[4] is not None:
            span["rid"] = frame[4]
        if attrs:
            span["a"] = attrs
        self.spans.append(span)

    def span(self, name: str) -> "_SpanContext":
        return _SpanContext(self, name)

    def wrap(self, fn, name: str, rid=None, after=None, before=None):
        """Wrap ``fn`` in a span.

        ``rid(args, kwargs)`` gives the correlation id; ``before(args,
        kwargs)`` returns state handed to ``after(result, state, args,
        kwargs)``, which returns the span's attributes.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            frame = self.open(name, rid(args, kwargs) if rid else None)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                attrs = None
                if after is not None:
                    try:
                        attrs = after(result, state, args, kwargs)
                    except Exception:   # an attribute must never fail a run
                        attrs = None
                self.close(frame, attrs)
        return wrapper

    def flush(self) -> None:
        """Append this process's spans to its file and forget them."""
        if not self.out_dir or not self.spans:
            return
        path = os.path.join(self.out_dir, f"spans-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")
        self.spans = []


class _SpanContext:
    def __init__(self, recorder: Recorder, name: str):
        self._recorder, self._name = recorder, name

    def __enter__(self):
        self._frame = self._recorder.open(self._name)
        return self

    def __exit__(self, *exc):
        self._recorder.close(self._frame)
        return False


def load_spans(out_dir: str) -> list[dict]:
    spans = []
    for entry in sorted(os.listdir(out_dir)):
        if entry.startswith("spans-") and entry.endswith(".jsonl"):
            with open(os.path.join(out_dir, entry), encoding="utf-8") as fh:
                spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


# ---------------------------------------------------------------------------
# Wrapper installation
# ---------------------------------------------------------------------------


def _patch(owner, attr: str, make) -> None:
    original = (owner.__dict__[attr] if isinstance(owner, type)
                else getattr(owner, attr))
    setattr(owner, attr, make(original))


_DRIVERS = {
    "run_algorithm1": "kt1-delta-plus-one",
    "run_luby": "luby",
    "run_algorithm3": "kt2-sampled-greedy",
}


def _install_engine(rec: Recorder) -> None:
    from repro import api
    from repro.congest import columnar
    from repro.congest.async_network import AsyncNetwork
    from repro.congest.network import SyncNetwork
    from repro.congest.runtime import (
        ColumnarRoundScheduler,
        EventScheduler,
        RoundScheduler,
    )
    from repro.experiments import runner

    cell_state = threading.local()

    def _cell_key(args, kwargs):
        cell = args[0] if args else kwargs.get("cell")
        return cell.key() if hasattr(cell, "key") else None

    _patch(runner, "run_cell",
           lambda fn: rec.wrap(fn, "runner.run_cell", rid=_cell_key))
    _patch(runner, "family_graph", lambda fn: rec.wrap(fn, "graphs.build"))

    def _numpy(fn):
        traced = rec.wrap(fn, "runner.numpy_import")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if columnar._STATE["mod"] is columnar._UNSET:
                return traced(*args, **kwargs)
            return fn(*args, **kwargs)
        return wrapper
    _patch(columnar, "get_numpy", _numpy)

    for cls in (SyncNetwork, AsyncNetwork):
        _patch(cls, "__init__",
               lambda fn: rec.wrap(fn, "congest.network.init"))

    def _stage_attrs(result, state, args, kwargs):
        return {"stage": result.name, "msgs": result.stats.messages}
    _patch(SyncNetwork, "run",
           lambda fn: rec.wrap(fn, "congest.network.run",
                               after=_stage_attrs))

    def _msgs_before(args, kwargs):
        return args[0].net.stats.messages

    def _msgs_after(result, before, args, kwargs):
        return {"msgs": args[0].net.stats.messages - before}

    for cls, kind in ((RoundScheduler, "rounds"),
                      (ColumnarRoundScheduler, "columnar"),
                      (EventScheduler, "event")):
        _patch(cls, "run_stage",
               lambda fn, kind=kind: rec.wrap(
                   fn, f"congest.runtime.stage.{kind}",
                   before=_msgs_before, after=_msgs_after))

    def _engines(fn):
        @functools.wraps(fn)
        def wrapper(build, drive, asynchronous, *args, **kwargs):
            previous = getattr(cell_state, "asynchronous", False)
            cell_state.asynchronous = asynchronous
            try:
                return fn(build, drive, asynchronous, *args, **kwargs)
            finally:
                cell_state.asynchronous = previous
        return wrapper
    _patch(api, "_run_engines", _engines)

    def _driver(fn, method):
        def wrapper(net, *args, **kwargs):
            shadow = (getattr(cell_state, "asynchronous", False)
                      and not isinstance(net, AsyncNetwork))
            name = method
            if method is None:      # run_baseline_coloring(net, kind)
                kind = args[0] if args else kwargs.get("kind")
                name = f"baseline-{kind}"
            frame = rec.open(f"driver.{name}")
            try:
                return fn(net, *args, **kwargs)
            finally:
                rec.close(frame, {"shadow": True} if shadow else None)
        return functools.wraps(fn)(wrapper)

    for attr, method in _DRIVERS.items():
        _patch(api, attr, lambda fn, method=method: _driver(fn, method))
    _patch(api, "run_baseline_coloring", lambda fn: _driver(fn, None))
    for attr in ("coloring_violations", "mis_violations"):
        _patch(api, attr, lambda fn: rec.wrap(fn, "api.verify"))
    for attr in ("color_graph", "find_mis"):
        _patch(api, attr, lambda fn: rec.wrap(fn, "api.solve"))


def _install_cells(rec: Recorder) -> None:
    from repro.experiments import distributed, runner

    def _first_key(args, kwargs):
        cells = args[0] if args else kwargs.get("cells")
        return cells[0].key() if cells else None

    _patch(distributed, "_run_cells_with_timeout",
           lambda fn: rec.wrap(fn, "runner.supervise", rid=_first_key))
    _patch(runner, "_spawn_cell_process",
           lambda fn: rec.wrap(fn, "runner.spawn"))
    _patch(runner, "_cell_worker",
           lambda fn: _flushing(rec, rec.wrap(fn, "runner.child")))


def _install_worker(rec: Recorder) -> None:
    from repro.experiments import distributed

    for attr in ("_run_leased_batch", "_run_leased_cell"):
        _patch(distributed, attr, lambda fn: rec.wrap(fn, "farm.batch"))
    _patch(distributed, "_recv_msg", lambda fn: rec.wrap(fn, "farm.rpc"))


def _install_coordinator(rec: Recorder) -> None:
    from repro.experiments.distributed import Coordinator, QueueJournal

    def _leased(result, state, args, kwargs):
        return {"cells": len(result[1]) if result else 0}

    _patch(Coordinator, "lease_cells",
           lambda fn: rec.wrap(fn, "farm.lease", after=_leased))
    _patch(Coordinator, "submit", lambda fn: rec.wrap(fn, "farm.submit"))
    for attr in ("write", "write_farm"):
        _patch(QueueJournal, attr, lambda fn: rec.wrap(fn, "farm.journal"))


class _TimedSlots:
    """The admission semaphore, with every acquire recorded as a wait."""

    def __init__(self, slots, rec: Recorder):
        self._slots, self._rec = slots, rec

    def acquire(self, *args, **kwargs):
        with self._rec.span("serve.admission_wait"):
            return self._slots.acquire(*args, **kwargs)

    def release(self, *args, **kwargs):
        return self._slots.release(*args, **kwargs)


def _install_server(rec: Recorder) -> None:
    from repro import serving

    def _answer(result, state, args, kwargs):
        if not isinstance(result, dict):
            return None
        return {"type": result.get("type"),
                "cached": bool(result.get("cached")),
                "degraded": bool(result.get("degraded")),
                "attempts": result.get("attempts", 1)}

    _patch(serving.QueryServer, "handle_query",
           lambda fn: rec.wrap(fn, "serve.handle", after=_answer))
    _patch(serving, "_request_graph", lambda fn: rec.wrap(fn, "graphs.build"))
    _patch(serving, "is_connected",
           lambda fn: rec.wrap(fn, "graphs.connected"))
    _patch(serving, "request_fingerprint",
           lambda fn: rec.wrap(fn, "serve.fingerprint"))
    _patch(serving, "supervised_solve",
           lambda fn: rec.wrap(fn, "serve.supervise"))
    _patch(serving, "degraded_answer",
           lambda fn: rec.wrap(fn, "serve.degrade"))
    _patch(serving, "send_msg", lambda fn: rec.wrap(fn, "serve.encode"))
    _patch(serving, "_solver_child",
           lambda fn: _flushing(rec, rec.wrap(fn, "serve.child")))

    def _init(fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            spawn = kwargs.pop("spawn", serving._spawn_solver_process)
            fn(self, *args, spawn=rec.wrap(spawn, "serve.child_start"),
               **kwargs)
            self._slots = _TimedSlots(self._slots, rec)
        return wrapper
    _patch(serving.QueryServer, "__init__", _init)


def _flushing(rec: Recorder, fn):
    """A forked child's entry point: it leaves through ``os._exit``, so
    it writes its spans itself on the way out."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        finally:
            rec.flush()
    return wrapper


_INSTALLERS = {
    "engine": _install_engine,
    "cells": _install_cells,
    "worker": _install_worker,
    "coordinator": _install_coordinator,
    "server": _install_server,
}


def install(rec: Recorder, groups) -> None:
    """Install the wrappers of ``groups``: each process installs the
    groups whose code it runs (see ``_INSTALLERS``)."""
    for group in groups:
        _INSTALLERS[group](rec)
