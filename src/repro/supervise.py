"""One supervisor for the child processes that run cells and queries.

Children are **warm**: one runs a task, sends back the task function's
return value, runs one cyclic GC and waits for the next task, so numpy
and the engine are imported once per child.  A child freezes the heap
it inherited at fork (``gc.freeze``), so that collection walks only the
objects the child made itself.  A child is replaced only when killed
at a deadline or by its caller's ``keep`` callback, or dead, or when
its peak RSS has grown by more than :data:`MAX_WARM_GROWTH_MB` since it
was forked (the heap a large task reaches stays with the process);
children are forked lazily.  The loop sleeps on the reply pipes and
process sentinels; a reply already in the pipe at a deadline or death
wins (the *last drain*).  Retry policy stays with the callers
(``runner._run_cells_with_timeout``, ``serving.supervised_solve``).
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import resource
import signal
import sys
import threading
import time
from collections import deque
from multiprocessing.connection import wait
from typing import Any, Callable, Iterable, NamedTuple, Optional

#: Longest the loop blocks without asking its ``keep`` callback.
KEEP_CHECK_S = 0.05

#: Longest one sleep of the loop: ``connection.wait`` refuses a timeout
#: past about 2**31 ms, so a far deadline is waited for in steps.
_MAX_WAIT_S = 86400.0

#: A child whose peak RSS has grown by more than this since it was forked
#: exits after sending its reply instead of staying warm.  Importing
#: numpy and the engine grows a child by ~15 MB; a query on a graph with
#: ~50k edges grows it by ~70 MB.
MAX_WARM_GROWTH_MB = 64


def _peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


def _child_main(conn, parent_end) -> None:
    """A warm child: run ``(fn, args)`` tasks until the supervisor goes.

    Each reply is ``(fn's return value, keep)``; ``keep`` is False when
    the child is about to exit because it has grown too large.  The
    heap inherited from the parent is frozen first, so the collection
    after each task walks only the child's own objects and still frees
    the task's cyclic garbage.
    """
    gc.freeze()
    parent_end.close()      # else a dead supervisor never reads as EOF
    # Forked from a server that drains on SIGTERM/SIGINT: a stray
    # SIGTERM kills the child, and Ctrl-C is left to its supervisor.
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    limit = _peak_rss_mb() + MAX_WARM_GROWTH_MB
    while True:
        try:
            fn, args = conn.recv()
        except (EOFError, OSError):
            return
        reply = fn(*args)
        del fn, args
        keep = _peak_rss_mb() <= limit
        try:
            conn.send((reply, keep))
        except OSError:
            return
        if not keep:
            return
        del reply
        gc.collect()


def spawn_child():
    """Start one idle warm child; returns ``(proc, conn)``.

    The spawn seam (``runner._spawn_cell_process`` and
    ``serving._spawn_solver_process`` are this function): tests
    substitute scripted children to drive the races exactly.
    """
    conn, child_end = multiprocessing.Pipe()
    proc = multiprocessing.Process(target=_child_main,
                                   args=(child_end, conn), daemon=True)
    proc.start()
    child_end.close()
    return proc, conn


class Task(NamedTuple):
    """``fn(*args)`` in a child (``fn`` picklable by reference), killed
    ``budget_s`` after it starts; ``tag`` is the caller's bookkeeping."""

    fn: Callable
    args: tuple
    budget_s: float = math.inf
    tag: Any = None


class Outcome(NamedTuple):
    """``ok`` (``reply`` is ``fn``'s return value), ``died`` (``error``
    says how) or ``deadline``."""

    kind: str
    reply: Any = None
    wall_s: float = 0.0
    error: Optional[str] = None


class Supervisor:
    """Up to ``slots`` warm children, one task at a time in each.

    Several threads may :meth:`run` at once, sharing the idle children.
    ``spawn()`` starts one idle child and returns ``(proc, conn)``.
    """

    def __init__(self, spawn: Callable[[], tuple] = spawn_child,
                 slots: int = 1):
        self._spawn = spawn
        self.slots = max(1, slots)
        self._lock = threading.Lock()
        self._idle: list[tuple] = []
        self._busy: set[int] = set()
        self._closed = False

    def busy_pids(self) -> list[int]:
        """Pids of the children running a task (never idle ones)."""
        with self._lock:
            return sorted(self._busy)

    def run(self, tasks: Iterable[Task],
            settle: Callable[[Task, Outcome], Optional[Task]],
            keep: Optional[Callable[[], bool]] = None) -> bool:
        """Run ``tasks``, at most ``slots`` at once.

        ``settle(task, outcome)`` sees every finished task and may
        return a retry to queue.  ``keep()`` is asked before any task
        starts and at least every :data:`KEEP_CHECK_S` while tasks run,
        on the calling thread.  When it returns False the running
        children are killed and ``run`` returns False, settling nothing
        more; when it raises they are killed and the exception goes on.
        """
        pending = deque(tasks)
        running: list[list] = []    # [proc, conn, task, started, deadline]
        try:
            while pending or running:
                if keep is not None and not keep():
                    return False
                while pending and len(running) < self.slots:
                    running.append(self._start(pending.popleft()))
                timeout = min(job[4] for job in running) - time.monotonic()
                if keep is not None:
                    timeout = min(timeout, KEEP_CHECK_S)
                wait([h for job in running for h in (job[1], job[0].sentinel)],
                     max(0.0, min(timeout, _MAX_WAIT_S)))
                now = time.monotonic()
                for job in list(running):
                    outcome = self._check(*job, now)
                    if outcome is not None:
                        running.remove(job)
                        retry = settle(job[2], outcome)
                        if retry is not None:
                            pending.append(retry)
            return True
        finally:
            for proc, conn, *_ in running:
                self._retire(proc, conn)

    def call(self, fn: Callable, args: tuple,
             budget_s: float = math.inf) -> Outcome:
        """Run one task and return its outcome."""
        outcomes: list[Outcome] = []
        self.run([Task(fn, args, budget_s)],
                 lambda task, outcome: outcomes.append(outcome))
        return outcomes[0]

    def close(self) -> None:
        """Stop the idle children; a busy one stops when its task ends."""
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for proc, conn in idle:
            self._retire(proc, conn)

    def _start(self, task: Task) -> list:
        started = time.monotonic()
        while True:
            with self._lock:
                child = self._idle.pop() if self._idle else None
            if child is None or child[0].is_alive():
                break
            self._retire(*child)
        proc, conn = child or self._spawn()
        try:
            conn.send((task.fn, task.args))
        except OSError:
            pass            # died since it went idle: reported as died
        with self._lock:
            self._busy.add(proc.pid)
        return [proc, conn, task, started, started + task.budget_s]

    def _check(self, proc, conn, task, started, deadline,
               now) -> Optional[Outcome]:
        wall = now - started
        exited = conn.poll() or not proc.is_alive()   # reply, EOF or exit
        if not exited and now < deadline:
            return None
        # The last drain: a reply sent just before the child exited or
        # the deadline fired wins over the failure.
        try:
            message = conn.recv() if conn.poll() else None
        except (EOFError, OSError):
            message = None
        if message is not None:
            reply, keep = message
            self._release(proc, conn, keep)
            return Outcome("ok", reply, wall)
        self._retire(proc, conn)
        if exited:
            return Outcome("died", wall_s=wall, error=f"exited with code "
                           f"{proc.exitcode} without a result")
        return Outcome("deadline", wall_s=wall)

    def _release(self, proc, conn, keep: bool) -> None:
        with self._lock:
            self._busy.discard(proc.pid)
            keep = keep and not self._closed and len(self._idle) < self.slots
            if keep:
                self._idle.append((proc, conn))
        if not keep:
            self._retire(proc, conn)

    def _retire(self, proc, conn) -> None:
        # SIGKILL: a child still starting up may run its parent's SIGTERM
        # handler; closing the pipe first lets it read EOF either way.
        conn.close()
        proc.kill()
        proc.join()
        with self._lock:
            self._busy.discard(proc.pid)
