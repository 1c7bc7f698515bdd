"""The shared supervisor with real child processes: reuse, replacement
after a deadline kill or a large task, and signal handling inherited
from a server; and its ``keep`` seam on scripted children.

The other scripted races (last drain at a deadline or death, crash and
retry) run on scripted children in ``test_chaos.py``,
``test_experiments.py`` and ``test_serving.py``.
"""

from __future__ import annotations

import gc
import os
import signal
import time
import weakref

import pytest

from repro.supervise import MAX_WARM_GROWTH_MB, Supervisor, Task

from scripted_children import HANG, ScriptedChild, spawn_script

#: In a child: a weak reference to the cycle :func:`_leave_cycle` left.
_watched = None


class _Cycle:
    pass


def _grow_then_pid(mb: int) -> int:
    """Touch ``mb`` MiB, free it, and say which child did."""
    blob = b"x" * (mb << 20)
    del blob
    return os.getpid()


def _leave_cycle() -> int:
    """Leave a self-referencing object behind, unreachable but watched."""
    global _watched
    cycle = _Cycle()
    cycle.me = cycle
    _watched = weakref.ref(cycle)
    return os.getpid()


def _cycle_freed() -> tuple:
    return os.getpid(), _watched is not None and _watched() is None


def test_tasks_reuse_one_child():
    supervisor = Supervisor()
    try:
        pids = [supervisor.call(os.getpid, ()).reply for _ in range(3)]
    finally:
        supervisor.close()
    assert len(set(pids)) == 1 and pids[0] != os.getpid()


def test_deadline_kill_then_fresh_child():
    supervisor = Supervisor()
    try:
        first = supervisor.call(os.getpid, ()).reply
        hung = supervisor.call(time.sleep, (60,), budget_s=0.2)
        assert hung.kind == "deadline"
        after = supervisor.call(os.getpid, ())
    finally:
        supervisor.close()
    assert after.kind == "ok" and after.reply != first


def test_fresh_child_killed_at_zero_budget_despite_inherited_handler():
    """A server drains on SIGTERM.  A zero budget kills the child while
    it may still be starting up with that handler installed; the kill
    must not wait for the task."""
    previous = signal.signal(signal.SIGTERM, lambda *args: None)
    supervisor = Supervisor()
    try:
        t0 = time.monotonic()
        outcome = supervisor.call(time.sleep, (30,), budget_s=0)
        assert outcome.kind == "deadline"
        assert time.monotonic() - t0 < 10
    finally:
        supervisor.close()
        signal.signal(signal.SIGTERM, previous)


def test_child_that_grew_past_the_cap_is_replaced():
    supervisor = Supervisor()
    try:
        small = supervisor.call(_grow_then_pid, (1,))
        again = supervisor.call(_grow_then_pid, (MAX_WARM_GROWTH_MB + 32,))
        after = supervisor.call(_grow_then_pid, (1,))
    finally:
        supervisor.close()
    assert small.kind == again.kind == after.kind == "ok"
    assert again.reply == small.reply       # the large task still ran warm
    assert after.reply != again.reply       # but its child did not stay


def test_close_stops_idle_children():
    supervisor = Supervisor(slots=2)
    supervisor.call(os.getpid, ())
    [(proc, _conn)] = supervisor._idle
    supervisor.close()
    assert not proc.is_alive()
    assert supervisor.busy_pids() == []


@pytest.mark.pin
def test_child_freezes_its_inherited_heap():
    """A warm child freezes the heap it inherits, so its collections
    never walk the parent's objects."""
    supervisor = Supervisor()
    try:
        frozen = supervisor.call(gc.get_freeze_count, ())
    finally:
        supervisor.close()
    assert frozen.kind == "ok" and frozen.reply > 0


@pytest.mark.pin
def test_child_still_frees_a_tasks_cyclic_garbage():
    """The collection after each task walks the child's own objects,
    so a cycle the last task left is gone before the next task."""
    supervisor = Supervisor()
    try:
        pid = supervisor.call(_leave_cycle, ()).reply
        after = supervisor.call(_cycle_freed, ()).reply
    finally:
        supervisor.close()
    assert after == (pid, True)


@pytest.mark.pin
def test_parent_heap_is_never_frozen():
    """Only children freeze: the parent's collector keeps walking its
    own heap."""
    before = gc.get_freeze_count()
    supervisor = Supervisor()
    try:
        assert supervisor.call(os.getpid, ()).kind == "ok"
    finally:
        supervisor.close()
    assert gc.get_freeze_count() == before


# -- the keep seam (scripted children) ----------------------------------------


def test_keep_false_before_the_start_forks_nothing():
    spawn = spawn_script()
    settled = []
    assert Supervisor(spawn).run(
        [Task(os.getpid, ())], lambda task, outcome: settled.append(outcome),
        keep=lambda: False) is False
    assert spawn.count == 0 and settled == []


def test_keep_turning_false_kills_the_child():
    child = ScriptedChild(HANG)
    stop_at = time.monotonic() + 0.05
    settled = []
    start = time.monotonic()
    assert Supervisor(spawn_script(child)).run(
        [Task(os.getpid, ())], lambda task, outcome: settled.append(outcome),
        keep=lambda: time.monotonic() < stop_at) is False
    assert child.proc.killed and settled == []
    assert time.monotonic() - start < 5
