"""Scripted stand-ins for the supervisor's warm children.

:func:`spawn_script` builds a spawn seam (``runner._spawn_cell_process``,
``QueryServer(spawn=...)``, ``Supervisor(spawn)``) that hands out one
:class:`ScriptedChild` per call and fails the test when asked for more.
A scripted child is a real duplex pipe whose far end is played by a
thread, plus a fake process whose sentinel is a real file descriptor,
so the supervisor's event-driven wait runs on it unchanged.

Each task a child receives consumes the next step of its script (the
last step repeats):

* a dict: reply with a copy of it;
* a callable: reply with ``step(*task_args)``;
* :data:`HANG`: never reply (deadline and cancel fodder);
* :data:`DIE`: exit without replying;
* ``Delay(seconds, step)``: play ``step`` after a delay, unless the
  child is killed first.

``proc.on_is_alive`` runs once, at the supervisor's next liveness
check: that is where the poll/exit and poll/deadline races live.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from typing import NamedTuple

HANG = "hang"
DIE = "die"


class Delay(NamedTuple):
    seconds: float
    step: object


class FakeProc:
    """The process half: a pid, a real sentinel fd, a kill switch."""

    def __init__(self, pid: int, dead: bool = False):
        self.pid = pid
        self.exitcode = None
        self.killed = False
        self.kill_switch = threading.Event()
        self.on_is_alive = None
        self._lock = threading.Lock()
        self.sentinel, self._alive_fd = os.pipe()
        if dead:
            self.die()

    def die(self, code: int = 0) -> None:
        with self._lock:
            if self._alive_fd is not None:
                self.exitcode = code
                os.close(self._alive_fd)      # the sentinel becomes ready
                self._alive_fd = None

    def is_alive(self) -> bool:
        hook, self.on_is_alive = self.on_is_alive, None
        if hook is not None:
            hook()
        return self._alive_fd is not None

    def kill(self) -> None:
        self.killed = True
        self.kill_switch.set()
        self.die(-9)

    def join(self, timeout=None) -> None:
        pass


class ScriptedChild:
    """One warm child following ``steps`` (see the module docstring)."""

    def __init__(self, *steps, pid: int = 4242, dead: bool = False):
        self.proc = FakeProc(pid, dead=dead)
        self.conn, self._end = multiprocessing.Pipe()
        self.tasks: list[tuple] = []
        self._steps = list(steps) or [HANG]
        threading.Thread(target=self._play, daemon=True).start()

    def reply(self, record) -> None:
        """Send ``record`` as if the child had finished its task (and
        stays warm)."""
        self._end.send((record, True))

    def _play(self) -> None:
        while True:
            try:
                _fn, args = self._end.recv()
            except (EOFError, OSError):
                return
            self.tasks.append(args)
            step = (self._steps.pop(0) if len(self._steps) > 1
                    else self._steps[0])
            if isinstance(step, Delay):
                if self.proc.kill_switch.wait(step.seconds):
                    return
                step = step.step
            if step == HANG:
                self.proc.kill_switch.wait()
                return
            if step == DIE:
                self._end.close()
                self.proc.die(-9)
                return
            self.reply(step(*args) if callable(step) else dict(step))


def spawn_script(*children: ScriptedChild):
    """A spawn seam handing out ``children`` in order; ``spawn.count``
    says how many were started."""
    queue = list(children)

    def spawn():
        assert queue, "the supervisor started more children than scripted"
        spawn.count += 1
        child = queue.pop(0)
        return child.proc, child.conn

    spawn.count = 0
    return spawn
