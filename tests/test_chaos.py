"""Self-healing farm tests: lease-revocation cancellation, the farm's
``keep`` seam, worker reconnect with backoff (scripted flaky sockets),
the queue journal, coordinator drain, and `repro farm status`.

The full chaos scenario — SIGKILL a worker mid-cell, bounce the
coordinator, assert the merged store is bit-identical to a serial
sweep — lives in ``benchmarks/chaos_smoke.py`` (run by verify.sh); the
slow-marked test here drives that script end to end.
"""

from __future__ import annotations

import json
import os
import random
import socket
import subprocess
import sys
import time
from collections import deque

import pytest

from repro import cli
from repro.errors import DistributedError
from repro.experiments import (
    Cell,
    Coordinator,
    QueueJournal,
    ResultStore,
    SweepSpec,
    WorkQueue,
)
from repro.experiments import distributed, runner
from repro.experiments.distributed import (
    DEFAULT_SWEEP,
    PROTOCOL,
    PROTOCOL_VERSION,
    _recv_msg,
    _run_leased_cell,
    _send_msg,
    run_worker,
)
from repro.supervise import Supervisor

from scripted_children import DIE, HANG, Delay, ScriptedChild, spawn_script

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- scripted farm children --------------------------------------------------


def _ok_record(cell):
    return {"key": cell.key(), "status": "ok", "messages": 1,
            "rounds": 1, "valid": True, "wall_s": 0.0}


# -- lease-revocation cancellation (the kill seam) ----------------------------


def test_farm_keep_false_terminates_inflight(monkeypatch):
    """A ``keep`` that turns False kills every running child, records
    nothing for it and returns False — the seam revocation/reconnect
    paths stand on."""
    cell = Cell("gnp", 30, 0, "luby")
    child = ScriptedChild(HANG)
    monkeypatch.setattr(runner, "_spawn_cell_process", spawn_script(child))
    stop_at = time.monotonic() + 0.1
    killed_while_kept = []

    def keep():
        if time.monotonic() < stop_at:
            killed_while_kept.append(child.proc.killed)
            return True
        return False

    out = []
    start = time.monotonic()
    assert runner._run_cells_with_timeout([cell], 1, out.append,
                                          keep=keep) is False
    assert time.monotonic() - start < 5
    assert len(killed_while_kept) >= 2 and not any(killed_while_kept)
    assert child.proc.killed
    assert out == []


def test_farm_drains_record_sent_just_before_child_exit(monkeypatch):
    """Regression (fails pre-fix): a child that sends its record and
    exits between the supervisor's poll and its is_alive() check used to
    be recorded as 'worker exited with code 0 without a result'.  A dead
    child's pipe is drained once more before any failure is recorded."""
    cell = Cell("gnp", 30, 0, "luby")
    child = ScriptedChild(HANG, dead=True)          # already exited
    # The poll finds the pipe empty; the record lands by the time the
    # supervisor sees the child dead.
    child.proc.on_is_alive = lambda: child.reply(_ok_record(cell))
    monkeypatch.setattr(runner, "_spawn_cell_process", spawn_script(child))
    out = []
    runner._run_cells_with_timeout([cell], 1, out.append)
    assert len(out) == 1
    assert out[0]["status"] == "ok" and out[0]["attempts"] == 1


def test_farm_child_death_records_error(monkeypatch):
    """A child that dies without a record yields an error record for its
    cell; the next cell runs in a fresh child."""
    dies, fine = (Cell("gnp", 30, s, "luby") for s in (0, 1))
    first, second = ScriptedChild(DIE), ScriptedChild(_ok_record)
    spawn = spawn_script(first, second)
    monkeypatch.setattr(runner, "_spawn_cell_process", spawn)
    out = []
    runner._run_cells_with_timeout([dies, fine], 1, out.append)
    assert [r["status"] for r in out] == ["error", "ok"]
    assert "without a result" in out[0]["error"]
    assert spawn.count == 2


def test_heartbeat_gone_kills_child_and_drops_record():
    """Regression (fails pre-fix): a heartbeat answered ``gone`` used to
    be ignored — the cell ran to completion and the worker submitted a
    duplicate record the coordinator had to dedup.  Now the in-flight
    child is terminated and the stale record dropped (None)."""
    cell = Cell("gnp", 30, 0, "luby")
    # Finishes after 0.8s if nobody kills it: slow enough for a
    # heartbeat to fire first, fast enough that the pre-fix behavior
    # (run to completion, return the record) fails the assert instead
    # of hanging the test.
    child = ScriptedChild(Delay(0.8, _ok_record))
    beats = []

    def gone_heartbeat():
        beats.append(time.monotonic())
        return False

    record = _run_leased_cell(cell, heartbeat=gone_heartbeat,
                              interval=0.01,
                              supervisor=Supervisor(spawn_script(child)))
    assert record is None
    assert child.proc.killed
    assert len(beats) == 1      # killed on the first gone, not later


def test_heartbeat_exception_reaps_farm_child():
    """Regression (fails pre-fix): a DistributedError raised from the
    heartbeat (connection loss mid-cell) used to leak the still-running
    farm child; every exit path must reap it."""
    cell = Cell("gnp", 30, 0, "luby")
    child = ScriptedChild(HANG)

    def dead_heartbeat():
        raise DistributedError("connection to coordinator lost")

    with pytest.raises(DistributedError):
        _run_leased_cell(cell, heartbeat=dead_heartbeat, interval=0.01,
                         supervisor=Supervisor(spawn_script(child)))
    assert child.proc.killed


def test_revoked_lease_single_submission_e2e(tmp_path):
    """Protocol-level revocation: worker A leases a cell, its lease
    expires and is re-served to worker B; A's next heartbeat answers
    ``gone``.  A must not submit; B's record is the only one."""
    spec = SweepSpec(families=("gnp",), sizes=(30,), seeds=(0,),
                     methods=("luby",))
    [cell] = list(spec.cells())
    store = ResultStore(str(tmp_path / "revoked.jsonl"))
    with store:
        coord = Coordinator(spec, store=store, lease_s=0.2)
        host, port = coord.start()
        with socket.create_connection((host, port)) as sock:
            rfile, wfile = sock.makefile("rb"), sock.makefile("wb")
            _send_msg(wfile, {"type": "hello", "protocol": PROTOCOL,
                              "version": PROTOCOL_VERSION, "worker": "A"})
            assert _recv_msg(rfile)["type"] == "welcome"
            _send_msg(wfile, {"type": "lease", "max_cells": 1})
            assert _recv_msg(rfile)["type"] == "cells"
            # A stops heartbeating; the reaper requeues the cell.
            deadline = time.monotonic() + 10
            while (coord.queue.requeues(cell.key()) == 0
                   and time.monotonic() < deadline):
                time.sleep(0.02)
            assert coord.queue.requeues(cell.key()) == 1
            _send_msg(wfile, {"type": "heartbeat", "keys": [cell.key()],
                              "sweep": DEFAULT_SWEEP})
            assert _recv_msg(rfile)["gone"] == [cell.key()]
            # A obeys the revocation: no result submission, just exits.
        completed = run_worker(host, port, worker_id="B", poll_s=0.05)
        fresh = coord.wait(timeout=30)
    assert completed == 1 and len(fresh) == 1
    assert fresh[0]["status"] == "ok"
    assert coord.duplicates == 0


# -- worker reconnect with backoff (scripted flaky sockets) -------------------


class _ScriptedSock:
    """An in-memory 'socket' whose coordinator side is a handler
    function: each request message gets handler(msg) back — a reply
    dict, ``None`` to sever the stream (EOF mid-exchange), or an
    exception instance to raise from the read."""

    def __init__(self, handler):
        self._handler = handler
        self._replies = deque()
        self._unread = b""
        self.closed = False

    # socket surface run_worker/_worker_loop touches
    def makefile(self, mode):
        return self

    def settimeout(self, value):
        pass

    def close(self):
        self.closed = True

    def shutdown(self, how):
        pass

    # wfile surface
    def write(self, data):
        for line in data.decode("utf-8").splitlines():
            self._replies.append(self._handler(json.loads(line)))

    def flush(self):
        pass

    # read surface
    def recv_into(self, buf):
        if not self._unread:
            if not self._replies:
                return 0
            reply = self._replies.popleft()
            if reply is None:
                return 0
            if isinstance(reply, Exception):
                raise reply
            self._unread = (json.dumps(reply) + "\n").encode("utf-8")
        n = min(len(buf), len(self._unread))
        buf[:n] = self._unread[:n]
        self._unread = self._unread[n:]
        return n


def _welcome():
    return {"type": "welcome", "version": PROTOCOL_VERSION,
            "lease_s": 30.0}


def test_worker_reconnects_after_severed_socket(monkeypatch):
    """Connection 1 is severed mid-protocol; the worker backs off,
    reconnects as the same id, and finishes on connection 2."""
    delays = []
    monkeypatch.setattr(time, "sleep", delays.append)

    def conn1(msg):
        if msg["type"] == "hello":
            return _welcome()
        return None                             # severed on first lease

    def conn2(msg):
        if msg["type"] == "hello":
            assert msg["worker"] == "w"         # same id resumed
            return _welcome()
        return {"type": "shutdown"}

    socks = deque([_ScriptedSock(conn1), _ScriptedSock(conn2)])
    completed = run_worker(
        "h", 1, worker_id="w", reconnect=3, backoff_s=0.5,
        connect=lambda: socks.popleft())
    assert completed == 0 and not socks
    # Exactly one backoff sleep, jittered deterministically from the
    # worker id: base * 2^0 * (0.5 + rng()).
    rng = random.Random("w/reconnect")
    assert delays == [0.5 * (0.5 + rng.random())]


def test_worker_reconnect_backoff_is_exponential_and_bounded(monkeypatch):
    """Refused connections back off exponentially (with deterministic
    jitter) and give up after ``reconnect`` consecutive failures."""
    delays = []
    monkeypatch.setattr(time, "sleep", delays.append)
    attempts = []

    def refuse():
        attempts.append(1)
        raise ConnectionRefusedError("refused")

    with pytest.raises(DistributedError) as err:
        run_worker("h", 1, worker_id="w", reconnect=3, backoff_s=0.5,
                   backoff_max_s=15.0, connect=refuse)
    assert "3 reconnect attempt(s) failed" in str(err.value)
    assert len(attempts) == 4                   # initial + 3 retries
    rng = random.Random("w/reconnect")
    expected = [0.5 * 2 ** i * (0.5 + rng.random()) for i in range(3)]
    assert delays == expected
    assert all(d <= 15.0 * 1.5 for d in delays)


def test_worker_resubmits_pending_record_after_reconnect(monkeypatch):
    """A result whose submission was cut off mid-send is re-submitted on
    the next connection instead of being recomputed or dropped."""
    monkeypatch.setattr(time, "sleep", lambda s: None)
    cell = Cell("gnp", 30, 0, "luby")
    record = _ok_record(cell)
    monkeypatch.setattr(distributed, "_run_leased_cell",
                        lambda c, **kwargs: dict(record))
    resubmitted = []

    def conn1(msg):
        if msg["type"] == "hello":
            return _welcome()
        if msg["type"] == "lease":
            return {"type": "cells", "sweep": DEFAULT_SWEEP,
                    "cells": [cell.to_dict()]}
        if msg["type"] == "result":
            return None                         # dies mid-submission
        raise AssertionError(msg)

    def conn2(msg):
        if msg["type"] == "hello":
            return _welcome()
        if msg["type"] == "result":
            assert msg["sweep"] == DEFAULT_SWEEP
            resubmitted.append(msg["record"])
            return {"type": "ok", "accepted": True}
        return {"type": "shutdown"}

    socks = deque([_ScriptedSock(conn1), _ScriptedSock(conn2)])
    completed = run_worker("h", 1, worker_id="w", reconnect=2,
                           connect=lambda: socks.popleft())
    assert completed == 1
    assert resubmitted == [record]


def test_worker_progress_resets_backoff_budget(monkeypatch):
    """The reconnect budget bounds *consecutive* failures: a connection
    that makes progress resets it, so a long sweep with occasional blips
    never exhausts the budget cumulatively."""
    monkeypatch.setattr(time, "sleep", lambda s: None)

    def flaky(msg, sever_on):
        if msg["type"] == "hello":
            return _welcome()
        if msg["type"] == "lease":
            return None if sever_on.pop(0) else {"type": "shutdown"}
        raise AssertionError(msg)

    # 3 severed connections with a successful handshake each time, with
    # a reconnect budget of 2: allowed only because each connection's
    # handshake progress resets the consecutive-failure count.
    scripts = [[True], [True], [True], [False]]
    socks = deque(
        _ScriptedSock(lambda m, s=list(s): flaky(m, s)) for s in scripts)
    completed = run_worker("h", 1, worker_id="w", reconnect=2,
                           connect=lambda: socks.popleft())
    assert completed == 0 and not socks


# -- queue journal ------------------------------------------------------------


def _spec():
    return SweepSpec(families=("gnp",), sizes=(30, 40), seeds=(0, 1),
                     methods=("luby",))


def test_work_queue_journal_round_trip(tmp_path):
    """write -> crash -> reload preserves done keys, requeue counts, and
    charges the crashed coordinator's live leases one requeue."""
    cells = list(_spec().cells())
    keys = [c.key() for c in cells]
    q = WorkQueue(cells, lease_s=60.0, max_requeues=5)
    done = q.lease("w1", now=0.0)
    assert q.complete("w1", done.key(), ok=True)
    requeued = q.lease("w1", now=0.0)
    q.release_worker("w1")                      # requeue count 1, no lease
    leased = q.lease("w2", now=0.0)             # live lease at crash time

    journal = QueueJournal(str(tmp_path / "q.journal"))
    journal.write({DEFAULT_SWEEP: {"fingerprint": "abc123",
                                   **q.snapshot()}})
    payload = journal.load()["sweeps"][DEFAULT_SWEEP]
    assert payload["fingerprint"] == "abc123"
    assert payload["done"] == [done.key()]
    assert payload["requeues"] == {requeued.key(): 1}
    assert payload["leased"] == [leased.key()]

    # The restarted coordinator re-expands every cell, then restores.
    q2 = WorkQueue(list(_spec().cells()), lease_s=60.0, max_requeues=5)
    assert q2.restore(payload) == []
    assert q2.counts() == {"pending": 3, "leased": 0, "done": 1,
                           "failed": 0}
    assert q2.requeues(requeued.key()) == 1     # history survives
    assert q2.requeues(leased.key()) == 1       # dead lease charged
    served = {q2.lease("w", now=0.0).key() for _ in range(3)}
    assert served == set(keys) - {done.key()}   # done is never re-run


def test_journal_restore_declares_exhausted_cells_lost(tmp_path):
    """A cell whose requeue history already exhausted max_requeues comes
    back from restore as lost instead of looping across restarts."""
    cells = list(_spec().cells())
    doomed = cells[0].key()
    q = WorkQueue(list(cells), lease_s=60.0, max_requeues=2)
    lost = q.restore({"done": [], "failed": [], "leased": [],
                      "requeues": {doomed: 3}})
    assert [c.key() for c in lost] == [doomed]
    assert q.counts()["failed"] == 1
    assert not any(q.lease("w", now=0.0).key() == doomed
                   for _ in range(len(cells) - 1))


def test_journal_fingerprint_mismatch_rejected(tmp_path):
    """A journal written for a different sweep must not replay its
    requeue history into this one."""
    journal = QueueJournal(str(tmp_path / "q.journal"))
    journal.write({DEFAULT_SWEEP: {"fingerprint": "not-this-sweep",
                                   "done": [], "failed": [],
                                   "requeues": {}, "leased": []}})
    with pytest.raises(DistributedError, match="different sweep"):
        Coordinator(_spec(), journal=journal, resume_journal=True)


def test_journal_load_rejects_garbage(tmp_path):
    path = tmp_path / "q.journal"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(DistributedError, match="unreadable"):
        QueueJournal(str(path)).load()
    path.write_text('{"format": "something-else"}', encoding="utf-8")
    with pytest.raises(DistributedError, match="not a repro"):
        QueueJournal(str(path)).load()
    assert QueueJournal(str(tmp_path / "missing")).load() is None


def test_coordinator_resume_journal_end_to_end(tmp_path):
    """Coordinator 1 records one cell and is stopped mid-sweep; a second
    coordinator with --resume-journal semantics serves exactly the rest
    and the merged store matches the full spec."""
    spec = _spec()
    store = ResultStore(str(tmp_path / "out.jsonl"))
    journal = QueueJournal(str(tmp_path / "out.jsonl.journal"))
    with store:
        coord = Coordinator(spec, store=store, lease_s=5.0,
                            journal=journal, journal_interval_s=0.05)
        host, port = coord.start()
        with socket.create_connection((host, port)) as sock:
            rfile, wfile = sock.makefile("rb"), sock.makefile("wb")
            _send_msg(wfile, {"type": "hello", "protocol": PROTOCOL,
                              "version": PROTOCOL_VERSION, "worker": "w"})
            assert _recv_msg(rfile)["type"] == "welcome"
            _send_msg(wfile, {"type": "lease", "max_cells": 1})
            [cell] = map(Cell.from_dict, _recv_msg(rfile)["cells"])
            from repro.experiments import run_cell
            _send_msg(wfile, {"type": "result", "record": run_cell(cell),
                              "sweep": DEFAULT_SWEEP})
            assert _recv_msg(rfile)["accepted"]
        coord.drain(grace_s=0.2)
        fresh = coord.wait(timeout=10)
        assert len(fresh) == 1 and coord.drained
        # The drain flushed a journal; a bounced coordinator resumes.
        coord2 = Coordinator(spec, store=store, lease_s=5.0,
                             journal=journal, resume_journal=True)
        host, port = coord2.start()
        completed = run_worker(host, port, worker_id="w2", poll_s=0.05)
        coord2.wait(timeout=30)
    assert completed == spec.size - 1
    latest = store.latest_per_key()
    assert set(latest) == {c.key() for c in spec.cells()}
    assert all(r["status"] == "ok" for r in latest.values())


# -- coordinator drain --------------------------------------------------------


def test_drain_stops_leasing_and_releases_workers(tmp_path):
    """After drain(): lease requests are answered shutdown, in-flight
    results within the grace window still land, wait() returns with
    drained=True, and the store is intact."""
    spec = _spec()
    store = ResultStore(str(tmp_path / "drain.jsonl"))
    with store:
        coord = Coordinator(spec, store=store, lease_s=5.0)
        host, port = coord.start()
        with socket.create_connection((host, port)) as sock:
            rfile, wfile = sock.makefile("rb"), sock.makefile("wb")
            _send_msg(wfile, {"type": "hello", "protocol": PROTOCOL,
                              "version": PROTOCOL_VERSION, "worker": "w"})
            assert _recv_msg(rfile)["type"] == "welcome"
            _send_msg(wfile, {"type": "lease", "max_cells": 1})
            [cell] = map(Cell.from_dict, _recv_msg(rfile)["cells"])
            coord.drain(grace_s=5.0)
            # The in-flight cell still lands inside the grace window...
            _send_msg(wfile, {"type": "heartbeat", "keys": [cell.key()],
                              "sweep": DEFAULT_SWEEP})
            assert _recv_msg(rfile) == {"type": "ok", "gone": []}
            from repro.experiments import run_cell
            _send_msg(wfile, {"type": "result", "record": run_cell(cell),
                              "sweep": DEFAULT_SWEEP})
            assert _recv_msg(rfile)["accepted"]
            # ...but no new work leaves the coordinator.
            _send_msg(wfile, {"type": "lease"})
            assert _recv_msg(rfile)["type"] == "shutdown"
        fresh = coord.wait(timeout=10)
    assert coord.drained and len(fresh) == 1
    assert len(store.load()) == 1


# -- farm status --------------------------------------------------------------


@pytest.fixture
def busy_coordinator():
    """A live coordinator with worker 'w1' holding a lease and having
    heartbeated once."""
    coord = Coordinator(_spec(), lease_s=30.0)
    host, port = coord.start()
    sock = socket.create_connection((host, port))
    rfile, wfile = sock.makefile("rb"), sock.makefile("wb")
    _send_msg(wfile, {"type": "hello", "protocol": PROTOCOL,
                      "version": PROTOCOL_VERSION, "worker": "w1"})
    assert _recv_msg(rfile)["type"] == "welcome"
    _send_msg(wfile, {"type": "lease", "max_cells": 1})
    [key] = [Cell.from_dict(c).key() for c in _recv_msg(rfile)["cells"]]
    _send_msg(wfile, {"type": "heartbeat", "keys": [key],
                      "sweep": DEFAULT_SWEEP})
    assert _recv_msg(rfile) == {"type": "ok", "gone": []}
    yield coord, host, port, key
    sock.close()
    coord.stop()


def test_farm_status_live_counts_and_heartbeat_ages(busy_coordinator,
                                                    capsys):
    coord, host, port, key = busy_coordinator
    rc = cli.main(["farm", "status", "--connect", f"{host}:{port}",
                   "--json"])
    assert rc == 0
    snap = json.loads(capsys.readouterr().out)
    assert snap["total"] == 4
    assert snap["pending"] == 3 and snap["leased"] == 1
    assert snap["done"] == 0 and snap["lost"] == 0
    assert snap["active_workers"] == 1
    w1 = snap["workers"]["w1"]
    assert w1["connected"] and w1["leases"] == [key]
    assert 0 <= w1["last_heartbeat_age_s"] < 30
    assert snap["draining"] is False
    # The status probe itself never registers as a worker.
    assert set(snap["workers"]) == {"w1"}


def test_farm_status_text_output(busy_coordinator, capsys):
    coord, host, port, key = busy_coordinator
    rc = cli.main(["farm", "status", "--connect", f"{host}:{port}"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "0/4 done, 1 leased, 3 pending" in text
    assert "w1: up, 0 done, 1 lease(s), heartbeat" in text


def test_farm_status_unreachable_coordinator(capsys):
    rc = cli.main(["farm", "status", "--connect", "127.0.0.1:1"])
    assert rc == 1
    assert "farm status:" in capsys.readouterr().err


# -- the full chaos scenario --------------------------------------------------


@pytest.mark.slow
def test_chaos_smoke_sigkill_worker_and_bounce_coordinator(tmp_path):
    """Acceptance: 2 workers, SIGKILL one mid-cell, bounce the
    coordinator once; the merged store must be bit-identical per key to
    a serial run_sweep, with zero lost records and the surviving worker
    reconnecting.  Drives benchmarks/chaos_smoke.py — the same script
    verify.sh runs."""
    env = dict(os.environ)
    src = os.path.join(REPO, "src")
    extra = os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    env["PYTHONPATH"] = src + extra
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO, "benchmarks",
                                      "chaos_smoke.py"),
         "--workdir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, (proc.stdout, proc.stderr)
    assert "chaos smoke: OK" in proc.stdout
