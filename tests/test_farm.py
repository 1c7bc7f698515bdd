"""The multi-tenant experiment farm.

Covers the farm layers the single-sweep tests don't: per-sweep queues
under one coordinator (fair-share leasing, priorities), the farm verbs
(submit/attach/list/cancel) and their clients, batched leases with one
covering heartbeat, the EWMA batch tuner, the multi-sweep journal
round-trip, and the farm CLI.  The clients' deadlines and frame cap
are covered for every entry point in ``tests/test_wire.py``.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
import time

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
    run_sweep,
    run_worker,
)
from repro.experiments import distributed
from repro.experiments.distributed import (
    DEFAULT_SWEEP,
    PROTOCOL,
    PROTOCOL_VERSION,
    _batch_size,
    _observe_wall,
    _recv_msg,
    _run_leased_batch,
    _send_msg,
    _WorkerState,
    cancel_sweep,
    fetch_status,
    fetch_sweep,
    list_sweeps,
    submit_sweep,
)
from repro.supervise import Supervisor

from scripted_children import Delay, ScriptedChild, spawn_script

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")


def _worker_env():
    env = dict(os.environ)
    extra = os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    env["PYTHONPATH"] = SRC + extra
    return env


def _spec_a():
    return SweepSpec(families=("gnp",), sizes=(30, 40), seeds=(0,),
                     methods=("luby",))


def _spec_b():
    return SweepSpec(families=("gnp",), sizes=(30,), seeds=(0, 1),
                     methods=("rank-greedy",))


def _ok_record(cell):
    return {"key": cell.key(), "status": "ok", "messages": 1,
            "rounds": 1, "valid": True, "wall_s": 0.0}


def _handshake(host, port, worker="w"):
    sock = socket.create_connection((host, port))
    rfile, wfile = sock.makefile("rb"), sock.makefile("wb")
    _send_msg(wfile, {"type": "hello", "protocol": PROTOCOL,
                      "version": PROTOCOL_VERSION, "worker": worker})
    assert _recv_msg(rfile)["type"] == "welcome"
    return sock, rfile, wfile


# -- per-sweep work queues ----------------------------------------------------


def test_lease_batch_respects_limit_and_pending():
    cells = list(SweepSpec(sizes=(30, 40, 50), seeds=(0,),
                           methods=("luby",)).cells())
    q = WorkQueue(cells, lease_s=60.0, max_requeues=1)
    first = q.lease_batch("w1", 2, now=0.0)
    assert [c.key() for c in first] == [c.key() for c in cells[:2]]
    rest = q.lease_batch("w1", 5, now=0.0)      # only one cell left
    assert [c.key() for c in rest] == [cells[2].key()]
    assert q.lease_batch("w2", 3, now=0.0) == []
    # Each batched cell holds its own lease: completing one does not
    # touch the others.
    assert q.complete("w1", first[0].key(), ok=True)
    assert q.counts() == {"pending": 0, "leased": 2, "done": 1,
                          "failed": 0}


def test_queue_cancel_drops_pending_and_revokes_leases():
    cells = list(SweepSpec(sizes=(30, 40, 50), seeds=(0,),
                           methods=("luby",)).cells())
    q = WorkQueue(cells, lease_s=60.0, max_requeues=1)
    leased = q.lease("w1", now=0.0)
    dropped, revoked = q.cancel()
    assert dropped == 2
    assert revoked == [leased.key()]
    assert q.finished() and q.pending_count() == 0
    # A cancelled queue never leases again, and the revoked holder's
    # heartbeat answers gone.
    assert q.lease("w2", now=0.0) is None
    assert not q.heartbeat("w1", leased.key(), now=0.0)


# -- fair-share leasing across tenants ---------------------------------------


def test_fair_share_alternates_between_equal_priority_sweeps():
    coord = Coordinator(persistent=True)
    coord.add_sweep("alpha", spec=_spec_a())
    coord.add_sweep("beta", spec=_spec_b())
    served = [coord.lease_cells("w", 1)[0] for _ in range(4)]
    assert served == ["alpha", "beta", "alpha", "beta"]
    assert coord.lease_cells("w", 1) == (None, [])


def test_higher_priority_sweep_drains_first():
    coord = Coordinator(persistent=True)
    coord.add_sweep("bulk", spec=_spec_a())            # 2 cells, prio 0
    coord.add_sweep("urgent", spec=_spec_b(), priority=5)
    names = [coord.lease_cells("w", 1)[0] for _ in range(4)]
    assert names == ["urgent", "urgent", "bulk", "bulk"]


def test_batch_comes_from_single_sweep_and_counts_one_turn():
    coord = Coordinator(persistent=True)
    coord.add_sweep("alpha", spec=_spec_a())
    coord.add_sweep("beta", spec=_spec_b())
    name, cells = coord.lease_cells("w", 16)
    assert name == "alpha" and len(cells) == 2
    name2, cells2 = coord.lease_cells("w", 16)
    assert name2 == "beta" and len(cells2) == 2


# -- tenant registry ----------------------------------------------------------


def test_add_sweep_idempotent_and_fingerprint_guard():
    coord = Coordinator(persistent=True)
    state, created = coord.add_sweep("alpha", spec=_spec_a())
    again, created2 = coord.add_sweep("alpha", spec=_spec_a())
    assert created and not created2 and again is state
    with pytest.raises(DistributedError, match="different spec"):
        coord.add_sweep("alpha", spec=_spec_b())


def test_sweep_name_validation():
    coord = Coordinator(persistent=True)
    for bad in ("", "../evil", "a b", "x" * 65, ".hidden"):
        with pytest.raises(DistributedError, match="invalid sweep name"):
            coord.add_sweep(bad, spec=_spec_a())


def test_cancel_sweep_drops_revokes_and_revives():
    coord = Coordinator(persistent=True)
    coord.add_sweep("alpha", spec=_spec_a())
    name, [cell] = coord.lease_cells("w", 1)
    ack = coord.cancel_sweep("alpha")
    assert ack == {"sweep": "alpha", "dropped": 1, "revoked": 1}
    # The revoked holder learns at its next heartbeat...
    assert coord.heartbeat_keys("w", [cell.key()], "alpha") == [cell.key()]
    # ...its late result is refused...
    assert not coord.submit("w", _ok_record(cell), sweep="alpha")
    # ...and resubmitting the name revives the sweep with a fresh queue.
    state, created = coord.add_sweep("alpha", spec=_spec_a())
    assert created and not state.cancelled
    assert coord.lease_cells("w", 1)[0] == "alpha"


# -- batched leases on the wire ----------------------------------------------


def test_wire_batched_lease_and_keys_heartbeat(tmp_path):
    store = ResultStore(str(tmp_path / "a.jsonl"))
    with store:
        coord = Coordinator(_spec_a(), store=store, lease_s=10.0)
        host, port = coord.start()
        try:
            sock, rfile, wfile = _handshake(host, port)
            with sock:
                _send_msg(wfile, {"type": "lease", "max_cells": 8})
                reply = _recv_msg(rfile)
                assert reply["type"] == "cells"
                assert reply["sweep"] == DEFAULT_SWEEP
                cells = [Cell.from_dict(c) for c in reply["cells"]]
                assert len(cells) == 2
                keys = [c.key() for c in cells]
                _send_msg(wfile, {"type": "heartbeat", "keys": keys,
                                  "sweep": reply["sweep"]})
                beat = _recv_msg(rfile)
                assert beat["type"] == "ok" and beat["gone"] == []
                for cell in cells:
                    _send_msg(wfile, {"type": "result",
                                      "record": _ok_record(cell),
                                      "sweep": reply["sweep"]})
                    assert _recv_msg(rfile)["accepted"]
        finally:
            coord.stop()
    assert {r["key"] for r in store.load()} == set(keys)


def test_untagged_worker_messages_refused_and_leases_released():
    """Protocol v2: a ``result`` or ``heartbeat`` without its ``sweep``
    tag is malformed.  The coordinator records nothing, drops the
    worker, and requeues every lease it held."""
    coord = Coordinator(_spec_a(), lease_s=10.0)
    host, port = coord.start()
    try:
        for untagged in (lambda keys: {"type": "result",
                                       "record": {"key": keys[0],
                                                  "status": "ok"}},
                         lambda keys: {"type": "heartbeat",
                                       "keys": keys}):
            sock, rfile, wfile = _handshake(host, port)
            with sock:
                _send_msg(wfile, {"type": "lease", "max_cells": 2})
                keys = [Cell.from_dict(c).key()
                        for c in _recv_msg(rfile)["cells"]]
                assert coord.queue.counts()["leased"] == 2
                _send_msg(wfile, untagged(keys))
                assert _recv_msg(rfile) is None     # connection dropped
            assert coord.queue.counts() == {"pending": 2, "leased": 0,
                                            "done": 0, "failed": 0}
        assert coord.fresh == []
    finally:
        coord.stop()


# -- farm verbs and their clients ---------------------------------------------


@pytest.fixture
def farm(tmp_path):
    coord = Coordinator(persistent=True, store_dir=str(tmp_path),
                        lease_s=10.0)
    host, port = coord.start()
    yield coord, host, port
    coord.stop()


def test_submit_attach_list_cancel_clients(farm):
    coord, host, port = farm
    ack = submit_sweep(host, port, "alpha", _spec_a())
    assert ack["created"] and ack["total"] == 2
    assert ack["fingerprint"] == _spec_a().fingerprint()
    # Idempotent: same name, same spec attaches to the live sweep.
    again = submit_sweep(host, port, "alpha", _spec_a())
    assert not again["created"]
    # Same name, different spec is refused and the error names why.
    with pytest.raises(DistributedError, match="different spec"):
        submit_sweep(host, port, "alpha", _spec_b())
    submit_sweep(host, port, "beta", _spec_b(), priority=2)
    sweeps = list_sweeps(host, port)
    assert set(sweeps) == {"alpha", "beta"}
    assert sweeps["beta"]["priority"] == 2
    snap = fetch_sweep(host, port, "alpha")
    assert snap["total"] == 2 and snap["pending"] == 2
    assert not snap["finished"] and not snap["cancelled"]
    with pytest.raises(DistributedError, match="no sweep named"):
        fetch_sweep(host, port, "ghost")
    ack = cancel_sweep(host, port, "beta")
    assert ack["dropped"] == 2 and ack["revoked"] == 0
    assert fetch_sweep(host, port, "beta")["cancelled"]
    # A verb error leaves the connection usable: the coordinator is
    # still serving (fresh exchanges keep working).
    assert fetch_status(host, port)["persistent"]


def test_submit_fingerprint_skew_rejected(farm):
    """A client whose fingerprint doesn't match the shipped spec (schema
    skew) must not mint a sweep under a wrong identity."""
    coord, host, port = farm
    spec = _spec_a()
    with pytest.raises(DistributedError, match="fingerprint"):
        distributed._farm_request(host, port, {
            "type": "submit", "name": "skewed", "spec": spec.to_dict(),
            "fingerprint": "0000000000000000", "priority": 0,
        }, "ok", 5.0, "submit")
    assert "skewed" not in list_sweeps(host, port)


def test_farm_worker_runs_both_sweeps_to_store(farm, tmp_path):
    """One in-process worker drains a two-tenant farm; each tenant's
    store holds exactly its own records."""
    coord, host, port = farm
    submit_sweep(host, port, "alpha", _spec_a())
    submit_sweep(host, port, "beta", _spec_b())
    done = threading.Thread(
        target=run_worker, args=(host, port),
        kwargs={"worker_id": "w", "poll_s": 0.05, "max_batch": 4},
        daemon=True)
    done.start()
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        sweeps = coord.sweeps_snapshot()
        if all(s["finished"] for s in sweeps.values()):
            break
        time.sleep(0.1)
    else:
        pytest.fail(f"farm never drained: {coord.sweeps_snapshot()}")
    coord.drain(grace_s=2.0)
    done.join(10)
    assert not done.is_alive()
    for name, spec in (("alpha", _spec_a()), ("beta", _spec_b())):
        recs = ResultStore(str(tmp_path / f"{name}.jsonl")).load()
        assert {r["key"] for r in recs} == {c.key() for c in spec.cells()}
        assert all(r["status"] == "ok" for r in recs)


# -- the EWMA batch tuner -----------------------------------------------------


def test_batch_size_probes_then_fills_target_window():
    # No estimate yet: probe with one cell.
    assert _batch_size(None, 16, 5.0, 30.0) == 1
    # Batching disabled.
    assert _batch_size(0.1, 1, 5.0, 30.0) == 1
    # Sub-second cells fill the window up to max_batch.
    assert _batch_size(0.1, 16, 5.0, 30.0) == 16
    assert _batch_size(1.0, 16, 5.0, 30.0) == 5
    # Cells slower than the window degrade to one-at-a-time.
    assert _batch_size(10.0, 16, 5.0, 30.0) == 1
    # The lease caps the window: never bite off more than a lease
    # of work.
    assert _batch_size(1.0, 16, 5.0, 2.0) == 2


def test_observe_wall_is_an_ewma():
    state = _WorkerState()
    assert state.ewma_wall is None
    _observe_wall(state, 2.0)
    assert state.ewma_wall == 2.0
    _observe_wall(state, 1.0)
    assert state.ewma_wall == pytest.approx(0.3 * 1.0 + 0.7 * 2.0)


# -- running a leased batch ---------------------------------------------------


def _patched_cell_runner(monkeypatch, duration_by_key):
    """Make _run_leased_batch's farm children synthetic: each 'runs' for
    its scripted duration, asking ``keep`` before it starts and while it
    runs as the supervisor does, then emits an ok record (the supervisor
    passed in never starts a child)."""
    def fake(cells, slots, emit, keep=None, supervisor=None):
        [cell] = cells
        end = time.monotonic() + duration_by_key.get(cell.key(), 0.0)
        while True:
            if keep is not None and not keep():
                return False
            if time.monotonic() >= end:
                break
            time.sleep(0.002)
        emit(_ok_record(cell))
        return True
    monkeypatch.setattr(distributed, "_run_cells_with_timeout", fake)


def test_batch_completes_all_and_heartbeat_covers_remainder(monkeypatch):
    cells = list(SweepSpec(sizes=(30, 40, 50), seeds=(0,),
                           methods=("luby",)).cells())
    _patched_cell_runner(monkeypatch,
                         {cells[0].key(): 0.08})
    beats, submitted = [], []

    def heartbeat(keys):
        beats.append(list(keys))
        return set()

    _run_leased_batch(cells, heartbeat=heartbeat, interval=0.02,
                      submit=lambda rec, wall: submitted.append(rec),
                      supervisor=Supervisor())
    assert [r["key"] for r in submitted] == [c.key() for c in cells]
    # While cell 0 ran, the heartbeat covered it *and* the queued
    # remainder — their leases age while they wait their turn.
    assert any(set(b) == {c.key() for c in cells} for b in beats)


def test_batch_partial_completion_after_queued_revocation(monkeypatch):
    """The coordinator revokes a *queued* batch cell (cancelled sweep,
    lease reaped): it is dropped from the batch, the rest complete."""
    cells = list(SweepSpec(sizes=(30, 40, 50), seeds=(0,),
                           methods=("luby",)).cells())
    doomed = cells[2].key()
    _patched_cell_runner(monkeypatch, {cells[0].key(): 0.08})
    submitted = []

    def heartbeat(keys):
        return {doomed} if doomed in keys else set()

    _run_leased_batch(cells, heartbeat=heartbeat, interval=0.02,
                      submit=lambda rec, wall: submitted.append(rec),
                      supervisor=Supervisor())
    assert [r["key"] for r in submitted] == [cells[0].key(),
                                             cells[1].key()]


def test_batch_revoked_inflight_cell_killed_not_submitted(monkeypatch):
    """Mid-batch revocation of the *running* cell goes through the
    ``keep`` seam: the child is reaped, nothing is submitted for it,
    and the rest of the batch continues."""
    cells = list(SweepSpec(sizes=(30, 40), seeds=(0,),
                           methods=("luby",)).cells())
    victim = cells[0].key()
    _patched_cell_runner(monkeypatch, {victim: 30.0})
    submitted = []

    def heartbeat(keys):
        return {victim} if victim in keys else set()

    start = time.monotonic()
    _run_leased_batch(cells, heartbeat=heartbeat, interval=0.02,
                      submit=lambda rec, wall: submitted.append(rec),
                      supervisor=Supervisor())
    assert time.monotonic() - start < 10      # did not sit out the 30s
    assert [r["key"] for r in submitted] == [cells[1].key()]


def test_batch_submit_cut_off_aborts_rest(monkeypatch):
    """A submit that raises (connection cut mid-send) aborts the batch;
    the already-delivered record is not retried here (the worker's
    pending-resubmit queue owns that)."""
    cells = list(SweepSpec(sizes=(30, 40, 50), seeds=(0,),
                           methods=("luby",)).cells())
    _patched_cell_runner(monkeypatch, {})
    attempts = []

    def cut_submit(rec, wall):
        attempts.append(rec["key"])
        raise DistributedError("connection cut mid-send")

    with pytest.raises(DistributedError, match="cut"):
        _run_leased_batch(cells, heartbeat=lambda keys: set(),
                          interval=5.0, submit=cut_submit,
                          supervisor=Supervisor())
    assert attempts == [cells[0].key()]


def test_batch_beats_on_the_caller_thread_with_a_real_supervisor():
    """A real supervisor and a scripted child: the lease heartbeat runs
    in the supervisor loop on the caller's thread (no helper thread
    while a cell runs), and a current cell revoked at a due beat before
    it starts is never handed to a child."""
    cells = list(SweepSpec(sizes=(30, 40), seeds=(0,),
                           methods=("luby",)).cells())
    first, revoked = (c.key() for c in cells)
    child = ScriptedChild(Delay(0.15, _ok_record))
    spawn = spawn_script(child)
    supervisor = Supervisor(spawn)
    threads = threading.active_count()
    beats, submitted = [], []

    def heartbeat(keys):
        beats.append((list(keys), threading.get_ident(),
                      threading.active_count()))
        return {revoked} if keys[0] == revoked else set()

    try:
        _run_leased_batch(cells, heartbeat=heartbeat, interval=0.0,
                          submit=lambda rec, wall: submitted.append(rec),
                          supervisor=supervisor)
    finally:
        supervisor.close()
    assert [r["key"] for r in submitted] == [first]
    assert spawn.count == 1 and child.tasks == [(cells[0],)]
    # Beats while the first cell ran covered the queued cell too; the
    # last beat revoked the second cell before it started.
    assert sum(keys == [first, revoked] for keys, _, _ in beats) >= 2
    assert beats[-1][0] == [revoked]
    assert {tid for _, tid, _ in beats} == {threading.get_ident()}
    assert max(count for _, _, count in beats) <= threads


def test_batch_resubmission_after_cut_off_send(tmp_path, monkeypatch):
    """End-to-end: a worker whose submission is severed mid-batch
    reconnects and re-submits the cut-off record instead of recomputing
    it — the store ends complete with no duplicates."""
    ran = []

    def fake(cells, slots, emit, keep=None, supervisor=None):
        [cell] = cells
        ran.append(cell.key())
        emit(_ok_record(cell))
        return True
    monkeypatch.setattr(distributed, "_run_cells_with_timeout", fake)
    monkeypatch.setattr(time, "sleep", lambda s: None)

    spec = _spec_a()
    store = ResultStore(str(tmp_path / "cut.jsonl"))
    with store:
        coord = Coordinator(spec, store=store, lease_s=10.0)
        host, port = coord.start()
        real_submit = Coordinator.submit
        cut = {"armed": True}

        def sever_first_submit(self, worker, record, sweep=None):
            if cut["armed"]:
                cut["armed"] = False
                raise socket.timeout("severed mid-send")
            return real_submit(self, worker, record, sweep=sweep)
        monkeypatch.setattr(Coordinator, "submit", sever_first_submit)
        completed = run_worker(host, port, worker_id="w", poll_s=0.01,
                               reconnect=3, max_batch=4)
        coord.wait(timeout=30)
        coord.stop()
    assert completed == spec.size
    latest = store.latest_per_key()
    assert set(latest) == {c.key() for c in spec.cells()}
    # The cut-off record was re-sent, not recomputed.
    assert len(ran) == spec.size


# -- multi-sweep journal round-trip -------------------------------------------


def test_farm_journal_multi_tenant_round_trip(tmp_path):
    """Two named sweeps, coordinator drained mid-flight, restarted with
    resume: every tenant comes back (spec, priority, done keys), the
    remainder runs, and both stores end bit-identical per key to serial
    runs of the same specs."""
    spec_a, spec_b = _spec_a(), _spec_b()
    serial = {
        "alpha": {r["key"]: r for r in run_sweep(spec_a, store=None)},
        "beta": {r["key"]: r for r in run_sweep(spec_b, store=None)},
    }
    store_dir = str(tmp_path / "stores")
    os.makedirs(store_dir)
    journal_path = str(tmp_path / "farm.journal")

    coord = Coordinator(persistent=True, store_dir=store_dir,
                        lease_s=10.0, journal=QueueJournal(journal_path),
                        journal_interval_s=0.05)
    host, port = coord.start()
    submit_sweep(host, port, "alpha", spec_a)
    submit_sweep(host, port, "beta", spec_b, priority=3)
    # Run exactly one cell (from beta — higher priority), leave a second
    # one leased, then drain: genuinely mid-flight.
    from repro.experiments import run_cell
    sock, rfile, wfile = _handshake(host, port, "w-before")
    with sock:
        _send_msg(wfile, {"type": "lease", "max_cells": 2})
        reply = _recv_msg(rfile)
        assert reply["sweep"] == "beta" and len(reply["cells"]) == 2
        done_cell = Cell.from_dict(reply["cells"][0])
        _send_msg(wfile, {"type": "result",
                          "record": run_cell(done_cell),
                          "sweep": "beta"})
        assert _recv_msg(rfile)["accepted"]
        coord.drain(grace_s=0.2)
    coord.wait(timeout=10)
    assert coord.drained

    # Restart: --resume-journal semantics rebuild every tenant from the
    # journalled specs — nothing is resubmitted.
    coord2 = Coordinator(persistent=True, store_dir=store_dir,
                         lease_s=10.0,
                         journal=QueueJournal(journal_path),
                         resume_journal=True)
    host, port = coord2.start()
    sweeps = list_sweeps(host, port)
    assert set(sweeps) == {"alpha", "beta"}
    assert sweeps["beta"]["priority"] == 3
    # The completed cell survived the restart: the restored plan (like
    # any store-resumed sweep, counts are per session) excludes it.
    assert sweeps["beta"]["total"] == 1 and sweeps["beta"]["pending"] == 1
    assert sweeps["alpha"]["total"] == 2
    worker = threading.Thread(
        target=run_worker, args=(host, port),
        kwargs={"worker_id": "w-after", "poll_s": 0.05, "max_batch": 4},
        daemon=True)
    worker.start()
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if all(s["finished"]
               for s in coord2.sweeps_snapshot().values()):
            break
        time.sleep(0.1)
    else:
        pytest.fail(f"farm never drained: {coord2.sweeps_snapshot()}")
    coord2.drain(grace_s=2.0)
    worker.join(10)
    coord2.wait(timeout=10)
    coord2.stop()

    volatile = ("wall_s", "graph_s", "stage_wall", "attempts")
    for name, want in serial.items():
        got = ResultStore(
            os.path.join(store_dir, f"{name}.jsonl")).latest_per_key()
        assert set(got) == set(want), name
        for key in want:
            trimmed = {k: v for k, v in got[key].items()
                       if k not in volatile}
            assert trimmed == {k: v for k, v in want[key].items()
                               if k not in volatile}, key


def test_single_sweep_journal_refuses_foreign_farm_journal(tmp_path):
    """`repro sweep --serve --resume-journal` on a journal holding other
    tenants must refuse and point at `repro farm serve`."""
    journal = QueueJournal(str(tmp_path / "farm.journal"))
    coord = Coordinator(persistent=True, journal=journal,
                        journal_interval_s=0.05)
    coord.add_sweep("alpha", spec=_spec_a())
    coord.add_sweep("beta", spec=_spec_b())
    coord.stop()
    with pytest.raises(DistributedError, match="repro farm serve"):
        Coordinator(_spec_a(), journal=journal, resume_journal=True)


# -- farm CLI -----------------------------------------------------------------


@pytest.fixture
def live_farm_cli(tmp_path):
    coord = Coordinator(persistent=True, store_dir=str(tmp_path),
                        lease_s=10.0)
    host, port = coord.start()
    yield coord, f"{host}:{port}"
    coord.stop()


def test_cli_farm_submit_and_status(live_farm_cli, capsys):
    coord, endpoint = live_farm_cli
    rc = cli.main(["farm", "submit", "--connect", endpoint,
                   "--name", "alpha", "--sizes", "30", "40",
                   "--seeds", "0", "--methods", "luby", "--json"])
    assert rc == 0
    ack = json.loads(capsys.readouterr().out)
    assert ack["sweep"] == "alpha" and ack["created"]
    assert ack["cells to run"] == 2
    rc = cli.main(["farm", "submit", "--connect", endpoint,
                   "--name", "beta", "--sizes", "30",
                   "--seeds", "0", "1", "--methods", "rank-greedy",
                   "--priority", "2"])
    assert rc == 0
    capsys.readouterr()
    rc = cli.main(["farm", "status", "--connect", endpoint])
    assert rc == 0
    text = capsys.readouterr().out
    assert "sweep alpha: 0/2 done, 0 leased, 2 pending" in text
    assert "sweep beta:" in text and "priority 2" in text
    rc = cli.main(["farm", "status", "--connect", endpoint, "--json"])
    assert rc == 0
    snap = json.loads(capsys.readouterr().out)
    assert set(snap["sweeps"]) == {"alpha", "beta"}
    assert snap["persistent"] is True


def test_cli_farm_submit_conflict_and_attach_cancel(live_farm_cli,
                                                    capsys):
    coord, endpoint = live_farm_cli
    assert cli.main(["farm", "submit", "--connect", endpoint,
                     "--name", "alpha", "--sizes", "30",
                     "--seeds", "0", "--methods", "luby"]) == 0
    capsys.readouterr()
    # Same name, different matrix: refused with a readable error.
    rc = cli.main(["farm", "submit", "--connect", endpoint,
                   "--name", "alpha", "--sizes", "50",
                   "--seeds", "0", "--methods", "luby"])
    assert rc == 1
    assert "different spec" in capsys.readouterr().err
    # One-shot attach prints a snapshot and exits 0 (not finished).
    rc = cli.main(["farm", "attach", "--connect", endpoint,
                   "--name", "alpha", "--poll", "0", "--json"])
    assert rc == 0
    snap = json.loads(capsys.readouterr().out)
    assert snap["total"] == 1 and not snap["finished"]
    rc = cli.main(["farm", "cancel", "--connect", endpoint,
                   "--name", "alpha", "--json"])
    assert rc == 0
    ack = json.loads(capsys.readouterr().out)
    assert ack["dropped (pending)"] == 1
    # Attaching to a cancelled sweep reports it and exits 1.
    rc = cli.main(["farm", "attach", "--connect", endpoint,
                   "--name", "alpha", "--poll", "0"])
    assert rc == 1
    assert "cancelled" in capsys.readouterr().err


def test_cli_farm_unreachable(capsys):
    for verb in (["submit", "--name", "x", "--sizes", "30"],
                 ["attach", "--name", "x"],
                 ["cancel", "--name", "x"]):
        rc = cli.main(["farm", verb[0], "--connect", "127.0.0.1:1"]
                      + verb[1:])
        assert rc == 1
        assert f"farm {verb[0]}:" in capsys.readouterr().err


# -- report over per-sweep stores ---------------------------------------------


def test_cli_report_globs_and_merges_multiple_stores(tmp_path, capsys):
    stores = str(tmp_path / "stores")
    os.makedirs(stores)
    for name, spec in (("alpha", _spec_a()), ("beta", _spec_b())):
        with ResultStore(os.path.join(stores, f"{name}.jsonl")) as st:
            run_sweep(spec, store=st)
    rc = cli.main(["report", "--store", os.path.join(stores, "*.jsonl"),
                   "--json"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert {row["method"] for row in summary} == {"luby", "rank-greedy"}
    # Explicit multiple paths work the same; a miss names the paths.
    rc = cli.main(["report", "--results",
                   os.path.join(stores, "alpha.jsonl"),
                   os.path.join(stores, "beta.jsonl"), "--json"])
    assert rc == 0
    capsys.readouterr()
    rc = cli.main(["report", "--store", str(tmp_path / "nope*.jsonl")])
    assert rc == 1
    assert "no records found" in capsys.readouterr().err


# -- acceptance: two sweeps, two batching worker subprocesses -----------------


def test_two_sweeps_two_workers_batched_matches_serial(tmp_path):
    """Acceptance: a farm serving two named sweeps to two worker
    *subprocesses* with batching enabled produces per-sweep stores
    bit-identical per key to serial run_sweep of each spec."""
    spec_a, spec_b = _spec_a(), _spec_b()
    serial = {
        "alpha": {r["key"]: r for r in run_sweep(spec_a, store=None)},
        "beta": {r["key"]: r for r in run_sweep(spec_b, store=None)},
    }
    store_dir = str(tmp_path / "stores")
    os.makedirs(store_dir)
    coord = Coordinator(persistent=True, store_dir=store_dir,
                        lease_s=15.0)
    host, port = coord.start()
    submit_sweep(host, port, "alpha", spec_a)
    submit_sweep(host, port, "beta", spec_b)
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "repro", "worker",
             "--connect", f"{host}:{port}", "--id", f"w{i}",
             "--max-batch", "4", "--poll", "0.1", "--json"],
            env=_worker_env(), cwd=str(tmp_path),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for i in range(2)
    ]
    deadline = time.monotonic() + 120
    while time.monotonic() < deadline:
        if all(s["finished"] for s in coord.sweeps_snapshot().values()):
            break
        time.sleep(0.2)
    else:
        pytest.fail(f"farm never drained: {coord.sweeps_snapshot()}")
    coord.drain(grace_s=5.0)           # workers get shutdown, exit 0
    outs = [p.communicate(timeout=60) for p in procs]
    coord.wait(timeout=10)
    coord.stop()
    assert [p.returncode for p in procs] == [0, 0], outs
    volatile = ("wall_s", "graph_s", "stage_wall", "attempts")
    for name, want in serial.items():
        got = ResultStore(
            os.path.join(store_dir, f"{name}.jsonl")).latest_per_key()
        assert set(got) == set(want), name
        for key in want:
            trimmed = {k: v for k, v in got[key].items()
                       if k not in volatile}
            assert trimmed == {k: v for k, v in want[key].items()
                               if k not in volatile}, key
        assert all(r["status"] == "ok" for r in got.values())
