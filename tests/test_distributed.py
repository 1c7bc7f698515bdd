"""Tests for distributed multi-host sweep execution
(repro.experiments.distributed): the lease queue, the versioned wire
protocol, coordinator/worker end-to-end runs, and the CLI surface.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading

import pytest

from repro import cli, wire
from repro.errors import ProtocolMismatchError, ReproError
from repro.experiments import (
    Cell,
    Coordinator,
    ResultStore,
    SweepSpec,
    WorkQueue,
    run_cell,
    run_sweep,
    run_worker,
)
from repro.experiments import distributed
from repro.experiments.distributed import (
    PROTOCOL,
    PROTOCOL_VERSION,
    _recv_msg,
    _send_msg,
)

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
)


def _worker_env():
    env = dict(os.environ)
    extra = os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    env["PYTHONPATH"] = SRC + extra
    return env


# -- the lease queue ----------------------------------------------------------


def test_work_queue_lease_heartbeat_requeue():
    cells = list(SweepSpec(sizes=(30, 40), seeds=(0,),
                           methods=("luby",)).cells())
    q = WorkQueue(cells, lease_s=1.0, max_requeues=1)
    a = q.lease("w1", now=0.0)
    assert a.key() == cells[0].key()
    assert q.heartbeat("w1", a.key(), now=0.8)        # extends to 1.8
    assert not q.heartbeat("w2", a.key(), now=0.8)    # not the holder
    assert q.reap(now=1.5) == []                      # extended, still held
    b = q.lease("w2", now=1.5)
    assert b.key() == cells[1].key()
    assert q.lease("w3", now=1.5) is None             # nothing pending
    assert q.complete("w2", b.key(), ok=True)
    assert not q.complete("w2", b.key(), ok=True)     # duplicate: dropped
    # w1 goes silent: its lease expires and the cell is re-served.
    assert q.reap(now=2.0) == []                      # requeue 1 (of max 1)
    a2 = q.lease("w3", now=2.0)
    assert a2.key() == a.key()
    assert not q.finished()
    # A second expiry exceeds max_requeues: the cell is declared lost so
    # the sweep still terminates.
    lost = q.reap(now=10.0)
    assert [c.key() for c in lost] == [a.key()]
    assert q.finished() and q.outstanding() == 0


def test_work_queue_late_result_supersedes_lost():
    """A worker that was presumed dead but finishes anyway still lands
    its record: last-record-wins over the recorded 'lost' line."""
    cells = list(SweepSpec(sizes=(30,), methods=("luby",)).cells())
    q = WorkQueue(cells, lease_s=0.1, max_requeues=0)
    a = q.lease("w1", now=0.0)
    assert [c.key() for c in q.reap(now=1.0)] == [a.key()]
    assert q.complete("w1", a.key(), ok=True)         # supersedes lost
    assert not q.complete("w1", a.key(), ok=True)     # but only once


def test_work_queue_ok_supersedes_completed_failure():
    """A presumed-dead worker may submit a timeout record for a key that
    a re-served worker then finishes successfully: the real ok record
    must still land (last-record-wins), not be dropped as a duplicate."""
    cells = list(SweepSpec(sizes=(30,), methods=("luby",)).cells())
    q = WorkQueue(cells, lease_s=0.1, max_requeues=5)
    a = q.lease("A", now=0.0)
    assert q.reap(now=1.0) == []                      # requeued, not lost
    assert q.lease("B", now=1.0).key() == a.key()
    assert q.complete("A", a.key(), ok=False)         # A's timeout lands
    assert q.complete("B", a.key(), ok=True)          # B's ok supersedes
    assert not q.complete("B", a.key(), ok=True)      # but only once
    assert q.finished()


def test_work_queue_release_disconnected_worker():
    cells = list(SweepSpec(sizes=(30, 40), seeds=(0,),
                           methods=("luby",)).cells())
    q = WorkQueue(cells, lease_s=60.0, max_requeues=1)
    a = q.lease("w1", now=0.0)
    q.lease("w2", now=0.0)
    assert q.release_worker("w1") == [None]           # back to pending
    assert q.lease("w3", now=0.0).key() == a.key()
    assert q.release_worker("ghost") == []


# -- wire format --------------------------------------------------------------


def test_cell_wire_round_trip_and_schema_skew():
    cell = Cell("gnp", 30, 1, "luby", engine="async", latency="fixed",
                timeout_s=2.0, retries=1)
    assert Cell.from_dict(json.loads(json.dumps(cell.to_dict()))) == cell
    with pytest.raises(ReproError):
        Cell.from_dict({**cell.to_dict(), "quantum_knob": 7})


def test_coordinator_rejects_version_skew(monkeypatch):
    """A versioned handshake: a worker speaking another protocol version
    — a newer one, or version 1 with its single-cell leases and untagged
    results — is rejected (its records may follow other conventions),
    as is a stray non-protocol client.  A rejected worker raises
    ProtocolMismatchError without retrying."""
    coord = Coordinator(SweepSpec(sizes=(30,), methods=("luby",)),
                        lease_s=1.0)
    host, port = coord.start()
    real_send = distributed._send_msg
    try:
        for version in (PROTOCOL_VERSION + 1, 1):
            with socket.create_connection((host, port)) as sock:
                rfile, wfile = sock.makefile("rb"), sock.makefile("wb")
                _send_msg(wfile, {"type": "hello", "protocol": PROTOCOL,
                                  "version": version, "worker": "skewed"})
                reply = _recv_msg(rfile)
                assert reply["type"] == "reject"
                assert "version" in reply["reason"]
            # The same skew through run_worker: its hello claims
            # ``version``; the reject is final, not a retried outage.
            monkeypatch.setattr(
                distributed, "_send_msg",
                lambda wfile, msg, v=version: real_send(
                    wfile, {**msg, "version": v}
                    if msg["type"] == "hello" else msg))
            connects = []

            def connect():
                connects.append(1)
                return socket.create_connection((host, port))

            with pytest.raises(ProtocolMismatchError):
                run_worker(host, port, worker_id="skewed", reconnect=3,
                           connect=connect)
            assert len(connects) == 1
        with socket.create_connection((host, port)) as sock:
            rfile, wfile = sock.makefile("rb"), sock.makefile("wb")
            _send_msg(wfile, {"type": "hello", "protocol": "other"})
            assert _recv_msg(rfile)["type"] == "reject"
    finally:
        coord.stop()


def test_worker_raises_on_reject():
    srv = socket.create_server(("127.0.0.1", 0))
    host, port = srv.getsockname()[:2]

    def serve_one():
        conn, _ = srv.accept()
        with conn:
            rfile, wfile = conn.makefile("rb"), conn.makefile("wb")
            _recv_msg(rfile)
            _send_msg(wfile, {"type": "reject", "reason": "too old"})

    threading.Thread(target=serve_one, daemon=True).start()
    with pytest.raises(ProtocolMismatchError):
        run_worker(host, port, worker_id="w")
    srv.close()


def test_oversized_frame_drops_only_that_connection(monkeypatch):
    """A newline-free stream past the frame cap ends that connection
    instead of growing the coordinator's buffer; a well-formed worker
    is still served afterwards."""
    monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 4096)
    spec = SweepSpec(families=("gnp",), sizes=(30,), seeds=(0,),
                     methods=("luby",))
    coord = Coordinator(spec)
    host, port = coord.start()
    try:
        with socket.create_connection((host, port), timeout=5) as sock:
            rfile, wfile = sock.makefile("rb"), sock.makefile("wb")
            _send_msg(wfile, {"type": "hello", "protocol": PROTOCOL,
                              "version": PROTOCOL_VERSION, "worker": "x"})
            assert _recv_msg(rfile)["type"] == "welcome"
            try:
                sock.sendall(b"x" * 65536)
                assert rfile.readline() == b""
            except ConnectionResetError:
                pass        # closed with our bytes still unread: RST
        assert run_worker(host, port, worker_id="w", poll_s=0.05) == 1
    finally:
        coord.stop()


@pytest.mark.parametrize("bad", [
    {"type": "lease", "max_cells": "many"},
    {"type": "result", "record": {"key": ["not", "a", "key"]},
     "sweep": "default"},
], ids=["lease-max-cells", "result-key"])
def test_malformed_worker_message_drops_only_that_worker(bad, capfd):
    """A malformed worker message drops that worker and releases its
    leases, with nothing printed; a well-formed worker is still
    served."""
    spec = SweepSpec(families=("gnp",), sizes=(30,), seeds=(0,),
                     methods=("luby",))
    coord = Coordinator(spec, lease_s=30.0)
    host, port = coord.start()
    try:
        with socket.create_connection((host, port), timeout=5) as sock:
            rfile, wfile = sock.makefile("rb"), sock.makefile("wb")
            _send_msg(wfile, {"type": "hello", "protocol": PROTOCOL,
                              "version": PROTOCOL_VERSION, "worker": "x"})
            assert _recv_msg(rfile)["type"] == "welcome"
            _send_msg(wfile, {"type": "lease", "max_cells": 1})
            assert _recv_msg(rfile)["type"] == "cells"
            _send_msg(wfile, bad)
            assert rfile.readline() == b""
        # The lease went back at once, not after 30 s of expiry.
        assert coord.queue.counts()["leased"] == 0
        assert run_worker(host, port, worker_id="w", poll_s=0.05) == 1
        assert coord.wait(timeout=5)[0]["status"] == "ok"
    finally:
        coord.stop()
    assert capfd.readouterr().err == ""


# -- coordinator + worker -----------------------------------------------------


def test_coordinator_single_worker_and_resume(tmp_path):
    spec = SweepSpec(families=("gnp",), sizes=(30,), seeds=(0, 1),
                     methods=("luby",))
    store = ResultStore(str(tmp_path / "one.jsonl"))
    with store:
        coord = Coordinator(spec, store=store, lease_s=5.0)
        host, port = coord.start()
        ran = run_worker(host, port, worker_id="t1", poll_s=0.05)
        fresh = coord.wait(timeout=30)
    assert ran == 2 and len(fresh) == 2
    assert {r["key"] for r in store.load()} == \
        {c.key() for c in spec.cells()}
    assert all(r["attempts"] == 1 for r in fresh)
    # Resume semantics match run_sweep: a second serve of the same spec
    # against the same store has nothing left to hand out.
    coord2 = Coordinator(spec, store=store)
    assert coord2.total == 0
    assert coord2.wait(timeout=1) == []


def test_dead_worker_cells_requeued(tmp_path):
    """A worker that leases a cell and drops the connection mid-run: the
    lease is released and a healthy worker completes the full spec."""
    spec = SweepSpec(families=("gnp",), sizes=(30,), seeds=(0, 1),
                     methods=("luby",))
    store = ResultStore(str(tmp_path / "requeue.jsonl"))
    with store:
        coord = Coordinator(spec, store=store, lease_s=0.5)
        host, port = coord.start()
        with socket.create_connection((host, port)) as sock:
            rfile, wfile = sock.makefile("rb"), sock.makefile("wb")
            _send_msg(wfile, {"type": "hello", "protocol": PROTOCOL,
                              "version": PROTOCOL_VERSION,
                              "worker": "doomed"})
            assert _recv_msg(rfile)["type"] == "welcome"
            _send_msg(wfile, {"type": "lease", "max_cells": 1})
            assert _recv_msg(rfile)["type"] == "cells"
            # ... dies here without a result.
        ran = run_worker(host, port, worker_id="healthy", poll_s=0.05)
        fresh = coord.wait(timeout=30)
    assert ran == 2 and len(fresh) == 2
    assert {r["status"] for r in fresh} == {"ok"}


def test_coordinator_wait_blocks_until_workers_finish():
    """wait() on a started coordinator returns once a worker has
    recorded every cell — the single-sweep serve loop behind
    `repro sweep --serve`."""
    spec = SweepSpec(families=("gnp",), sizes=(30,), seeds=(0,),
                     methods=("luby",))
    coord = Coordinator(spec)
    host, port = coord.start()
    result = {}

    def coordinate():
        result["fresh"] = coord.wait(timeout=30)

    t = threading.Thread(target=coordinate, daemon=True)
    t.start()
    ran = run_worker(host, port, worker_id="w", poll_s=0.05)
    t.join(30)
    assert not t.is_alive()
    assert ran == 1 and len(result["fresh"]) == 1


def test_two_worker_distributed_sweep_matches_serial(tmp_path):
    """Acceptance: a coordinator plus two worker *subprocesses* produce a
    merged store whose per-key records are bit-identical (every measured
    field — messages, rounds, counts) to a serial run_sweep of the same
    fixed-seed spec."""
    spec = SweepSpec(families=("gnp", "regular"), sizes=(30, 40),
                     seeds=(0, 1), methods=("luby",))
    serial = {r["key"]: r for r in run_sweep(spec, store=None, workers=0)}
    store = ResultStore(str(tmp_path / "merged.jsonl"))
    with store:
        coord = Coordinator(spec, store=store, host="127.0.0.1", port=0,
                            lease_s=10.0)
        host, port = coord.start()
        procs = [
            subprocess.Popen(
                [sys.executable, "-m", "repro", "worker",
                 "--connect", f"{host}:{port}", "--id", f"w{i}", "--json"],
                env=_worker_env(), cwd=str(tmp_path),
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for i in range(2)
        ]
        # Linger as `repro sweep --serve` does: the sweep can end before
        # the second worker connects, which must then hear `shutdown`.
        fresh = coord.wait(timeout=120, linger_s=distributed.DEFAULT_LINGER_S)
        outs = [p.communicate(timeout=60) for p in procs]
    assert [p.returncode for p in procs] == [0, 0], outs
    merged = {r["key"]: r for r in store.load()}
    assert set(merged) == set(serial)
    assert len(fresh) == len(serial)
    # Identical modulo provenance: wall-clock (total, graph build and
    # per stage) and the farm's attempts stamp (the serial pool path doesn't
    # produce one).
    volatile = ("wall_s", "graph_s", "stage_wall", "attempts")
    for key, want in serial.items():
        got = {k: v for k, v in merged[key].items() if k not in volatile}
        assert got == {k: v for k, v in want.items()
                       if k not in volatile}, key
    # Every cell ran remotely, split across the two workers.
    counts = [json.loads(out)["cells run"] for out, _ in outs]
    assert sum(counts) == len(serial)


# -- CLI ----------------------------------------------------------------------


def test_cli_sweep_serve_tells_a_late_worker_to_shut_down(tmp_path):
    """A worker that connects after `repro sweep --serve` recorded its
    last cell is told `shutdown` (exit 0, no cells run), not refused:
    the one-shot host lingers after completion like `farm serve`."""
    def repro(*argv):
        return subprocess.Popen(
            [sys.executable, "-m", "repro", *argv], env=_worker_env(),
            cwd=str(tmp_path), stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True)

    serve = repro("sweep", "--serve", "127.0.0.1:0", "--families", "gnp",
                  "--sizes", "30", "--seeds", "0", "--methods", "luby",
                  "--status-interval", "0",
                  "--out", str(tmp_path / "late.jsonl"))
    try:
        banner = serve.stdout.readline()
        endpoint = banner.split(" on ", 1)[1].split()[0]
        first = repro("worker", "--connect", endpoint, "--json")
        out, err = first.communicate(timeout=60)
        assert first.returncode == 0, err
        assert json.loads(out)["cells run"] == 1
        late = repro("worker", "--connect", endpoint, "--reconnect", "0",
                     "--json")
        out, err = late.communicate(timeout=60)
        assert late.returncode == 0, err
        assert json.loads(out)["cells run"] == 0
        serve.communicate(timeout=60)
        assert serve.returncode == 0
    finally:
        serve.kill()


def test_cli_sweep_dry_run(tmp_path, capsys):
    out = str(tmp_path / "plan.jsonl")
    argv = ["sweep", "--families", "gnp", "--sizes", "30", "--seeds",
            "0", "1", "--methods", "luby", "--out", out]
    rc = cli.main(argv + ["--dry-run", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["to_run"] == 2 and len(payload["plan"]) == 2
    assert not os.path.exists(out)          # nothing ran, nothing stored
    # Resume-aware: a stored cell shrinks the plan.
    store = ResultStore(out)
    with store:
        store.append(run_cell(Cell("gnp", 30, 0, "luby")))
    rc = cli.main(argv + ["--dry-run"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "1 of 2 cells" in text


def test_cli_worker_unreachable_coordinator(capsys):
    # --reconnect 0: fail immediately instead of the default backoff
    # retries (the reconnect path has its own tests in test_chaos.py).
    rc = cli.main(["worker", "--connect", "127.0.0.1:1",
                   "--reconnect", "0"])
    assert rc == 1
    assert "worker:" in capsys.readouterr().err


def test_cli_endpoint_parsing():
    assert cli._parse_endpoint("9100", "0.0.0.0", "--serve") == \
        ("0.0.0.0", 9100)
    assert cli._parse_endpoint("10.0.0.7:9100", "0.0.0.0", "--serve") == \
        ("10.0.0.7", 9100)
    with pytest.raises(SystemExit):
        cli._parse_endpoint("nine-thousand", "0.0.0.0", "--serve")
