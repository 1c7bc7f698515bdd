"""The shared wire layer (:mod:`repro.wire`) at every client entry point.

One table: each client of the farm and of the query server, against a
fake peer that stays silent, trickles bytes, floods a reply past the
frame cap, rejects the handshake, or welcomes and then trickles.  Each
must fail in its own error type, and within its deadline (the flood
well before it).  Framing checks and the stop contract of the shared
service lifecycle (:class:`repro.wire.Service`) ride along.
"""

from __future__ import annotations

import io
import json
import socket
import threading
import time

import pytest

from repro import wire
from repro.errors import (
    DistributedError,
    ProtocolMismatchError,
    ServingError,
    WireError,
)
from repro.experiments import SweepSpec
from repro.experiments.distributed import (
    Coordinator,
    QueueJournal,
    cancel_sweep,
    fetch_status,
    fetch_sweep,
    list_sweeps,
    run_worker,
    submit_sweep,
)
from repro.serving import (
    QueryServer,
    build_query,
    fetch_serve_status,
    query_once,
)

from scripted_children import spawn_script

_CAP = 4096
_SPEC = SweepSpec(families=("gnp",), sizes=(30,), seeds=(0,),
                  methods=("luby",))

#: entry point -> (call(host, port, timeout_s), the client's error type)
CLIENTS = {
    "fetch_status": (lambda h, p, t: fetch_status(h, p, timeout_s=t),
                     DistributedError),
    "submit_sweep": (lambda h, p, t: submit_sweep(h, p, "a", _SPEC,
                                                  timeout_s=t),
                     DistributedError),
    "fetch_sweep": (lambda h, p, t: fetch_sweep(h, p, "a", timeout_s=t),
                    DistributedError),
    "list_sweeps": (lambda h, p, t: list_sweeps(h, p, timeout_s=t),
                    DistributedError),
    "cancel_sweep": (lambda h, p, t: cancel_sweep(h, p, "a", timeout_s=t),
                     DistributedError),
    "run_worker": (lambda h, p, t: run_worker(h, p, worker_id="w",
                                              reconnect=0,
                                              request_timeout_s=t),
                   DistributedError),
    "fetch_serve_status": (lambda h, p, t: fetch_serve_status(
        h, p, timeout_s=t), ServingError),
    # The query's own deadline (plus grace) extends its exchange, so it
    # is kept short for the peer that welcomes and then trickles.
    "query_once": (lambda h, p, t: query_once(
        h, p, build_query("coloring", edges=[(0, 1)], deadline_s=0.1),
        timeout_s=t), ServingError),
}

#: peer -> (timeout_s passed to the client, error message fragment)
PEERS = {
    "silent": (0.5, "stopped responding"),
    "trickle": (0.5, "stopped responding"),
    # A long deadline: the frame cap, not the clock, must stop the read.
    "flood": (30.0, "longer than"),
    "reject": (5.0, "skew"),
    "trickle-after-welcome": (0.5, "stopped responding"),
}


class _BadPeer:
    """A TCP peer that misbehaves on every connection it accepts."""

    def __init__(self, behaviour: str):
        self._behaviour = behaviour
        self._stop = threading.Event()
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()[:2]
        threading.Thread(target=self._accept_loop, daemon=True).start()

    def _accept_loop(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            threading.Thread(target=self._serve, args=(conn,),
                             daemon=True).start()

    def _serve(self, conn) -> None:
        with conn:
            rfile = conn.makefile("rb")
            try:
                hello = json.loads(rfile.readline())
                if self._behaviour == "reject":
                    conn.sendall(b'{"reason": "version skew", '
                                 b'"type": "reject"}\n')
                    return
                if self._behaviour == "trickle-after-welcome":
                    welcome = {"type": "welcome", "lease_s": 30.0,
                               "version": hello["version"]}
                    conn.sendall(json.dumps(welcome).encode() + b"\n")
                    rfile.readline()
                if self._behaviour == "flood":
                    conn.sendall(b"x" * (16 * _CAP))
                elif "trickle" in self._behaviour:
                    while not self._stop.wait(0.1):
                        conn.sendall(b" ")
                self._stop.wait()
            except (OSError, ValueError):
                return

    def close(self) -> None:
        self._stop.set()
        self._listener.close()


@pytest.mark.parametrize("peer", list(PEERS))
@pytest.mark.parametrize("client", list(CLIENTS))
def test_client_against_bad_peer(client, peer, monkeypatch):
    """Every client entry point fails cleanly against a bad peer: in
    its own error type (``ProtocolMismatchError`` for a reject), and
    within 5 s -- a silent or trickling peer is bounded by the total
    deadline, a flood by the frame cap."""
    monkeypatch.setattr(wire, "MAX_FRAME_BYTES", _CAP)
    call, error = CLIENTS[client]
    timeout_s, fragment = PEERS[peer]
    if peer == "reject":
        error = ProtocolMismatchError
    fake = _BadPeer(peer)
    try:
        start = time.monotonic()
        with pytest.raises(error, match=fragment) as caught:
            call(*fake.address, timeout_s)
        assert time.monotonic() - start < 5.0
    finally:
        fake.close()
    if peer != "reject":
        assert not isinstance(caught.value, ProtocolMismatchError)


def test_frames_are_sorted_json_lines():
    """The bytes on the wire: ``json.dumps(msg, sort_keys=True)`` plus a
    newline, and they read back as the same message."""
    out = io.BytesIO()
    wire.send_msg(out, {"version": 2, "type": "hello", "a": [1, "x"]})
    assert out.getvalue() == \
        b'{"a": [1, "x"], "type": "hello", "version": 2}\n'
    assert wire.recv_msg(io.BytesIO(out.getvalue())) == \
        {"a": [1, "x"], "type": "hello", "version": 2}
    assert wire.recv_msg(io.BytesIO(b"")) is None


@pytest.mark.parametrize("line,fragment", [
    (b"not json\n", "malformed"),
    (b"\xff\xfe\n", "malformed"),
    (b"[1, 2]\n", "not an object"),
    (b"x" * (2 * _CAP), "longer than"),
])
def test_bad_frames_raise_wire_error(line, fragment, monkeypatch):
    monkeypatch.setattr(wire, "MAX_FRAME_BYTES", _CAP)
    with pytest.raises(WireError, match=fragment):
        wire.recv_msg(io.BytesIO(line))


SERVICES = {
    "coordinator": lambda tmp: Coordinator(
        persistent=True, journal=QueueJournal(str(tmp / "farm.journal"))),
    "query-server": lambda tmp: QueryServer(spawn=spawn_script()),
}


@pytest.mark.parametrize("service", sorted(SERVICES))
def test_stop_ends_the_service(service, tmp_path):
    """``start(); stop()`` leaves no thread the service started, and
    ``wait`` returns at once instead of waiting for a drain."""
    before = set(threading.enumerate())
    server = SERVICES[service](tmp_path)
    server.start()
    assert set(threading.enumerate()) - before      # it did start some
    server.stop()
    deadline = time.monotonic() + 2.0
    while (set(threading.enumerate()) - before
           and time.monotonic() < deadline):
        time.sleep(0.01)
    assert not set(threading.enumerate()) - before
    start = time.monotonic()
    server.wait(timeout=1)
    assert time.monotonic() - start < 0.5
