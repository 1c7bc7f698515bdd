"""The one wire layer of the sweep farm and the query server.

The farm (:mod:`repro.experiments.distributed`) and ``repro serve``
(:mod:`repro.serving`) speak JSON lines over TCP; only this module
knows the format:

* **Framing.**  One message per line, ``json.dumps(msg,
  sort_keys=True) + "\n"`` in UTF-8.  Every read is capped at
  :data:`MAX_FRAME_BYTES`; a longer line, or one that is not a JSON
  object, raises :class:`~repro.errors.WireError`.
* **Handshake.**  The first exchange on every connection::

      client -> {"type": "hello", "protocol": P, "version": V, ...}
      server <- {"type": "welcome", "version": V, ...}
              | {"type": "reject", "reason": ...}      # then close

  Protocol, version and extra fields are arguments.  A ``reject``
  raises :class:`~repro.errors.ProtocolMismatchError`.
* **Connections.**  A :class:`Client` reads each exchange under one
  *total* deadline (the timeout is re-armed to the time left before
  every ``recv``, so a peer trickling bytes cannot hold it past the
  deadline) and raises its owner's error type.  A :class:`Server` is
  the threaded TCP shell both servers run, and a :class:`Service` is
  the lifecycle around it they share: listen, drain, stop.
"""

from __future__ import annotations

import contextlib
import io
import json
import socket
import socketserver
import threading
import time
from typing import Callable, Optional

from repro.errors import ProtocolMismatchError, WireError

#: Longest protocol line read; a longer one raises :class:`WireError`.
MAX_FRAME_BYTES = 64 * 1024 * 1024
#: Default deadline for one client exchange (connect, handshake, or a
#: request and its reply).  Both servers answer every verb at once, so
#: only a dead or wedged peer is slower.
DEFAULT_REQUEST_TIMEOUT_S = 10.0
#: How often a draining :class:`Service` re-checks its in-flight work.
DRAIN_POLL_S = 0.02


# -- framing ------------------------------------------------------------------


def send_msg(wfile, msg: dict) -> None:
    wfile.write((json.dumps(msg, sort_keys=True) + "\n").encode("utf-8"))
    wfile.flush()


def recv_msg(rfile) -> Optional[dict]:
    """One message, or None when the peer closed the stream."""
    line = rfile.readline(MAX_FRAME_BYTES)
    if not line:
        return None
    if len(line) >= MAX_FRAME_BYTES and not line.endswith(b"\n"):
        raise WireError(f"protocol line longer than {MAX_FRAME_BYTES} bytes")
    try:
        msg = json.loads(line)
    except ValueError as exc:       # bad JSON or bad UTF-8
        raise WireError(f"malformed protocol line: {exc}")
    if not isinstance(msg, dict):
        raise WireError("protocol message is not an object")
    return msg


# -- handshake ----------------------------------------------------------------


def handshake(exchange: Callable[[dict], dict], protocol: str,
              version: int, error: type, **fields) -> dict:
    """The client half: send ``hello`` through ``exchange``, return the
    ``welcome``; any reply but ``reject`` or ``welcome`` raises ``error``."""
    welcome = exchange({"type": "hello", "protocol": protocol,
                        "version": version, **fields})
    kind = welcome.get("type")
    if kind == "reject":
        raise ProtocolMismatchError(
            welcome.get("reason", "handshake rejected"))
    if kind != "welcome":
        raise error(f"unexpected handshake reply {kind!r}")
    return welcome


def _refusal(hello: Optional[dict], protocol: str,
             version: int) -> Optional[str]:
    """Why the server half rejects ``hello`` (None: welcome it)."""
    if (not hello or hello.get("type") != "hello"
            or hello.get("protocol") != protocol):
        return f"not a {protocol} handshake"
    if hello.get("version") != version:
        return (f"protocol version {hello.get('version')!r} != {protocol} "
                f"version {version}; peers of different versions must "
                "not mix -- upgrade the older side")
    return None


# -- client -------------------------------------------------------------------


class _DeadlineReader(io.RawIOBase):
    """A socket's read side that re-arms the timeout to the time left
    before :attr:`deadline` (a :func:`time.monotonic` stamp) ahead of
    every ``recv``."""

    def __init__(self, sock):
        self._sock = sock
        self.deadline = 0.0

    def readable(self) -> bool:
        return True

    def arm(self) -> None:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise socket.timeout("deadline exhausted")
        self._sock.settimeout(left)

    def readinto(self, buf) -> int:
        self.arm()
        return self._sock.recv_into(buf)


class Client:
    """One client connection: request/reply exchanges, each under one
    total deadline; failures are raised as ``error``, naming ``peer``."""

    def __init__(self, sock, error: type, peer: str):
        self._sock = sock
        self.error = error
        self.peer = peer
        self._reader = _DeadlineReader(sock)
        self.rfile = io.BufferedReader(self._reader)
        self.wfile = sock.makefile("wb")

    @classmethod
    def connect(cls, host: str, port: int, timeout_s: float,
                error: type, peer: str) -> "Client":
        try:
            sock = socket.create_connection((host, port), timeout=timeout_s)
        except OSError as exc:
            raise error(f"cannot reach {peer} at {host}:{port}: {exc}")
        return cls(sock, error, peer)

    @contextlib.contextmanager
    def deadline(self, deadline: float):
        """Bound every read and write in the block by ``deadline`` (a
        :func:`time.monotonic` stamp); socket and wire failures come out
        as ``error``."""
        self._reader.deadline = deadline
        try:
            self._reader.arm()
            yield
        except socket.timeout:
            raise self.error(f"{self.peer} stopped responding")
        except WireError as exc:
            raise self.error(str(exc))
        except OSError as exc:
            raise self.error(f"connection to {self.peer} lost: {exc}")

    def exchange(self, msg: dict, deadline: float) -> dict:
        """Send ``msg`` and return the reply, both by ``deadline``."""
        with self.deadline(deadline):
            send_msg(self.wfile, msg)
            reply = recv_msg(self.rfile)
        if reply is None:
            raise self.error(f"{self.peer} closed the connection")
        return reply

    def close(self) -> None:
        # Shut down, not just close: a forked child may hold a copy of
        # the socket, and the peer must still see the end of stream.
        with contextlib.suppress(OSError):
            self._sock.shutdown(socket.SHUT_RDWR)
        for closer in (self.rfile.close, self.wfile.close,
                       self._sock.close):
            with contextlib.suppress(OSError):
                closer()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- server -------------------------------------------------------------------


class _Connection(socketserver.StreamRequestHandler):
    """One server-side thread per connected peer."""

    def handle(self):
        server: Server = self.server
        self.connection.settimeout(server.idle_s)
        try:
            hello = recv_msg(self.rfile)
            reason = _refusal(hello, server.protocol, server.version)
            if reason is not None:
                send_msg(self.wfile, {"type": "reject", "reason": reason})
                return
            send_msg(self.wfile, server.welcome)
            server.session(hello, self.rfile, self.wfile,
                           self.client_address)
        except server.quiet:
            pass


class Server(socketserver.ThreadingTCPServer):
    """The threaded TCP shell: one daemon thread per connection, reading
    under an ``idle_s`` per-read timeout.  Each peer gets the handshake
    (``welcome`` adds fields), then ``session(hello, rfile, wfile,
    address)``, the owner's dispatch loop.  A malformed frame, a socket
    error, or ``error`` from the session ends that connection quietly.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: tuple[str, int], protocol: str,
                 version: int, session: Callable, idle_s: float,
                 error: type, welcome: Optional[dict] = None):
        super().__init__(address, _Connection)
        self.protocol, self.version = protocol, version
        self.session = session
        self.idle_s = idle_s
        self.quiet = (error, WireError, OSError)
        self.welcome = {"type": "welcome", "version": version,
                        **(welcome or {})}

    def start(self) -> tuple[str, int]:
        """Serve from a daemon thread; returns the bound (host, port)."""
        threading.Thread(target=self.serve_forever,
                         kwargs={"poll_interval": 0.1}, daemon=True).start()
        return self.server_address[:2]

    def stop(self) -> None:
        self.shutdown()
        self.server_close()


class Service:
    """A long-running server's lifecycle: listen, drain, stop.

    A subclass sets ``drain_grace_s`` and defines ``start`` (calling
    :meth:`_listen`), ``_session`` (its verb loop) and three hooks:
    ``_busy()``, the work a drain waits for; ``_settle()``, run once
    when a drain ends; ``_close()``, what :meth:`stop` releases besides
    the listener.  ``_finished`` is set once a drain settled or
    :meth:`stop` ran, which ends every ``_finished.wait`` loop.
    """

    drain_grace_s: float

    def __init__(self, host: str, port: int):
        self._host, self._port = host, port
        self._server: Optional[Server] = None
        self._draining = threading.Event()
        self._finished = threading.Event()

    def _listen(self, protocol: str, version: int, idle_s: float,
                error: type, welcome: Optional[dict] = None
                ) -> tuple[str, int]:
        """Bind and serve from a daemon thread; returns (host, port)."""
        self._server = Server((self._host, self._port), protocol, version,
                              self._session, idle_s, error, welcome)
        self.address = self._server.start()
        return self.address

    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    def drain(self, grace_s: Optional[float] = None) -> None:
        """Refuse new work, give in-flight work up to ``grace_s``
        (default ``drain_grace_s``) to land, then settle.  Signal-handler
        safe: a watcher thread does the waiting."""
        if self._draining.is_set():
            return
        self._draining.set()
        budget = self.drain_grace_s if grace_s is None else grace_s
        threading.Thread(target=self._drain_watch, args=(budget,),
                         daemon=True).start()

    def _drain_watch(self, grace_s: float) -> None:
        deadline = time.monotonic() + grace_s
        while (time.monotonic() < deadline
                and not self._finished.is_set() and self._busy()):
            time.sleep(DRAIN_POLL_S)
        self._settle()
        self._finished.set()

    def stop(self) -> None:
        if self._server is not None:
            self._server.stop()
            self._server = None
        self._close()
        self._finished.set()

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
