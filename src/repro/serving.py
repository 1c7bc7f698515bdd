"""``repro serve``: symmetry-breaking as a resilient query service.

The examples (frequency assignment, wireless MIS scheduling) are
one-shot scripts; this module promotes them to a long-running TCP server
that answers coloring/MIS queries under concurrent load — the ROADMAP's
"millions of users" axis made concrete, and first of all a *robustness*
problem.  The serving spine:

* **Per-request deadlines with graceful degradation.**  Every query
  carries (or inherits) a wall-clock deadline.  A solve still running at
  the deadline has its solver child killed, and the client receives a
  ``degraded=true`` answer from a fast centralized greedy fallback
  instead of a hung connection: a valid (Δ+1)-coloring or MIS, just
  without the paper's o(m) message guarantee (the locality lower bounds
  in PAPERS.md are exactly why a cheap local answer is always
  available).
* **Bounded queue with explicit load-shedding.**  At most ``solvers``
  solver children run at once and at most ``max_pending`` further
  queries may wait; past that, new queries get an immediate
  ``overloaded`` response with a ``retry_after_s`` hint instead of
  growing an unbounded backlog.
* **Solver supervision.**  Solvers run in warm, reusable child
  processes (:mod:`repro.supervise`, the same supervisor the sweep farm
  uses), one query at a time each, with one cyclic GC after each query
  (the heap a child inherits at fork is frozen, so that GC walks only
  the child's own objects).
  A child is replaced only when it is killed, crashes, misses a
  deadline or has grown past ``supervise.MAX_WARM_GROWTH_MB``; a
  crashing or SIGKILL'd child costs one retry and then a
  structured ``error`` response — never a dead server.
* **Keyed result cache.**  Results are cached under a fingerprint of
  (problem, method, seed, epsilon, graph), LRU-bounded, so repeat
  queries are O(1) and never touch a solver slot.
* **Graceful drain.**  SIGTERM/SIGINT answer every in-flight query,
  refuse new ones, and exit 0; a read-only ``status`` verb
  (``repro serve-status``) reports queries/s, latency percentiles,
  cache hit rate, and shed/degraded/error counts without disturbing
  the service.

Wire protocol
-------------
The framing and versioned handshake of :mod:`repro.wire`, shared with
the sweep farm:

    client -> {"type": "hello", "protocol": "repro-serve", "version": V}
    server <- {"type": "welcome", "version": V}
            | {"type": "reject", "reason": ...}          # then close
    client -> {"type": "query", "problem": ..., "method": ...,
               "edges": [[u, v], ...] | "graph_file": PATH
               | "family"/"n"/"p"/"graph_seed",
               "seed": S, "epsilon": E, "deadline_s": D}
    server <- {"type": "result", "status": "ok", "degraded": bool,
               "cached": bool, ...}
            | {"type": "overloaded", "retry_after_s": S}
            | {"type": "error", "error": ..., "retriable": bool}
    client -> {"type": "status"}                         # read-only
    server <- {"type": "status", ...}

Connections are persistent (many queries per connection); every
client-side exchange runs under one total deadline, so a dead or
trickling server is detected in seconds.  See ``docs/serving.md`` for
the full contract and failure matrix.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro import api
from repro.coloring.verify import coloring_violations
from repro.errors import ReproError, ServingError
from repro.graphs.analysis import is_connected
from repro.graphs.core import Graph
from repro.graphs.generators import family_graph
from repro.graphs.io import load_edge_list
from repro.mis.greedy import sequential_greedy_mis
from repro.mis.verify import mis_violations
from repro.supervise import Supervisor, spawn_child
from repro.util.collector import collector_paused
from repro.wire import (
    DEFAULT_REQUEST_TIMEOUT_S,
    Client,
    Service,
    handshake,
    recv_msg,
    send_msg,
)

PROTOCOL = "repro-serve"
PROTOCOL_VERSION = 1

DEFAULT_SOLVERS = 2
DEFAULT_MAX_PENDING = 8
DEFAULT_CACHE_SIZE = 128
DEFAULT_DEADLINE_S = 30.0
#: Extra wall-clock allowance past a request's deadline for the
#: degraded-mode fallback to be computed and the response written.
DEFAULT_GRACE_S = 2.0
#: A connection silent this long is a dead or wedged client; its handler
#: thread closes the socket instead of being held hostage.
DEFAULT_IDLE_S = 300.0
#: Latency samples kept for the p50/p99 estimates in ``status``.
_LATENCY_WINDOW = 2048
_DRAINING_REPLY = {"type": "overloaded", "draining": True,
                   "retry_after_s": None, "error": "server is draining"}


# ---------------------------------------------------------------------------
# Degraded-mode fallbacks (centralized, O(n + m), always valid)
# ---------------------------------------------------------------------------


def greedy_coloring(graph: Graph) -> list[int]:
    """First-fit (Δ+1)-coloring in vertex order — the degraded answer.

    Deterministic, message-free, and always proper: vertex v sees at
    most deg(v) occupied colors, so a color in 0..Δ is always free.
    """
    colors: list[Optional[int]] = [None] * graph.n
    for v in range(graph.n):
        taken = {colors[u] for u in graph.neighbors(v)
                 if colors[u] is not None}
        c = 0
        while c in taken:
            c += 1
        colors[v] = c
    return colors


def greedy_mis(graph: Graph) -> list[bool]:
    """Sequential greedy MIS in vertex order — the degraded answer."""
    chosen = sequential_greedy_mis(graph, range(graph.n))
    return [v in chosen for v in range(graph.n)]


def degraded_answer(problem: str, graph: Graph) -> dict:
    """The fallback payload for a query whose deadline expired.

    Verified before it leaves the server: a degraded answer trades the
    o(m) message guarantee away, never correctness.
    """
    if problem == "coloring":
        colors = greedy_coloring(graph)
        assert not coloring_violations(graph, colors)
        return {"colors": colors,
                "num_colors": len(set(colors)),
                "palette_bound": graph.max_degree() + 1,
                "valid": True}
    in_mis = greedy_mis(graph)
    bad = mis_violations(graph, in_mis)
    assert not bad["independence"] and not bad["maximality"]
    return {"in_mis": in_mis, "mis_size": sum(in_mis), "valid": True}


# ---------------------------------------------------------------------------
# Requests
# ---------------------------------------------------------------------------


def build_query(problem: str, method: Optional[str] = None,
                edges=None, n: Optional[int] = None,
                graph_file: Optional[str] = None,
                family: Optional[str] = None, p: float = 0.2,
                graph_seed: int = 0, seed: int = 0,
                epsilon: float = 0.5,
                deadline_s: Optional[float] = None) -> dict:
    """Assemble a query message (the client half of the wire contract).

    Exactly one graph source: inline ``edges`` (with optional ``n``),
    a server-side ``graph_file`` path, or a generated ``family``.
    """
    if method is None:
        # A problem's first catalogued method is its default.
        method = next(iter(api.method_names(problem)), None)
    msg: dict = {"type": "query", "problem": problem, "method": method,
                 "seed": seed, "epsilon": epsilon}
    if deadline_s is not None:
        msg["deadline_s"] = deadline_s
    if edges is not None:
        msg["edges"] = [[int(u), int(v)] for u, v in edges]
        if n is not None:
            msg["n"] = n
    elif graph_file is not None:
        msg["graph_file"] = graph_file
    elif family is not None:
        msg.update({"family": family, "n": n or 100, "p": p,
                    "graph_seed": graph_seed})
    else:
        raise ServingError("query needs edges, graph_file, or family")
    return msg


@collector_paused()
def _request_graph(msg: dict) -> Graph:
    """Build the query's graph; raises :class:`ReproError` on bad input.

    The build runs with the cyclic garbage collector paused
    (:func:`repro.util.collector.collector_paused`), also in a
    connection thread: the pause is process-wide and costs only speed.
    """
    if "edges" in msg:
        edges = [(int(u), int(v)) for u, v in msg["edges"]]
        n = msg.get("n")
        if n is None:
            n = 1 + max((max(u, v) for u, v in edges), default=-1)
        graph = Graph(int(n), edges)
    elif "graph_file" in msg:
        graph = load_edge_list(str(msg["graph_file"]))
    elif "family" in msg:
        graph = family_graph(str(msg["family"]), int(msg.get("n", 100)),
                             p=float(msg.get("p", 0.2)),
                             seed=int(msg.get("graph_seed", 0)))
    else:
        raise ReproError("query carries no graph "
                         "(edges, graph_file, or family)")
    if graph.n == 0:
        raise ReproError("query graph has no vertices")
    if not is_connected(graph):
        # The engines' flood/broadcast stages assume one component; fail
        # fast with a clear error instead of a deep ConvergenceError.
        raise ReproError("query graph is not connected")
    return graph


def _validate_query(msg: dict) -> tuple[str, str]:
    problem = msg.get("problem")
    method = msg.get("method")
    if problem not in ("coloring", "mis"):
        raise ReproError(f"unknown problem {problem!r} "
                         "(coloring or mis)")
    known = api.method_names(problem)
    if method not in known:
        raise ReproError(
            f"unknown {problem} method {method!r}; "
            f"known: {', '.join(known)}")
    return problem, method


def request_fingerprint(problem: str, method: str, seed: int,
                        epsilon: float, graph: Graph) -> str:
    """Cache key: what the solve measures, on the *built* graph.

    Fingerprinting the constructed graph (not the request's spelling)
    lets an inline edge list, a file path, and a generated family that
    all denote the same graph share one cache entry.
    """
    digest = hashlib.sha256()
    digest.update(
        f"{problem}|{method}|s{seed}|eps{epsilon:g}|n{graph.n}|".encode())
    for u, v in graph.edges():
        digest.update(f"{u},{v};".encode())
    return digest.hexdigest()[:32]


# ---------------------------------------------------------------------------
# Supervised solver subprocesses
# ---------------------------------------------------------------------------


def _solver_child(problem: str, method: str, graph: Graph,
                  seed: int, epsilon: float) -> dict:
    """The solver task: run the engine, return one result dict.

    A deterministic solver failure (a ReproError, a driver bug) is
    reported as a non-retriable error record — the same input would fail
    the same way again; only child *death* is worth a retry.
    """
    try:
        if problem == "coloring":
            result = api.color_graph(graph, method=method, seed=seed,
                                     epsilon=epsilon,
                                     collect_utilization=False)
            payload = {"colors": result.colors,
                       "num_colors": result.num_colors,
                       "palette_bound": result.palette_bound}
        else:
            result = api.find_mis(graph, method=method, seed=seed,
                                  collect_utilization=False)
            payload = {"in_mis": result.in_mis, "mis_size": result.size}
        return {"status": "ok", "valid": result.valid,
                "messages": result.report.messages,
                "rounds": result.report.rounds, **payload}
    except Exception as exc:
        return {"status": "error", "error": repr(exc), "retriable": False}


#: The seam that starts one idle warm solver child (the farm's
#: ``_spawn_cell_process`` is the same function).
_spawn_solver_process = spawn_child


def supervised_solve(
    problem: str, method: str, graph: Graph, seed: int, epsilon: float,
    deadline: float,
    supervisor: Supervisor,
    retries: int = 1,
) -> tuple[str, Optional[dict]]:
    """Run one query in a warm child of ``supervisor`` under a
    monotonic deadline.

    Returns ``(outcome, record)``:

    * ``("ok", record)`` — the child delivered a result (possibly its
      own non-retriable error record);
    * ``("deadline", None)`` — the deadline fired; the child was killed
      and the caller owes the client a degraded answer;
    * ``("crashed", None)`` — the child died without a result more than
      ``retries`` times (SIGKILL, OOM, a segfault); the caller owes a
      structured retriable error.
    """
    attempts = 0
    while True:
        attempts += 1
        outcome = supervisor.call(
            _solver_child, (problem, method, graph, seed, epsilon),
            deadline - time.monotonic())
        if outcome.kind == "ok":
            return "ok", {**outcome.reply, "attempts": attempts}
        if outcome.kind != "died":
            return "deadline", None
        if attempts > retries:
            return "crashed", None
        if time.monotonic() >= deadline:
            return "deadline", None


# ---------------------------------------------------------------------------
# Server
# ---------------------------------------------------------------------------


@dataclass
class ServeStats:
    """Lock-protected service counters behind the ``status`` verb."""

    queries: int = 0
    ok: int = 0
    cache_hits: int = 0
    degraded: int = 0
    shed: int = 0
    errors: int = 0
    retries: int = 0
    latencies: deque = field(
        default_factory=lambda: deque(maxlen=_LATENCY_WINDOW))

    def percentile(self, q: float) -> Optional[float]:
        if not self.latencies:
            return None
        ordered = sorted(self.latencies)
        idx = min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))
        return ordered[idx]


class QueryServer(Service):
    """The long-running coloring/MIS query service.

    Usage (tests and embedders)::

        server = QueryServer(solvers=2, max_pending=8)
        host, port = server.start()
        ... point ServeClient / `repro query` at it ...
        server.drain()          # answer in-flight, refuse new
        server.wait()           # blocks until drained
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        solvers: int = DEFAULT_SOLVERS,
        max_pending: int = DEFAULT_MAX_PENDING,
        cache_size: int = DEFAULT_CACHE_SIZE,
        deadline_s: float = DEFAULT_DEADLINE_S,
        grace_s: float = DEFAULT_GRACE_S,
        idle_s: float = DEFAULT_IDLE_S,
        spawn: Callable = _spawn_solver_process,
    ):
        if solvers < 1:
            raise ServingError("serve needs at least one solver slot")
        if max_pending < 0:
            raise ServingError("max_pending must be >= 0")
        super().__init__(host, port)
        self.solvers = solvers
        self.max_pending = max_pending
        self.cache_size = cache_size
        self.deadline_s = deadline_s
        self.grace_s = grace_s
        self.drain_grace_s = deadline_s + grace_s
        self.idle_s = idle_s
        self._supervisor = Supervisor(spawn, solvers)
        self._lock = threading.Lock()
        self._slots = threading.Semaphore(solvers)
        #: admitted queries (waiting for a slot + running a solver).
        self._pending = 0
        self._cache: OrderedDict[str, dict] = OrderedDict()
        self._mean_wall = 1.0      # EWMA of solve wall, drives retry hints
        self.stats = ServeStats()
        self._started_at = time.monotonic()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> tuple[str, int]:
        self._listen(PROTOCOL, PROTOCOL_VERSION, self.idle_s, ReproError)
        self._started_at = time.monotonic()
        return self.address

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until a drain completes; True if it did."""
        return self._finished.wait(timeout)

    # A drain refuses new queries before any work, answers in-flight
    # ones for up to their deadline plus grace, then stops.

    def _busy(self) -> bool:
        with self._lock:
            return self._pending > 0

    _settle = Service.stop

    def _close(self) -> None:
        self._supervisor.close()

    def _session(self, hello: dict, rfile, wfile, address) -> None:
        """Answer one handshaken client until it leaves.  A malformed
        frame or a dead or idle client ends this connection only."""
        while True:
            msg = recv_msg(rfile)
            if msg is None:
                return
            kind = msg.get("type")
            if kind == "query":
                send_msg(wfile, self.handle_query(msg))
            elif kind == "status":
                send_msg(wfile, {"type": "status", **self.status_snapshot()})
            else:
                send_msg(wfile, {"type": "error", "retriable": False,
                                 "error": f"unknown message type {kind!r}"})

    # -- the query path ----------------------------------------------------

    def handle_query(self, msg: dict) -> dict:
        t0 = time.monotonic()
        with self._lock:
            self.stats.queries += 1
            if self._draining.is_set():
                return dict(_DRAINING_REPLY)
        try:
            problem, method = _validate_query(msg)
            graph = _request_graph(msg)
            seed = int(msg.get("seed", 0))
            epsilon = float(msg.get("epsilon", 0.5))
            deadline_s = float(msg.get("deadline_s", self.deadline_s))
            if not deadline_s > 0:      # NaN fails every comparison
                raise ReproError(
                    f"deadline_s must be positive, got {deadline_s:g}")
        except (ReproError, ValueError, TypeError) as exc:
            # A field of the wrong type or shape (``"seed": "x"``,
            # ``"edges": [[0]]``) is a bad query like any other.
            with self._lock:
                self.stats.errors += 1
            error = (str(exc) if isinstance(exc, ReproError)
                     else f"malformed query: {exc}")
            return {"type": "error", "error": error, "retriable": False}

        key = request_fingerprint(problem, method, seed, epsilon, graph)
        cached = self._cache_get(key)
        if cached is not None:
            with self._lock:
                self.stats.cache_hits += 1
                self.stats.ok += 1
                self.stats.latencies.append(time.monotonic() - t0)
            return {**cached, "cached": True,
                    "elapsed_s": round(time.monotonic() - t0, 6)}

        # Admission control: cache misses compete for the bounded queue.
        # The drain is checked again here, atomically with admission.
        with self._lock:
            if self._draining.is_set():
                return dict(_DRAINING_REPLY)
            if self._pending >= self.solvers + self.max_pending:
                self.stats.shed += 1
                return {"type": "overloaded", "draining": False,
                        "retry_after_s": self._retry_hint_locked()}
            self._pending += 1
        try:
            response = self._solve(problem, method, graph, seed,
                                   epsilon, key, t0,
                                   t0 + deadline_s)
        finally:
            with self._lock:
                self._pending -= 1
        elapsed = time.monotonic() - t0
        with self._lock:
            self.stats.latencies.append(elapsed)
        response["elapsed_s"] = round(elapsed, 6)
        return response

    def _solve(self, problem: str, method: str, graph: Graph, seed: int,
               epsilon: float, key: str, t0: float,
               deadline: float) -> dict:
        base = {"type": "result", "problem": problem, "method": method,
                "seed": seed, "n": graph.n, "m": graph.m,
                "cached": False}

        def degrade() -> dict:
            with self._lock:
                self.stats.degraded += 1
            return {**base, "status": "ok", "degraded": True,
                    "messages": None, "rounds": None,
                    **degraded_answer(problem, graph)}

        # Waiting for a slot spends the query's own deadline: a server
        # at capacity degrades late arrivals instead of queueing them
        # past the point of a useful answer.
        wait_s = min(deadline - time.monotonic(), threading.TIMEOUT_MAX)
        if not self._slots.acquire(timeout=max(0.0, wait_s)):
            return degrade()
        try:
            outcome, record = supervised_solve(
                problem, method, graph, seed, epsilon, deadline,
                self._supervisor)
        finally:
            self._slots.release()

        if outcome == "deadline":
            return degrade()
        if outcome == "crashed":
            with self._lock:
                self.stats.errors += 1
                self.stats.retries += 1
            return {**base, "type": "error", "retriable": True,
                    "error": "solver child died before finishing "
                             "(retried once); retry the query"}
        if record.get("status") != "ok":
            with self._lock:
                self.stats.errors += 1
            return {**base, "type": "error",
                    "retriable": bool(record.get("retriable", False)),
                    "error": record.get("error", "solver error")}
        attempts = record.pop("attempts", 1)
        record.pop("status", None)
        response = {**base, "status": "ok", "degraded": False,
                    "attempts": attempts, **record}
        with self._lock:
            self.stats.ok += 1
            if attempts > 1:
                self.stats.retries += attempts - 1
            wall = time.monotonic() - t0
            self._mean_wall += 0.2 * (wall - self._mean_wall)
        self._cache_put(key, response)
        return response

    # -- cache -------------------------------------------------------------

    def _cache_get(self, key: str) -> Optional[dict]:
        with self._lock:
            hit = self._cache.get(key)
            if hit is not None:
                self._cache.move_to_end(key)
            return hit

    def _cache_put(self, key: str, response: dict) -> None:
        if self.cache_size <= 0 or response.get("degraded"):
            # Degraded answers are a deadline artifact, not the query's
            # real result; caching one would serve it forever.
            return
        with self._lock:
            self._cache[key] = response
            self._cache.move_to_end(key)
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)

    # -- status ------------------------------------------------------------

    def _retry_hint_locked(self) -> float:
        running = len(self._supervisor.busy_pids())
        backlog = max(1, self._pending - running + 1)
        return round(max(0.1, backlog * self._mean_wall / self.solvers), 3)

    def status_snapshot(self) -> dict:
        now = time.monotonic()
        solver_pids = self._supervisor.busy_pids()
        with self._lock:
            s = self.stats
            elapsed = max(1e-9, now - self._started_at)
            p50 = s.percentile(0.50)
            p99 = s.percentile(0.99)
            return {
                "uptime_s": round(elapsed, 3),
                "queries": s.queries,
                "ok": s.ok,
                "cache_hits": s.cache_hits,
                "cache_hit_rate": round(s.cache_hits / s.queries, 4)
                if s.queries else 0.0,
                "cache_entries": len(self._cache),
                "cache_size": self.cache_size,
                "degraded": s.degraded,
                "shed": s.shed,
                "errors": s.errors,
                "retries": s.retries,
                "in_flight": self._pending,
                "running": len(solver_pids),
                "solver_pids": solver_pids,
                "solvers": self.solvers,
                "max_pending": self.max_pending,
                "deadline_s": self.deadline_s,
                "queries_per_s": round(s.queries / elapsed, 4),
                "p50_ms": round(p50 * 1000, 3) if p50 is not None else None,
                "p99_ms": round(p99 * 1000, 3) if p99 is not None else None,
                "draining": self._draining.is_set(),
            }


# ---------------------------------------------------------------------------
# Client
# ---------------------------------------------------------------------------


@dataclass
class QueryResult:
    """One server answer, with the conveniences the examples print."""

    payload: dict

    @property
    def status(self) -> str:
        kind = self.payload.get("type")
        if kind == "result":
            return "ok"
        return kind or "error"

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def degraded(self) -> bool:
        return bool(self.payload.get("degraded"))

    @property
    def cached(self) -> bool:
        return bool(self.payload.get("cached"))

    @property
    def valid(self) -> bool:
        return bool(self.payload.get("valid"))

    @property
    def messages(self) -> Optional[int]:
        return self.payload.get("messages")

    @property
    def rounds(self) -> Optional[int]:
        return self.payload.get("rounds")

    @property
    def messages_per_edge(self) -> Optional[float]:
        m = self.payload.get("m")
        if not m or self.messages is None:
            return None
        return self.messages / m

    @property
    def num_colors(self) -> Optional[int]:
        return self.payload.get("num_colors")

    @property
    def palette_bound(self) -> Optional[int]:
        return self.payload.get("palette_bound")

    @property
    def colors(self):
        return self.payload.get("colors")

    @property
    def in_mis(self):
        return self.payload.get("in_mis")

    @property
    def size(self) -> Optional[int]:
        return self.payload.get("mis_size")

    @property
    def retry_after_s(self) -> Optional[float]:
        return self.payload.get("retry_after_s")

    @property
    def error(self) -> Optional[str]:
        return self.payload.get("error")


class ServeClient:
    """Persistent client connection; each exchange (the handshake, a
    query, a status read) runs under one total deadline."""

    def __init__(self, host: str, port: int,
                 timeout_s: float = DEFAULT_REQUEST_TIMEOUT_S):
        self.host, self.port = host, port
        self.timeout_s = timeout_s
        self._conn = Client.connect(host, port, timeout_s, ServingError,
                                    "server")
        try:
            handshake(lambda hello: self._exchange(hello, timeout_s),
                      PROTOCOL, PROTOCOL_VERSION, ServingError)
        except ReproError:
            self._conn.close()
            raise

    def _exchange(self, msg: dict, timeout_s: float) -> dict:
        return self._conn.exchange(msg, time.monotonic() + timeout_s)

    def query(self, request: dict) -> QueryResult:
        """One query round trip.

        The deadline covers the request's solve deadline plus the
        degraded-mode grace, so even a worst-case answer arrives before
        the client gives up — a wedged server is detected, a slow solve
        is not misdiagnosed as one.
        """
        deadline = float(request.get("deadline_s", DEFAULT_DEADLINE_S))
        return QueryResult(self._exchange(
            request, deadline + DEFAULT_GRACE_S + self.timeout_s))

    def status(self) -> dict:
        reply = self._exchange({"type": "status"}, self.timeout_s)
        if reply.get("type") != "status":
            raise ServingError(
                f"unexpected status reply {reply.get('type')!r}")
        return reply

    # -- the api.color_graph / api.find_mis mirror -------------------------

    def color(self, graph: Graph, method: str = "kt1-delta-plus-one",
              seed: int = 0, epsilon: float = 0.5,
              deadline_s: Optional[float] = None) -> QueryResult:
        """Remote :func:`repro.api.color_graph`; raises on a non-answer."""
        result = self.query(build_query(
            "coloring", method=method, edges=graph.edges(), n=graph.n,
            seed=seed, epsilon=epsilon, deadline_s=deadline_s))
        if not result.ok:
            raise ServingError(
                f"coloring query failed: {result.status} "
                f"({result.error or 'overloaded'})")
        return result

    def mis(self, graph: Graph, method: str = "kt2-sampled-greedy",
            seed: int = 0,
            deadline_s: Optional[float] = None) -> QueryResult:
        """Remote :func:`repro.api.find_mis`; raises on a non-answer."""
        result = self.query(build_query(
            "mis", method=method, edges=graph.edges(), n=graph.n,
            seed=seed, deadline_s=deadline_s))
        if not result.ok:
            raise ServingError(
                f"mis query failed: {result.status} "
                f"({result.error or 'overloaded'})")
        return result

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def query_once(host: str, port: int, request: dict,
               timeout_s: float = DEFAULT_REQUEST_TIMEOUT_S) -> QueryResult:
    """One-shot connect + handshake + query (the ``repro query`` path)."""
    with ServeClient(host, port, timeout_s=timeout_s) as client:
        return client.query(request)


def fetch_serve_status(host: str, port: int,
                       timeout_s: float = DEFAULT_REQUEST_TIMEOUT_S) -> dict:
    """One read-only status round trip (``repro serve-status``)."""
    with ServeClient(host, port, timeout_s=timeout_s) as client:
        return client.status()
