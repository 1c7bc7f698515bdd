"""``serve-mix``: ``repro serve`` driven closed-loop by two connections.

The server is a real ``python -m repro serve`` process with its CLI
defaults (2 solver slots).  Each client connection waits for every reply
before sending the next query, as ``repro query`` and the examples'
``--connect`` mode do.  Two connections build no queue, so shedding and
admission limits are out of scope; the supervisor runs once per cache
miss and is judged on latency.

The seeded mix, per block of 30 queries and per connection: 21 cold gnp
queries (7 each at n = 60, 90, 120; coloring and MIS alternate; a third
sent as inline edge lists; one per size carries a 50 ms deadline) and 9
hot repeats of this connection's recent non-degraded answers, which the
server's cache answers.  Every answer, degraded ones included, is
re-verified here on a graph the client builds itself; repeats must
return exactly the first answer.
"""

from __future__ import annotations

import contextlib
import os
import random
import re
import statistics
import subprocess
import threading
import time
from collections import deque

import common

SIZES = (60, 90, 120)
TINY_SIZES = (40,)
DENSITY = 0.2
DEADLINE_S = 0.05
HOT_PER_BLOCK = 9
COLD_PER_SIZE = 7
HOT_WINDOW = 30
WARMUP_QUERIES = 4
SETUP_PROBES = 3
READY_TIMEOUT_S = 60.0
SEGMENT_S = 1.0
#: Queries prepared per connection before each segment (a segment
#: usually sends fewer; the rest carry over).
PREPARED = 40


def clients_for_host() -> int:
    """Two connections, never more than the cores the box has."""
    return max(1, min(2, os.cpu_count() or 1))


def _connected(n: int, adjacency) -> bool:
    seen, todo = {0}, [0]
    while todo:
        for u in adjacency[todo.pop()]:
            if u not in seen:
                seen.add(u)
                todo.append(u)
    return len(seen) == n


class Query:
    __slots__ = ("mix", "request", "problem", "n", "edges", "adjacency",
                 "first")

    def __init__(self, mix, request, problem, n, edges, adjacency):
        self.mix, self.request, self.problem = mix, request, problem
        self.n, self.edges, self.adjacency = n, edges, adjacency
        self.first = None       # the first non-degraded answer


class QueryMix:
    """One connection's seeded query stream."""

    def __init__(self, seed: int, client: int, sizes=SIZES):
        self.rng = random.Random(f"serve-mix/{seed}/{client}")
        self.sizes = sizes
        self.graph_seed = (seed * 16 + client) * 1_000_000
        self.recent: deque[Query] = deque(maxlen=HOT_WINDOW)
        self.pending: list = []
        self.ready: deque[Query] = deque()

    def _block(self) -> list:
        kinds = [("hot",)] * HOT_PER_BLOCK
        for n in self.sizes:
            for i in range(COLD_PER_SIZE):
                kinds.append(("cold", n, i % 2 == 0, i in (2, 3),
                              i == COLD_PER_SIZE - 1))
        self.rng.shuffle(kinds)
        return kinds

    def cold(self, n: int, coloring: bool, inline: bool = False,
             deadline: bool = False) -> Query:
        from repro.graphs.generators import family_graph
        from repro.serving import build_query

        while True:
            self.graph_seed += 1
            graph = family_graph("gnp", n, p=DENSITY, seed=self.graph_seed)
            adjacency = [list(graph.neighbors(v)) for v in range(graph.n)]
            if _connected(graph.n, adjacency):
                break
        problem = "coloring" if coloring else "mis"
        extra = {"seed": self.rng.randrange(1000)}
        if deadline:
            extra["deadline_s"] = DEADLINE_S
        if inline:
            request = build_query(problem, edges=graph.edges(), n=graph.n,
                                  **extra)
        else:
            request = build_query(problem, family="gnp", n=n, p=DENSITY,
                                  graph_seed=self.graph_seed, **extra)
        return Query(self, request, problem, graph.n, graph.edges(),
                     adjacency)

    def prepare(self, count: int) -> None:
        """Queue the next ``count`` queries (built outside the timing)."""
        while len(self.ready) < count:
            self.ready.append(self.next())

    def next(self) -> Query:
        if not self.pending:
            self.pending = self._block()
        kind = self.pending.pop()
        if kind[0] == "hot" and self.recent:
            return self.rng.choice(list(self.recent))
        if kind[0] == "hot":    # nothing answered yet: a cold query instead
            return self.cold(self.sizes[0], True)
        return self.cold(*kind[1:])


def verify(query: Query, payload: dict) -> str | None:
    """None if ``payload`` is a correct answer to ``query``."""
    if payload.get("type") != "result" or payload.get("status") != "ok":
        return (f"{payload.get('type')}: "
                f"{payload.get('error') or 'no answer'}")
    if not payload.get("valid"):
        return "answer not flagged valid"
    n, adjacency = query.n, query.adjacency
    if query.problem == "coloring":
        colors = payload.get("colors") or []
        if len(colors) != n or not all(isinstance(c, int) for c in colors):
            return "coloring has the wrong shape"
        if any(colors[u] == colors[v] for u, v in query.edges):
            return "coloring is not proper"
        max_degree = max(len(a) for a in adjacency)
        if min(colors) < 0 or max(colors) > max_degree:
            return "coloring uses more than Delta+1 colors"
        answer = colors
    else:
        in_mis = payload.get("in_mis") or []
        if len(in_mis) != n:
            return "MIS has the wrong shape"
        if any(in_mis[u] and in_mis[v] for u, v in query.edges):
            return "MIS is not independent"
        if any(not in_mis[v] and not any(in_mis[u] for u in adjacency[v])
               for v in range(n)):
            return "MIS is not maximal"
        answer = in_mis
    if payload.get("degraded"):
        return None
    if not (payload.get("messages") or 0) > 0 or not (
            payload.get("rounds") or 0) > 0:
        return "answer carries no message/round accounting"
    mine = (answer, payload["messages"], payload["rounds"])
    if query.first is None:
        query.first = mine
    elif mine != query.first:
        return "repeat answered differently from the first answer"
    return None


class Server:
    """A ``repro serve`` process plus this benchmark's connections."""

    def __init__(self, tmp: str, clients: int, trace_dir=None):
        from repro.serving import ServeClient

        self.log = open(os.path.join(tmp, f"serve-{time.monotonic_ns()}.log"),
                        "wb")
        self.proc = subprocess.Popen(
            common.repro_command(["serve", "127.0.0.1:0"], trace_dir),
            stdout=subprocess.PIPE, stderr=self.log,
            env=common.child_env(trace_dir, ("engine", "server")), text=True)
        self.clients = []
        try:
            port = self._port()
            self.clients = [ServeClient("127.0.0.1", port)
                            for _ in range(clients)]
        except BaseException:
            self.stop()
            raise

    def _port(self) -> int:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            match = re.match(r"serving on [^:]+:(\d+)", line)
            if match:
                return int(match.group(1))
        raise common.BenchError("repro serve did not come up")

    def stop(self) -> None:
        for client in self.clients:
            client.close()
        common.stop_process(self.proc)
        self.log.close()


def _client_loop(client, mix: QueryMix, clock, answers: list, lock,
                 threads: list, rec=None) -> None:
    """Send prepared queries until the segment ends; verification waits
    until the segment is over, so the load generator stays light."""
    def span(name):
        return rec.span(name) if rec is not None else contextlib.nullcontext()

    with lock:
        threads.append(threading.get_ident())
    while not clock.expired():
        with span("client.prepare"):
            query = mix.ready.popleft() if mix.ready else mix.next()
        t0 = time.monotonic()
        try:
            with span("client.query"):
                payload = client.query(query.request).payload
        except Exception as exc:    # a dead connection ends this client
            answers.append((query, {"type": "error", "error": repr(exc)},
                            0.0))
            return
        answers.append((query, payload, time.monotonic() - t0))


def _warm_up(server: Server, mixes) -> None:
    for client, mix in zip(server.clients, mixes):
        for i in range(WARMUP_QUERIES):
            query = mix.cold(mix.sizes[i % len(mix.sizes)], i % 2 == 0)
            payload = client.query(query.request).payload
            if verify(query, payload) is None and not payload.get("degraded"):
                mix.recent.append(query)


def drive(server: Server, mixes, seconds: float, rec=None) -> dict:
    """Closed loop on every connection for ``seconds``, in segments.

    Before each segment the next queries are prepared and the machine's
    speed is measured (:func:`common.speed_factor`) while every
    connection is idle; the segment's times are scaled by it.  After
    the segment every answer is verified.
    """
    stats = {"attempted": 0, "failed": 0, "errors": [], "hit": [],
             "cold": [], "degraded": 0, "segments": [], "rates": []}
    lock = threading.Lock()
    deadline = time.monotonic() + seconds
    factors = []
    while not factors or deadline - time.monotonic() >= SEGMENT_S / 2:
        for mix in mixes:
            mix.prepare(PREPARED)
        speed = common.speed_factor(2)
        factors.append(speed)
        answers: list = []
        threads: list = []
        clock = common.Clock(min(SEGMENT_S, deadline - time.monotonic()))
        workers = [threading.Thread(target=_client_loop,
                                    args=(client, mix, clock, answers, lock,
                                          threads, rec))
                   for client, mix in zip(server.clients, mixes)]
        for t in workers:
            t.start()
        for t in workers:
            t.join()
        end = time.monotonic()
        stats["segments"].append((clock.start, end, threads))
        answered = 0
        for query, payload, latency in answers:
            stats["attempted"] += 1
            error = verify(query, payload)
            if error:
                stats["failed"] += 1
                stats["errors"].append(error)
                continue
            answered += 1
            if payload.get("cached"):
                stats["hit"].append(latency * speed)
            elif payload.get("degraded"):
                stats["degraded"] += 1
            else:
                stats["cold"].append(latency * speed)
                query.mix.recent.append(query)
        stats["rates"].append(answered / ((end - clock.start) * speed))
    stats["notes"] = [
        f"machine speed factor median {statistics.median(factors):.3f} "
        f"over {len(factors)} segments (min {min(factors):.3f}, "
        f"max {max(factors):.3f})"]
    return stats


def run(seed: int, seconds: float, trace: bool, oracle: dict,
        tiny: bool = False) -> dict:
    sizes = TINY_SIZES if tiny else SIZES
    n_clients = clients_for_host()
    mixes = [QueryMix(seed, c, sizes) for c in range(n_clients)]
    tmp = common.make_tmp()
    server = None
    try:
        setups = []
        for _ in range(1 if tiny else SETUP_PROBES):
            if server is not None:
                server.stop()
            speed = common.speed_factor()
            t0 = time.monotonic()
            server = Server(tmp, n_clients)
            setups.append((time.monotonic() - t0) * speed)
        try:
            _warm_up(server, mixes)
            stats = drive(server, mixes, seconds / 2 if trace else seconds)
        finally:
            server.stop()
            server = None
        rss = common.peak_rss_mb()
        out = {
            "inputs": {
                "clients": n_clients, "sizes": list(sizes),
                "density": DENSITY, "deadline_s": DEADLINE_S,
                "per_block": {"hot": HOT_PER_BLOCK,
                              "cold_per_size": COLD_PER_SIZE,
                              "inline_per_size": 2,
                              "deadline_per_size": 1},
                "graph_seed_bases": [QueryMix(seed, c).graph_seed
                                     for c in range(n_clients)]},
            "e2e": {
                "setup_s": sorted(setups)[len(setups) // 2],
                "throughput_per_s": statistics.median(stats["rates"]),
                "p50_ms": 1000 * common.percentile(stats["cold"], 50),
                "p90_ms": 1000 * common.percentile(stats["cold"], 90),
                "peak_rss_mb": rss,
            },
        }
        totals = dict(stats)
        if trace:
            out["trace"] = _traced_phase(tmp, n_clients, mixes, seconds / 2,
                                         stats, totals)
    finally:
        if server is not None:
            server.stop()
        common.remove_tmp(tmp)
    out.update(attempted=totals["attempted"], failed=totals["failed"],
               errors=totals["errors"], notes=stats["notes"])
    return out


def _traced_phase(tmp, n_clients, mixes, seconds, untraced, totals) -> dict:
    import attribution
    import tracing

    trace_dir = os.path.join(tmp, "trace")
    os.makedirs(trace_dir)
    rec = tracing.Recorder()
    server = Server(tmp, n_clients, trace_dir=trace_dir)
    try:
        for mix in mixes:     # this server's cache starts empty
            mix.recent.clear()
            mix.ready.clear()
        _warm_up(server, mixes)
        stats = drive(server, mixes, seconds, rec=rec)
    finally:
        server.stop()
    for key in ("attempted", "failed"):
        totals[key] = untraced[key] + stats[key]
    totals["errors"] = untraced["errors"] + stats["errors"]
    spans = tracing.load_spans(trace_dir) + rec.spans
    attribution.adopt_by_containment(spans, "client.query",
                                     {server.proc.pid})
    pid = os.getpid()
    lanes = [(pid, tid, start, end)
             for start, end, threads in stats["segments"] for tid in threads]
    metrics = attribution.layer_metrics(spans, lanes)

    metrics["trace.overhead_frac"] = (statistics.median(untraced["rates"])
                                      / statistics.median(stats["rates"])
                                      - 1.0)
    answered = (len(untraced["hit"]) + len(untraced["cold"])
                + untraced["degraded"])
    metrics["serve.hit_p50_ms"] = 1000 * common.percentile(untraced["hit"],
                                                           50)
    metrics["serve.degraded_frac"] = untraced["degraded"] / max(1, answered)
    return metrics
