"""Query-service tests: degraded fallbacks, supervised solves (fake
process seam), admission control, the cache, the wire protocol, CLI
verbs, and the examples as clients.

The deterministic races — deadline expiry, child crashes, retry
exhaustion, child reuse — are driven through
``QueryServer``'s ``spawn`` seam with scripted warm children
(``scripted_children.py``, shared with ``test_chaos.py``'s farm
tests); real-subprocess SIGKILL/SIGTERM scenarios live in
``benchmarks/chaos_smoke.py``, driven end to end by the slow-marked
test at the bottom.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro import cli, serving, wire
from repro.coloring.verify import check_proper_coloring
from repro.errors import ProtocolMismatchError, ReproError, ServingError
from repro.graphs.core import Graph
from repro.graphs.generators import connected_gnp_graph, family_graph
from repro.mis.verify import check_mis
from repro.serving import (
    PROTOCOL,
    PROTOCOL_VERSION,
    QueryServer,
    ServeClient,
    build_query,
    degraded_answer,
    fetch_serve_status,
    greedy_coloring,
    greedy_mis,
    query_once,
    request_fingerprint,
    supervised_solve,
)
from repro.supervise import Supervisor
from repro.wire import recv_msg, send_msg

from scripted_children import DIE, HANG, Delay, ScriptedChild, spawn_script

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


# -- scripted solver children ------------------------------------------------


def _ok_record():
    return {"status": "ok", "valid": True, "messages": 10, "rounds": 2,
            "colors": [0, 1], "num_colors": 2, "palette_bound": 2}


def _hung():
    """A healthy child that never finishes (deadline fodder)."""
    return ScriptedChild(HANG)


def _dead():
    """A child that dies without ever sending a record."""
    return ScriptedChild(DIE)


def _finishes(record=None):
    """A child that answers every task with ``record``."""
    return ScriptedChild(record or _ok_record())


def _solve(*children, deadline_s=5.0, **kwargs):
    supervisor = Supervisor(spawn_script(*children))
    return supervised_solve("coloring", "luby", None, 0, 0.5,
                            time.monotonic() + deadline_s, supervisor,
                            **kwargs)


# -- degraded-mode fallbacks --------------------------------------------------


@pytest.mark.parametrize("seed", [0, 3, 9])
def test_greedy_coloring_is_proper_and_within_palette(seed):
    g = connected_gnp_graph(40, 0.2, seed=seed)
    colors = greedy_coloring(g)
    check_proper_coloring(g, colors)
    assert max(colors) < g.max_degree() + 1


@pytest.mark.parametrize("seed", [0, 3, 9])
def test_greedy_mis_is_maximal_independent(seed):
    g = connected_gnp_graph(40, 0.25, seed=seed)
    check_mis(g, greedy_mis(g))


def test_degraded_answer_shapes():
    g = connected_gnp_graph(25, 0.3, seed=1)
    c = degraded_answer("coloring", g)
    assert c["valid"] and len(c["colors"]) == g.n
    m = degraded_answer("mis", g)
    assert m["valid"] and m["mis_size"] == sum(m["in_mis"])


# -- fingerprints and request building ----------------------------------------


def test_fingerprint_is_spelling_independent():
    """Inline edges and a generated family denoting the same graph hash
    to the same cache key."""
    g = family_graph("gnp", 30, p=0.2, seed=4)
    again = Graph(g.n, list(g.edges()))
    assert (request_fingerprint("coloring", "luby", 0, 0.5, g)
            == request_fingerprint("coloring", "luby", 0, 0.5, again))


def test_fingerprint_separates_parameters():
    g = family_graph("gnp", 30, p=0.2, seed=4)
    base = request_fingerprint("coloring", "kt1-delta-plus-one", 0, 0.5, g)
    assert request_fingerprint("mis", "kt1-delta-plus-one", 0, 0.5, g) != base
    assert request_fingerprint("coloring", "baseline-trial", 0, 0.5, g) != base
    assert request_fingerprint("coloring", "kt1-delta-plus-one", 1, 0.5, g) != base
    assert request_fingerprint("coloring", "kt1-delta-plus-one", 0, 0.25, g) != base


def test_build_query_requires_a_graph_source():
    with pytest.raises(ServingError):
        build_query("coloring")


def test_build_query_defaults_methods_per_problem():
    q = build_query("coloring", edges=[(0, 1)])
    assert q["method"] == "kt1-delta-plus-one"
    q = build_query("mis", edges=[(0, 1)])
    assert q["method"] == "kt2-sampled-greedy"


# -- supervised solves (the spawn seam) ---------------------------------------


def test_supervised_solve_happy_path():
    outcome, record = _solve(_finishes())
    assert outcome == "ok"
    assert record["attempts"] == 1 and record["valid"]


def test_supervised_solve_deadline_kills_child():
    child = _hung()
    outcome, record = _solve(child, deadline_s=0.05)
    assert (outcome, record) == ("deadline", None)
    assert child.proc.killed


def test_supervised_solve_retries_a_crashed_child_once():
    outcome, record = _solve(_dead(), _finishes())
    assert outcome == "ok"
    assert record["attempts"] == 2


def test_supervised_solve_reports_crash_after_retry_exhaustion():
    outcome, record = _solve(_dead(), _dead())
    assert (outcome, record) == ("crashed", None)


def test_supervised_solve_passes_child_error_through():
    err = {"status": "error", "error": "ReproError('boom')",
           "retriable": False}
    outcome, record = _solve(_finishes(record=err))
    assert outcome == "ok"
    assert record["status"] == "error" and not record["retriable"]


def test_supervised_solve_reports_child_pids():
    """The supervisor lists a child's pid while it solves, and only
    then: the status verb's ``solver_pids`` reads this."""
    supervisor = Supervisor(spawn_script(_hung()))
    seen = []
    threading.Timer(0.05, lambda: seen.append(
        supervisor.busy_pids())).start()
    outcome, _ = supervised_solve("coloring", "luby", None, 0, 0.5,
                                  time.monotonic() + 0.2, supervisor)
    assert outcome == "deadline"
    assert seen == [[4242]]
    assert supervisor.busy_pids() == []


def test_queries_reuse_one_warm_child():
    child = _finishes()
    spawn = spawn_script(child)
    server = QueryServer(spawn=spawn)
    for seed in range(4):
        resp = server.handle_query(_query(seed=seed))
        assert resp["status"] == "ok" and not resp["cached"]
    assert spawn.count == 1 and len(child.tasks) == 4
    assert not child.proc.killed


def test_deadline_kill_replaces_the_child():
    hung, fresh = _hung(), _finishes()
    spawn = spawn_script(hung, fresh)
    server = QueryServer(spawn=spawn)
    assert server.handle_query(_query(deadline_s=0.05))["degraded"]
    assert hung.proc.killed
    resp = server.handle_query(_query(seed=1))
    assert resp["status"] == "ok" and not resp["degraded"]
    assert spawn.count == 2 and len(fresh.tasks) == 1


def test_child_error_record_keeps_the_child():
    """A deterministic solver error is an answer, not a death: the child
    stays warm and answers the next query."""
    err = {"status": "error", "error": "ReproError('diverged')",
           "retriable": False}
    child = ScriptedChild(err, _ok_record())
    spawn = spawn_script(child)
    server = QueryServer(spawn=spawn)
    assert server.handle_query(_query())["type"] == "error"
    assert server.handle_query(_query(seed=1))["status"] == "ok"
    assert spawn.count == 1 and not child.proc.killed


# -- the server's query path (handle_query, no sockets) -----------------------


def _query(n=20, seed=0, problem="coloring", **extra):
    g = connected_gnp_graph(n, 0.3, seed=seed)
    msg = build_query(problem, edges=g.edges(), n=g.n, seed=seed)
    msg.update(extra)
    return msg


def test_deadline_yields_valid_degraded_answer():
    server = QueryServer(spawn=spawn_script(_hung()))
    resp = server.handle_query(_query(deadline_s=0.05))
    assert resp["status"] == "ok" and resp["degraded"]
    assert resp["messages"] is None
    g = connected_gnp_graph(20, 0.3, seed=0)
    check_proper_coloring(g, resp["colors"])
    assert server.stats.degraded == 1


def test_degraded_mis_answer_is_verified_too():
    server = QueryServer(spawn=spawn_script(_hung()))
    resp = server.handle_query(_query(problem="mis", deadline_s=0.05))
    assert resp["degraded"]
    check_mis(connected_gnp_graph(20, 0.3, seed=0), resp["in_mis"])


def test_crash_yields_structured_error_and_server_survives():
    server = QueryServer(
        spawn=spawn_script(_dead(), _dead(), _finishes()))
    resp = server.handle_query(_query())
    assert resp["type"] == "error" and resp["retriable"]
    assert server.stats.errors == 1
    # the next query runs normally — a dead child never kills serving
    resp = server.handle_query(_query(seed=1))
    assert resp["status"] == "ok" and not resp["degraded"]


def test_one_crash_then_success_is_transparent():
    server = QueryServer(spawn=spawn_script(_dead(), _finishes()))
    resp = server.handle_query(_query())
    assert resp["status"] == "ok" and resp["attempts"] == 2
    assert server.stats.retries == 1


def test_child_error_record_is_not_retried():
    err = {"status": "error", "error": "ReproError('diverged')",
           "retriable": False}
    server = QueryServer(spawn=spawn_script(_finishes(record=err)))
    resp = server.handle_query(_query())
    assert resp["type"] == "error" and not resp["retriable"]
    assert "diverged" in resp["error"]


def test_cache_hit_bypasses_solver():
    child = _finishes()
    server = QueryServer(spawn=spawn_script(child))
    first = server.handle_query(_query())
    assert not first["cached"]
    # a hit never reaches the solver child
    second = server.handle_query(_query())
    assert second["cached"] and second["num_colors"] == first["num_colors"]
    assert server.stats.cache_hits == 1 and len(child.tasks) == 1


def test_cache_is_lru_bounded():
    server = QueryServer(
        cache_size=1,
        spawn=spawn_script(_finishes()))
    server.handle_query(_query(seed=0))
    server.handle_query(_query(seed=1))    # evicts seed=0
    assert server.status_snapshot()["cache_entries"] == 1
    resp = server.handle_query(_query(seed=0))   # solved again
    assert not resp["cached"]


def test_degraded_answers_are_never_cached():
    server = QueryServer(spawn=spawn_script(_hung(), _finishes()))
    first = server.handle_query(_query(deadline_s=0.05))
    assert first["degraded"]
    second = server.handle_query(_query())
    assert not second["cached"] and not second["degraded"]


def test_flood_past_max_pending_sheds():
    server = QueryServer(solvers=1, max_pending=1,
                         spawn=spawn_script(_hung(), _hung()))
    results = []
    threads = [
        threading.Thread(
            target=lambda s: results.append(
                server.handle_query(_query(seed=s, deadline_s=0.6))),
            args=(s,))
        for s in (0, 1)
    ]
    for t in threads:
        t.start()
    # wait for both to be admitted (solvers + max_pending = 2)
    for _ in range(200):
        if server.status_snapshot()["in_flight"] == 2:
            break
        time.sleep(0.01)
    shed = server.handle_query(_query(seed=2))
    assert shed["type"] == "overloaded" and not shed["draining"]
    assert shed["retry_after_s"] > 0
    for t in threads:
        t.join(5)
    assert server.stats.shed == 1
    # the two admitted queries still got (degraded) answers
    assert all(r["status"] == "ok" for r in results)


def test_draining_server_refuses_new_queries(monkeypatch):
    """A draining server refuses before any work: it builds no graph
    and does not answer even a query it holds in its cache."""
    server = QueryServer(spawn=spawn_script(_finishes()))
    assert not server.handle_query(_query())["cached"]
    built = []

    def _request_graph(msg):
        built.append(msg)
        raise AssertionError("a draining server built a graph")

    monkeypatch.setattr(serving, "_request_graph", _request_graph)
    server.drain(grace_s=0)
    assert server.wait(timeout=5)
    for seed in (0, 1):          # seed 0 is cached, seed 1 is not
        resp = server.handle_query(_query(seed=seed))
        assert resp["type"] == "overloaded" and resp["draining"]
    assert not built and server.stats.cache_hits == 0


#: Marks a field the bad query leaves out.
_DROP = object()


@pytest.mark.parametrize("bad,fragment", [
    ({"problem": "tsp"}, "unknown problem"),
    ({"method": "quantum"}, "unknown coloring method"),
    ({"deadline_s": -1}, "deadline_s"),
    ({"seed": "x"}, "malformed query"),
    ({"epsilon": None}, "malformed query"),
    ({"deadline_s": "soon"}, "malformed query"),
    ({"edges": [[0]]}, "malformed query"),
    ({"edges": 5}, "malformed query"),
    ({"edges": _DROP, "family": "gnp", "n": "ten"}, "malformed query"),
    ({"deadline_s": float("nan")}, "deadline_s"),
    ({"edges": [], "n": 0}, "no vertices"),
])
def test_invalid_queries_get_structured_errors(bad, fragment):
    """A bad query, a badly typed field included, is answered with a
    non-retriable error and counted, not raised out of the server."""
    server = QueryServer(spawn=spawn_script())
    msg = {k: v for k, v in {**_query(), **bad}.items() if v is not _DROP}
    resp = server.handle_query(msg)
    assert resp["type"] == "error" and not resp["retriable"]
    assert fragment in resp["error"]
    assert server.stats.errors == 1


@pytest.mark.parametrize("deadline_s", [1e9, 1e10, float("inf")])
def test_far_deadline_is_answered_normally(deadline_s):
    """A deadline past what a lock or pipe wait accepts (about 2**31 ms)
    is waited for in bounded steps: the query holding the one solver
    slot and the query queued behind it both get full answers."""
    child = ScriptedChild(Delay(0.2, _ok_record()), _ok_record())
    server = QueryServer(solvers=1, spawn=spawn_script(child))
    first = []
    holder = threading.Thread(target=lambda: first.append(
        server.handle_query(_query(deadline_s=deadline_s))))
    holder.start()
    give_up = time.monotonic() + 5
    while (not server.status_snapshot()["solver_pids"]
           and time.monotonic() < give_up):
        time.sleep(0.01)
    resp = server.handle_query(_query(seed=1, deadline_s=deadline_s))
    holder.join(timeout=5)
    assert not holder.is_alive()
    for answer in (first[0], resp):
        assert answer["status"] == "ok" and not answer["degraded"]
    assert server.stats.errors == 0 and server.stats.ok == 2


def test_disconnected_graph_is_rejected_up_front():
    server = QueryServer(spawn=spawn_script())
    msg = build_query("coloring", edges=[(0, 1), (2, 3)])
    resp = server.handle_query(msg)
    assert resp["type"] == "error" and "not connected" in resp["error"]


def test_server_config_validation():
    with pytest.raises(ServingError):
        QueryServer(solvers=0)
    with pytest.raises(ServingError):
        QueryServer(max_pending=-1)


# -- the wire protocol (real sockets, real solver subprocesses) ---------------


@pytest.fixture()
def live_server():
    server = QueryServer(solvers=2, max_pending=4, deadline_s=20.0)
    host, port = server.start()
    yield host, port, server
    server.stop()


def test_round_trip_color_and_mis_over_sockets(live_server):
    host, port, _ = live_server
    g = connected_gnp_graph(30, 0.25, seed=2)
    with ServeClient(host, port) as client:
        c = client.color(g, seed=3)
        assert c.ok and c.valid and not c.degraded
        assert c.messages > 0 and c.num_colors <= c.palette_bound
        m = client.mis(g, method="luby", seed=3)
        assert m.ok and m.valid and m.size > 0
        # same connection, repeat query: served from cache
        again = client.color(g, seed=3)
        assert again.cached and again.num_colors == c.num_colors


def test_status_verb_reports_counters(live_server):
    host, port, _ = live_server
    g = connected_gnp_graph(25, 0.25, seed=1)
    with ServeClient(host, port) as client:
        client.color(g, seed=0)
        snap = client.status()
    assert snap["queries"] == 1 and snap["ok"] == 1
    assert snap["p50_ms"] is not None
    assert not snap["draining"]
    assert fetch_serve_status(host, port)["queries"] == 1


def test_version_skew_is_rejected(live_server):
    host, port, _ = live_server
    with socket.create_connection((host, port), timeout=5) as sock:
        rfile, wfile = sock.makefile("rb"), sock.makefile("wb")
        send_msg(wfile, {"type": "hello", "protocol": PROTOCOL,
                         "version": PROTOCOL_VERSION + 1})
        reply = recv_msg(rfile)
    assert reply["type"] == "reject"
    assert str(PROTOCOL_VERSION) in reply["reason"]


def test_client_raises_mismatch_on_reject():
    """A server speaking a newer protocol rejects; the client surfaces
    the dedicated mismatch error, not a generic failure."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    port = listener.getsockname()[1]

    def rejecting_server():
        conn, _ = listener.accept()
        rfile, wfile = conn.makefile("rb"), conn.makefile("wb")
        recv_msg(rfile)
        send_msg(wfile, {"type": "reject",
                         "reason": "protocol version skew"})
        conn.close()

    t = threading.Thread(target=rejecting_server, daemon=True)
    t.start()
    try:
        with pytest.raises(ProtocolMismatchError, match="skew"):
            ServeClient("127.0.0.1", port)
    finally:
        t.join(5)
        listener.close()


def test_wrong_protocol_handshake_is_rejected(live_server):
    host, port, _ = live_server
    with socket.create_connection((host, port), timeout=5) as sock:
        rfile, wfile = sock.makefile("rb"), sock.makefile("wb")
        send_msg(wfile, {"type": "hello", "protocol": "repro-sweep",
                         "version": 1})
        assert recv_msg(rfile)["type"] == "reject"


def test_malformed_line_drops_only_that_connection(live_server):
    host, port, _ = live_server
    with socket.create_connection((host, port), timeout=5) as sock:
        sock.sendall(b"this is not json\n")
        sock.settimeout(5)
        # server closes this connection (empty read), nothing more
        assert sock.makefile("rb").readline() == b""
    # ...and keeps serving everyone else
    g = connected_gnp_graph(20, 0.3, seed=0)
    with ServeClient(host, port) as client:
        assert client.color(g, method="baseline-rank-greedy").ok


def test_oversized_frame_drops_only_that_connection(live_server,
                                                   monkeypatch):
    """A newline-free stream past the frame cap ends that connection
    instead of growing the server's buffer; other clients are served."""
    monkeypatch.setattr(wire, "MAX_FRAME_BYTES", 4096)
    host, port, _ = live_server
    with socket.create_connection((host, port), timeout=5) as sock:
        rfile, wfile = sock.makefile("rb"), sock.makefile("wb")
        send_msg(wfile, {"type": "hello", "protocol": PROTOCOL,
                         "version": PROTOCOL_VERSION})
        assert recv_msg(rfile)["type"] == "welcome"
        try:
            sock.sendall(b"x" * 65536)
            assert rfile.readline() == b""
        except ConnectionResetError:
            pass            # closed with our bytes still unread: RST
    g = connected_gnp_graph(20, 0.3, seed=0)
    with ServeClient(host, port) as client:
        assert client.color(g, method="baseline-rank-greedy").ok


def test_idle_warm_child_is_not_a_solver_pid(live_server):
    """``solver_pids`` lists children running a query, never idle warm
    ones: chaos tooling SIGKILLs ``solver_pids[0]`` expecting that
    query to fail."""
    host, port, server = live_server
    g = connected_gnp_graph(20, 0.3, seed=0)
    with ServeClient(host, port) as client:
        assert client.color(g, method="baseline-trial").ok
        assert client.status()["solver_pids"] == []
    [(proc, _conn)] = server._supervisor._idle
    assert proc.is_alive()


def test_unknown_message_type_is_answered_not_fatal(live_server):
    host, port, _ = live_server
    with ServeClient(host, port) as client:
        send_msg(client._conn.wfile, {"type": "gossip"})
        reply = recv_msg(client._conn.rfile)
        assert reply["type"] == "error"
        assert "gossip" in reply["error"]
        assert client.status()["queries"] == 0


def test_concurrent_clients_all_get_valid_answers(live_server):
    host, port, _ = live_server
    results = []

    def one(seed):
        g = connected_gnp_graph(24, 0.3, seed=seed)
        with ServeClient(host, port) as client:
            results.append(client.mis(g, method="rank-greedy", seed=seed))

    threads = [threading.Thread(target=one, args=(s,)) for s in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30)
    assert len(results) == 4 and all(r.valid for r in results)


def test_client_reports_unreachable_server():
    with pytest.raises(ServingError, match="cannot reach"):
        ServeClient("127.0.0.1", 1)     # port 1: nothing listens


def test_drain_answers_inflight_then_refuses(live_server):
    host, port, server = live_server
    g = connected_gnp_graph(40, 0.3, seed=5)
    answers = []

    def slow_one():
        with ServeClient(host, port) as client:
            answers.append(client.query(build_query(
                "coloring", method="kt1-eps-delta", edges=g.edges(),
                n=g.n, seed=1)))

    t = threading.Thread(target=slow_one)
    t.start()
    # wait until the query is actually in flight, then drain
    for _ in range(500):
        if server.status_snapshot()["in_flight"] > 0:
            break
        time.sleep(0.01)
    server.drain()
    with ServeClient(host, port) as client:
        refused = client.query(build_query(
            "coloring", edges=g.edges(), n=g.n, seed=2))
    assert refused.status == "overloaded"
    assert refused.payload["draining"]
    t.join(30)
    assert len(answers) == 1 and answers[0].ok
    assert server.wait(timeout=30)


# -- graph sources over the wire ----------------------------------------------


def test_graph_file_queries(tmp_path, live_server):
    host, port, _ = live_server
    from repro.graphs.io import save_edge_list

    g = connected_gnp_graph(25, 0.3, seed=6)
    path = str(tmp_path / "g.txt")
    save_edge_list(g, path)
    result = query_once(host, port,
                        build_query("mis", method="luby",
                                    graph_file=path, seed=2))
    assert result.ok and result.valid
    missing = query_once(host, port,
                         build_query("coloring",
                                     graph_file=str(tmp_path / "no.txt")))
    assert missing.status == "error"


def test_family_queries(live_server):
    host, port, _ = live_server
    result = query_once(host, port,
                        build_query("coloring", family="gnp", n=25,
                                    p=0.3, graph_seed=3, seed=1,
                                    method="baseline-rank-greedy"))
    assert result.ok and result.valid


# -- CLI verbs ----------------------------------------------------------------


def test_cli_query_and_serve_status(live_server, capsys):
    host, port, _ = live_server
    rc = cli.main(["query", "--connect", f"{host}:{port}",
                   "--problem", "coloring", "--n", "24", "--p", "0.3",
                   "--method", "baseline-rank-greedy", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "ok" and payload["valid"]

    rc = cli.main(["serve-status", "--connect", f"{host}:{port}",
                   "--json"])
    assert rc == 0
    snap = json.loads(capsys.readouterr().out)
    assert snap["queries"] == 1 and snap["ok"] == 1


def test_cli_query_rejects_unknown_method(live_server, capsys):
    host, port, _ = live_server
    rc = cli.main(["query", "--connect", f"{host}:{port}",
                   "--problem", "mis", "--method", "quantum",
                   "--n", "20"])
    assert rc == 1
    assert "unknown mis method" in capsys.readouterr().err


def test_cli_query_unreachable_server_fails_cleanly(capsys):
    rc = cli.main(["query", "--connect", "127.0.0.1:1", "--n", "20"])
    assert rc == 1
    assert "cannot reach" in capsys.readouterr().err


def test_cli_serve_drains_through_the_shared_loop(tmp_path, capsys):
    """`repro serve` drains on SIGTERM through the CLI's one host
    routine: exit 0, the previous handler restored,
    and a final --stats-out snapshot written after the drain."""
    stats = tmp_path / "stats.json"
    previous = signal.getsignal(signal.SIGTERM)

    def terminate_when_observed():
        # The observer writes --stats-out only after the drain handler
        # is installed.
        deadline = time.monotonic() + 30
        while not stats.exists() and time.monotonic() < deadline:
            time.sleep(0.02)
        os.kill(os.getpid(), signal.SIGTERM)

    threading.Thread(target=terminate_when_observed, daemon=True).start()
    rc = cli.main(["serve", "127.0.0.1:0", "--solvers", "1",
                   "--status-interval", "0.05", "--stats-out", str(stats)])
    assert rc == 0
    assert signal.getsignal(signal.SIGTERM) is previous
    assert json.loads(stats.read_text())["draining"]
    err = capsys.readouterr().err
    assert "SIGTERM: draining" in err
    assert "drained: all in-flight queries answered" in err


# -- the examples as clients --------------------------------------------------


@pytest.mark.parametrize("script,token", [
    ("examples/frequency_assignment.py", "takeaway"),
    ("examples/wireless_mis_scheduling.py", "density"),
])
def test_examples_run_as_serve_clients(script, token, live_server):
    host, port, _ = live_server
    env = dict(os.environ,
               PYTHONPATH=os.path.join(REPO, "src")
               + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO, script), "--n", "60",
         "--connect", f"{host}:{port}"],
        capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr
    assert token in proc.stdout


@pytest.mark.parametrize("script", [
    "examples/frequency_assignment.py",
    "examples/wireless_mis_scheduling.py",
])
def test_examples_still_run_standalone(script):
    env = dict(os.environ,
               PYTHONPATH=os.path.join(REPO, "src")
               + os.pathsep + os.environ.get("PYTHONPATH", ""))
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO, script), "--n", "60"],
        capture_output=True, text=True, timeout=300, env=env)
    assert proc.returncode == 0, proc.stderr


# -- the full chaos scenario (real signals, real subprocesses) ----------------


@pytest.mark.slow
def test_chaos_smoke_serve_scenario(tmp_path):
    """Drive the serve chapter of benchmarks/chaos_smoke.py end to end:
    SIGKILL a solver child mid-request, an unmeetable deadline, a flood
    past --max-pending, then SIGTERM."""
    proc = subprocess.run(
        [sys.executable, os.path.join(REPO, "benchmarks",
                                      "chaos_smoke.py"),
         "--workdir", str(tmp_path), "--only", "serve"],
        capture_output=True, text=True, timeout=600,
        env=dict(os.environ,
                 PYTHONPATH=os.path.join(REPO, "src") + os.pathsep
                 + os.environ.get("PYTHONPATH", "")),
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "CHAOS OK" in proc.stdout
