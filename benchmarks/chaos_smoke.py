#!/usr/bin/env python
"""Chaos smoke: kill real processes mid-flight, prove the system heals.

Three chapters, nothing faked (select with ``--only``):

**farm** — the self-healing sweep farm acceptance scenario:

1. A coordinator subprocess (``repro sweep --serve``) hosts a small
   sweep with the queue journal enabled.
2. Worker ``w0`` starts pulling cells and is **SIGKILL**ed while the
   coordinator's ``status`` verb shows it holding a lease (mid-cell).
3. Worker ``w1`` takes over; once it has made progress *and* is
   mid-cell itself, the coordinator is **bounced**: SIGTERM (graceful
   drain — must exit 0), then restarted on the same port with
   ``--resume-journal``.
4. ``w1`` reconnects through its backoff loop, finishes the sweep, and
   the restarted coordinator exits 0.

Afterwards the merged store must be **bit-identical per key** to a
serial in-process ``run_cell`` pass (modulo the volatile ``wall_s`` /
``graph_s`` / ``attempts`` fields), contain **zero lost records**, and ``w1`` must
have demonstrably reconnected.

**tenants** — the multi-tenant farm (``repro farm serve``) under the
same abuse:

1. A persistent farm subprocess hosts **two named sweeps** (submitted
   via ``repro farm submit``) with per-sweep stores and the multi-sweep
   journal.
2. Batching worker ``w0`` is **SIGKILL**ed while holding a multi-cell
   batch (status shows ≥ 2 leases).
3. With both sweeps still live, the farm is SIGTERM-drained (exit 0)
   and restarted with ``--resume-journal`` — every tenant must come
   back.
4. ``w1`` reconnects and drains both sweeps; each tenant's store must
   be bit-identical per key to a serial pass with **zero lost
   records**.

**serve** — the query service (``repro serve``) robustness spine, per
docs/serving.md's failure matrix:

1. A slow query occupies the single solver slot; its solver child is
   **SIGKILL**ed (twice — the supervisor's one retry included) and the
   client gets a structured retriable ``error`` while the server keeps
   answering other queries.
2. An **unmeetable deadline** returns a verified ``degraded=true``
   answer within deadline + grace.
3. A **flood** past ``--max-pending`` is shed immediately with
   ``overloaded`` responses (bounded queue, no backlog growth).
4. **SIGTERM** mid-query: the in-flight query is answered, new ones
   refused, and the server exits 0.

All queries use fixed seeds, so both chapters are deterministic.  Run
directly (``python benchmarks/chaos_smoke.py``) or via the slow-marked
tests in tests/test_chaos.py / tests/test_serving.py; verify.sh runs
both chapters as the chaos stage.
"""

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src")
sys.path.insert(0, SRC)

from repro.errors import DistributedError, ReproError  # noqa: E402
from repro.experiments import ResultStore, SweepSpec, run_cell  # noqa: E402
from repro.experiments.distributed import fetch_status  # noqa: E402
from repro.serving import (  # noqa: E402
    ServeClient,
    build_query,
    fetch_serve_status,
    query_once,
)

# ~0.1-0.4s per cell on a laptop: long enough that a SIGKILL lands
# mid-cell, short enough that the whole scenario stays CI-sized.
SPEC_ARGS = ["--families", "gnp", "--sizes", "90", "120",
             "--seeds", "0", "1", "2", "3", "--methods", "kt1-eps-delta"]
SPEC = SweepSpec(families=("gnp",), sizes=(90, 120), seeds=(0, 1, 2, 3),
                 methods=("kt1-eps-delta",))
#: Record fields that legitimately differ between a farm run and a
#: serial one: how long it took (total, graph build and per stage) and
#: how many supervised attempts.
VOLATILE = ("wall_s", "graph_s", "stage_wall", "attempts")

#: The serve chapter's slow query: ~5s of solver work — a wide window
#: to land signals in, still CI-sized.
SLOW_QUERY = dict(family="gnp", n=400, p=0.3, graph_seed=0, seed=1,
                  method="kt1-eps-delta")
FAST_QUERY = dict(family="gnp", n=60, p=0.3, graph_seed=1, seed=2,
                  method="kt1-delta-plus-one")


def _env():
    env = dict(os.environ)
    extra = os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    env["PYTHONPATH"] = SRC + extra
    return env


def _free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _spawn(argv, stdout, stderr):
    return subprocess.Popen([sys.executable, "-m", "repro"] + argv,
                            env=_env(), stdout=stdout, stderr=stderr)


def _poll_status(port, predicate, what, deadline_s=60.0):
    """Spin on the read-only status verb until ``predicate(snap)``."""
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        try:
            snap = fetch_status("127.0.0.1", port, timeout_s=2.0)
        except DistributedError:
            time.sleep(0.02)
            continue
        if predicate(snap):
            return snap
        time.sleep(0.02)
    raise SystemExit(f"chaos smoke: timed out waiting for {what}")


def _wait(proc, what, timeout_s=90.0):
    try:
        return proc.wait(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        raise SystemExit(f"chaos smoke: {what} did not exit "
                         f"within {timeout_s:.0f}s")


def _holds_lease(snap, worker):
    entry = snap["workers"].get(worker)
    return entry is not None and entry["connected"] and entry["leases"]


def run_farm_scenario(workdir: str) -> None:
    out = os.path.join(workdir, "chaos.jsonl")
    port = _free_port()
    serve_argv = (["sweep", "--serve", f"127.0.0.1:{port}", "--out", out,
                   "--lease", "5", "--journal-interval", "0.2",
                   "--drain-grace", "0.05", "--status-interval", "0"]
                  + SPEC_ARGS)
    # Single-cell leases: this chapter pins down lease/requeue semantics
    # and needs pending work outstanding at the bounce; batched leases
    # get their own chapter (tenants, below).
    worker_argv = ["worker", "--connect", f"127.0.0.1:{port}",
                   "--poll", "0.1", "--reconnect", "25",
                   "--backoff", "0.2", "--backoff-max", "2",
                   "--max-batch", "1", "--json"]
    total = SPEC.size
    procs = []
    logs = {}

    def spawn(name, argv):
        logs[name] = (open(os.path.join(workdir, name + ".out"), "w+"),
                      open(os.path.join(workdir, name + ".err"), "w+"))
        proc = _spawn(argv, *logs[name])
        procs.append(proc)
        return proc

    try:
        coord_a = spawn("coord-a", serve_argv)

        # -- scenario 1: SIGKILL a worker mid-cell ------------------------
        w0 = spawn("w0", worker_argv + ["--id", "w0"])
        _poll_status(port, lambda s: _holds_lease(s, "w0"),
                     "w0 to hold a lease")
        os.kill(w0.pid, signal.SIGKILL)      # no goodbye, no cleanup
        print(f"chaos smoke: SIGKILLed w0 mid-cell (pid {w0.pid})")

        # -- scenario 2: bounce the coordinator mid-sweep ----------------
        w1 = spawn("w1", worker_argv + ["--id", "w1"])
        snap = _poll_status(
            port,
            lambda s: (s["done"] >= 2 and s["pending"] >= 1
                       and _holds_lease(s, "w1")),
            "w1 to be mid-cell with work remaining")
        done_at_bounce = snap["done"]
        coord_a.send_signal(signal.SIGTERM)
        rc = _wait(coord_a, "draining coordinator", timeout_s=30.0)
        if rc != 0:
            raise SystemExit(
                f"chaos smoke: drained coordinator exited {rc}, want 0")
        print(f"chaos smoke: coordinator drained at "
              f"{done_at_bounce}/{total} done (exit 0)")

        coord_b = spawn("coord-b", serve_argv + ["--resume-journal"])
        rc = _wait(coord_b, "restarted coordinator")
        if rc != 0:
            raise SystemExit(
                f"chaos smoke: restarted coordinator exited {rc}, want 0")
        rc = _wait(w1, "surviving worker w1")
        if rc != 0:
            raise SystemExit(f"chaos smoke: w1 exited {rc}, want 0")
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()

    # -- the proof: store vs serial, bit for bit -------------------------
    for fh, _ in logs.values():
        fh.flush()
    latest = ResultStore(out).latest_per_key()
    serial = {c.key(): run_cell(c) for c in SPEC.cells()}
    if set(latest) != set(serial):
        raise SystemExit(
            f"chaos smoke: store keys != spec keys "
            f"(missing {sorted(set(serial) - set(latest))}, "
            f"extra {sorted(set(latest) - set(serial))})")
    lost = [r for r in ResultStore(out).iter_records()
            if r.get("status") == "lost"]
    if lost:
        raise SystemExit(f"chaos smoke: {len(lost)} lost record(s): "
                         f"{[r['key'] for r in lost]}")
    for key, rec in latest.items():
        want = dict(serial[key])
        got = dict(rec)
        for field in VOLATILE:
            want.pop(field, None)
            got.pop(field, None)
        if got != want:
            diff = {k for k in set(want) | set(got)
                    if want.get(k) != got.get(k)}
            raise SystemExit(
                f"chaos smoke: record for {key} differs from serial "
                f"run in field(s) {sorted(diff)}")

    # -- the survivor really reconnected ---------------------------------
    w1_err = open(os.path.join(workdir, "w1.err")).read()
    if "reconnect attempt" not in w1_err:
        raise SystemExit("chaos smoke: w1 never logged a reconnect "
                         "attempt — the bounce was not exercised")
    w1_out = open(os.path.join(workdir, "w1.out")).read()
    w1_count = json.loads(w1_out)["cells run"]
    # Every post-bounce cell was w1's (w0 is dead), and it may have run
    # one more mid-bounce than the last pre-bounce status showed.
    if w1_count < total - done_at_bounce - 1 or w1_count < 1:
        raise SystemExit(
            f"chaos smoke: w1 completed {w1_count} cells, expected at "
            f"least {total - done_at_bounce - 1} (post-bounce work)")

    print(f"chaos smoke: OK — {total} cells bit-identical to serial, "
          f"0 lost, w0 SIGKILLed, coordinator bounced, w1 reconnected "
          f"and completed {w1_count}")


# -- the tenants chapter ------------------------------------------------------

#: Two distinct matrices — different methods so a cross-tenant routing
#: bug would land visibly foreign keys in a store.
TENANT_SPECS = {
    "alpha": (SweepSpec(families=("gnp",), sizes=(90, 120),
                        seeds=(0, 1, 2, 3), methods=("kt1-eps-delta",)),
              ["--families", "gnp", "--sizes", "90", "120",
               "--seeds", "0", "1", "2", "3",
               "--methods", "kt1-eps-delta"]),
    "beta": (SweepSpec(families=("gnp",), sizes=(90, 120), seeds=(0, 1, 2),
                       methods=("luby",)),
             ["--families", "gnp", "--sizes", "90", "120",
              "--seeds", "0", "1", "2", "--methods", "luby"]),
}


def _farm_submit(port, name, spec_args):
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "farm", "submit",
         "--connect", f"127.0.0.1:{port}", "--name", name] + spec_args,
        env=_env(), capture_output=True, text=True, timeout=30)
    if proc.returncode != 0:
        raise SystemExit(f"chaos smoke: farm submit {name} failed: "
                         f"{proc.stderr}")


def _sweeps_live(snap):
    sweeps = snap.get("sweeps", {})
    return (len(sweeps) == 2
            and all(s["pending"] + s["leased"] > 0
                    for s in sweeps.values()))


def run_tenants_scenario(workdir: str) -> None:
    store_dir = os.path.join(workdir, "tenant-stores")
    os.makedirs(store_dir, exist_ok=True)
    port = _free_port()
    serve_argv = ["farm", "serve", f"127.0.0.1:{port}",
                  "--store-dir", store_dir, "--lease", "5",
                  "--journal-interval", "0.2", "--drain-grace", "0.05",
                  "--status-interval", "0"]
    worker_argv = ["worker", "--connect", f"127.0.0.1:{port}",
                   "--poll", "0.1", "--reconnect", "25",
                   "--backoff", "0.2", "--backoff-max", "2",
                   "--max-batch", "4", "--json"]
    total = sum(spec.size for spec, _ in TENANT_SPECS.values())
    procs = []
    logs = {}

    def spawn(name, argv):
        logs[name] = (open(os.path.join(workdir, name + ".out"), "w+"),
                      open(os.path.join(workdir, name + ".err"), "w+"))
        proc = _spawn(argv, *logs[name])
        procs.append(proc)
        return proc

    try:
        farm_a = spawn("farm-a", serve_argv)
        _poll_status(port, lambda s: s.get("persistent"),
                     "the farm to come up")
        for name, (_, spec_args) in TENANT_SPECS.items():
            _farm_submit(port, name, spec_args)

        # -- SIGKILL a worker while it holds a multi-cell batch ----------
        fw0 = spawn("farm-w0", worker_argv + ["--id", "w0"])
        _poll_status(
            port,
            lambda s: (s["workers"].get("w0", {}).get("connected")
                       and len(s["workers"]["w0"]["leases"]) >= 2),
            "w0 to hold a multi-cell batch")
        os.kill(fw0.pid, signal.SIGKILL)
        print(f"chaos smoke: SIGKILLed w0 mid-batch (pid {fw0.pid})")

        # -- drain + restart with two live sweeps ------------------------
        fw1 = spawn("farm-w1", worker_argv + ["--id", "w1"])
        snap = _poll_status(
            port,
            lambda s: (s["done"] >= 2 and _sweeps_live(s)
                       and _holds_lease(s, "w1")),
            "both sweeps live with w1 mid-cell")
        done_at_bounce = snap["done"]
        farm_a.send_signal(signal.SIGTERM)
        rc = _wait(farm_a, "draining farm", timeout_s=30.0)
        if rc != 0:
            raise SystemExit(
                f"chaos smoke: drained farm exited {rc}, want 0")
        print(f"chaos smoke: farm drained at {done_at_bounce}/{total} "
              "done with both sweeps live (exit 0)")

        farm_b = spawn("farm-b", serve_argv + ["--resume-journal"])
        snap = _poll_status(
            port, lambda s: len(s.get("sweeps", {})) == 2,
            "the restarted farm to restore both tenants")
        restored = sorted(snap["sweeps"])
        if restored != ["alpha", "beta"]:
            raise SystemExit(
                f"chaos smoke: restored tenants {restored}, want both")
        # The drain either handed w1 a shutdown verb (clean exit 0) or
        # left it mid-cell to reconnect — both are legitimate outcomes,
        # so the restarted farm always gets a fresh worker of its own.
        fw2 = spawn("farm-w2", worker_argv + ["--id", "w2"])
        _poll_status(
            port,
            lambda s: all(v["finished"] for v in s["sweeps"].values()),
            "both sweeps to finish", deadline_s=120.0)
        farm_b.send_signal(signal.SIGTERM)
        rc = _wait(farm_b, "restarted farm", timeout_s=30.0)
        if rc != 0:
            raise SystemExit(
                f"chaos smoke: restarted farm exited {rc}, want 0")
        for label, proc in (("w1", fw1), ("w2", fw2)):
            rc = _wait(proc, f"worker {label}")
            if rc != 0:
                raise SystemExit(
                    f"chaos smoke: {label} exited {rc}, want 0")
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()

    # -- the proof: per-tenant stores vs serial, zero lost ---------------
    for fh, _ in logs.values():
        fh.flush()
    for name, (spec, _) in TENANT_SPECS.items():
        store = ResultStore(os.path.join(store_dir, f"{name}.jsonl"))
        latest = store.latest_per_key()
        serial = {c.key(): run_cell(c) for c in spec.cells()}
        if set(latest) != set(serial):
            raise SystemExit(
                f"chaos smoke: sweep {name} store keys != spec keys "
                f"(missing {sorted(set(serial) - set(latest))}, "
                f"extra {sorted(set(latest) - set(serial))})")
        lost = [r for r in store.iter_records()
                if r.get("status") == "lost"]
        if lost:
            raise SystemExit(
                f"chaos smoke: sweep {name} has {len(lost)} lost "
                f"record(s): {[r['key'] for r in lost]}")
        for key, rec in latest.items():
            want, got = dict(serial[key]), dict(rec)
            for field in VOLATILE:
                want.pop(field, None)
                got.pop(field, None)
            if got != want:
                diff = {k for k in set(want) | set(got)
                        if want.get(k) != got.get(k)}
                raise SystemExit(
                    f"chaos smoke: sweep {name} record for {key} "
                    f"differs from serial in field(s) {sorted(diff)}")

    w1_err = open(os.path.join(workdir, "farm-w1.err")).read()
    w1_mode = ("reconnected across the bounce"
               if "reconnect attempt" in w1_err
               else "drained cleanly at the bounce")
    print(f"chaos smoke: tenants OK — {total} cells across 2 sweeps "
          "bit-identical to serial, 0 lost per tenant, w0 SIGKILLed "
          f"mid-batch, farm bounced with both sweeps live, w1 {w1_mode}")


# -- the serve chapter --------------------------------------------------------


def _poll_serve(port, predicate, what, deadline_s=60.0):
    deadline = time.monotonic() + deadline_s
    while time.monotonic() < deadline:
        try:
            snap = fetch_serve_status("127.0.0.1", port, timeout_s=2.0)
        except ReproError:
            time.sleep(0.02)
            continue
        if predicate(snap):
            return snap
        time.sleep(0.02)
    raise SystemExit(f"chaos smoke: timed out waiting for {what}")


def _query_thread(port, results, **params):
    """Issue one query on its own connection, collecting the answer."""
    deadline_s = params.pop("deadline_s", None)
    request = build_query(params.pop("problem", "coloring"),
                          deadline_s=deadline_s, **params)

    def run():
        results.append(query_once("127.0.0.1", port, request))

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    return thread


def run_serve_scenario(workdir: str) -> None:
    port = _free_port()
    log_out = open(os.path.join(workdir, "serve.out"), "w+")
    log_err = open(os.path.join(workdir, "serve.err"), "w+")
    server = _spawn(["serve", f"127.0.0.1:{port}", "--solvers", "1",
                     "--max-pending", "1", "--deadline", "20",
                     "--grace", "2", "--status-interval", "0"],
                    log_out, log_err)
    try:
        _poll_serve(port, lambda s: True, "the query server to come up")

        # -- scenario 1: SIGKILL the solver child (and its retry) --------
        answers = []
        t = _query_thread(port, answers, deadline_s=60.0, **SLOW_QUERY)
        snap = _poll_serve(port, lambda s: s["solver_pids"],
                           "a solver child to appear")
        first_pid = snap["solver_pids"][0]
        os.kill(first_pid, signal.SIGKILL)
        print(f"chaos smoke: SIGKILLed solver child {first_pid} "
              "mid-request")
        snap = _poll_serve(
            port,
            lambda s: any(p != first_pid for p in s["solver_pids"]),
            "the supervisor's retry child")
        retry_pid = next(p for p in snap["solver_pids"] if p != first_pid)
        os.kill(retry_pid, signal.SIGKILL)
        print(f"chaos smoke: SIGKILLed the retry child {retry_pid} too")
        t.join(60)
        if t.is_alive() or not answers:
            raise SystemExit("chaos smoke: no answer after double kill")
        resp = answers[0]
        if resp.status != "error" or not resp.payload.get("retriable"):
            raise SystemExit(
                f"chaos smoke: double-killed query answered "
                f"{resp.status!r} (want structured retriable error): "
                f"{resp.payload}")
        check = query_once("127.0.0.1", port,
                           build_query("coloring", **FAST_QUERY))
        if not (check.ok and check.valid and not check.degraded):
            raise SystemExit("chaos smoke: server unhealthy after "
                             f"child kills: {check.payload}")
        print("chaos smoke: structured retriable error delivered, "
              "server kept serving")

        # -- scenario 2: unmeetable deadline -> degraded, in time --------
        t0 = time.monotonic()
        resp = query_once("127.0.0.1", port,
                          build_query("coloring", deadline_s=1.0,
                                      **dict(SLOW_QUERY, n=300,
                                             graph_seed=2)))
        elapsed = time.monotonic() - t0
        if not (resp.ok and resp.degraded and resp.valid):
            raise SystemExit(
                f"chaos smoke: unmeetable deadline answered "
                f"{resp.payload} (want degraded=true, valid)")
        # deadline (1.0) + grace (2.0) + graph-build, fallback-compute,
        # and transport slack (generous: CI boxes run loaded)
        if elapsed > 10.0:
            raise SystemExit(
                f"chaos smoke: degraded answer took {elapsed:.1f}s, "
                "deadline+grace contract broken")
        print(f"chaos smoke: degraded-but-valid answer in "
              f"{elapsed:.2f}s (deadline 1s + grace 2s)")

        # -- scenario 3: flood past --max-pending -> immediate shed ------
        background, floods = [], []
        threads = [
            _query_thread(port, background, deadline_s=8.0,
                          **dict(SLOW_QUERY, graph_seed=3 + i))
            for i in range(2)      # solvers=1 + max_pending=1: both admitted
        ]
        _poll_serve(port, lambda s: s["in_flight"] >= 2,
                    "the admission queue to fill")
        t0 = time.monotonic()
        for i in range(3):
            floods.append(query_once(
                "127.0.0.1", port,
                build_query("coloring",
                            **dict(SLOW_QUERY, graph_seed=10 + i))))
        shed_elapsed = time.monotonic() - t0
        bad = [f.payload for f in floods if f.status != "overloaded"]
        if bad:
            raise SystemExit(f"chaos smoke: flood queries not shed: {bad}")
        if any(f.retry_after_s is None or f.retry_after_s <= 0
               for f in floods):
            raise SystemExit("chaos smoke: shed responses carry no "
                             "retry-after hint")
        if shed_elapsed > 2.0:
            raise SystemExit(
                f"chaos smoke: shedding took {shed_elapsed:.1f}s for 3 "
                "queries — load-shedding is not immediate")
        for thread in threads:
            thread.join(60)
        if len(background) != 2 or any(not r.ok for r in background):
            raise SystemExit("chaos smoke: admitted queries lost "
                             "during the flood")
        print(f"chaos smoke: 3 flood queries shed in "
              f"{shed_elapsed:.2f}s with retry-after hints, admitted "
              "queries still answered")

        # -- scenario 4: SIGTERM -> in-flight answered, exit 0 -----------
        final = []
        t = _query_thread(port, final, deadline_s=30.0,
                          **dict(SLOW_QUERY, graph_seed=20))
        _poll_serve(port, lambda s: s["in_flight"] >= 1,
                    "the final query to be in flight")
        server.send_signal(signal.SIGTERM)
        rc = _wait(server, "draining query server", timeout_s=60.0)
        if rc != 0:
            raise SystemExit(
                f"chaos smoke: drained server exited {rc}, want 0")
        t.join(60)
        if not final or not final[0].ok:
            raise SystemExit(
                "chaos smoke: in-flight query lost during drain: "
                f"{final[0].payload if final else 'no answer'}")
        print("chaos smoke: serve OK — solver kills survived, deadline "
              "degraded in time, flood shed, SIGTERM drained with "
              "exit 0")
    finally:
        if server.poll() is None:
            server.kill()
        log_out.close()
        log_err.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workdir", default=None,
                        help="scratch directory (default: a fresh tmpdir)")
    parser.add_argument("--only", default="all",
                        choices=("farm", "tenants", "serve", "all"),
                        help="which chaos chapter to run")
    args = parser.parse_args()
    workdir = args.workdir or tempfile.mkdtemp(prefix="repro-chaos-")
    os.makedirs(workdir, exist_ok=True)
    chapters = []
    if args.only in ("farm", "all"):
        run_farm_scenario(workdir)
        chapters.append("farm")
    if args.only in ("tenants", "all"):
        run_tenants_scenario(workdir)
        chapters.append("tenants")
    if args.only in ("serve", "all"):
        run_serve_scenario(workdir)
        chapters.append("serve")
    print(f"CHAOS OK ({', '.join(chapters)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
