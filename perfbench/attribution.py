"""Turn merged spans into self times and per-layer metrics.

A *lane* is one thread of execution whose wall time the benchmark
accounts for: the benchmark's own cell loop (``engine-dense``), each farm
worker's main thread (``farm-sweep``), each client connection
(``serve-mix``).  Every instant of a lane's window is charged to the
deepest span active in the lane's span tree at that instant (the tree
crosses threads and processes through parent links), or to
``unattributed`` when no span is active.  The charged times are the
layers' self times; with ``unattributed`` they add up to the lanes'
wall time by construction.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

#: Span name -> the self-time metric it is charged to.  Every span name
#: a lane can contain appears here, so the partition metrics plus
#: ``unattributed_s`` add up to ``trace.wall_s``.
PARTITION = {
    "graphs.build": "graphs.build_s",
    "graphs.connected": "graphs.build_s",
    "congest.network.init": "congest.network.init_s",
    "congest.network.run": "congest.network.stage_setup_s",
    "congest.runtime.stage.rounds": "congest.runtime.stage_s.rounds",
    "congest.runtime.stage.columnar": "congest.runtime.stage_s.columnar",
    "congest.runtime.stage.event": "congest.runtime.stage_s.event",
    "driver.kt1-delta-plus-one": "driver.self_s.kt1-delta-plus-one",
    "driver.baseline-trial": "driver.self_s.baseline-trial",
    "driver.luby": "driver.self_s.luby",
    "driver.kt2-sampled-greedy": "driver.self_s.kt2-sampled-greedy",
    "api.verify": "api.verify_s",
    "api.solve": "api.self_s",
    "runner.run_cell": "runner.run_cell_s",
    "runner.numpy_import": "runner.numpy_import_s",
    "runner.supervise": "runner.supervise_s",
    "runner.spawn": "runner.supervise_s",
    "runner.child": "runner.supervise_s",
    "farm.batch": "farm.worker_s",
    "farm.rpc": "farm.worker_s",
    "serve.handle": "serve.server_s",
    "serve.fingerprint": "serve.server_s",
    "serve.admission_wait": "serve.server_s",
    "serve.supervise": "serve.server_s",
    "serve.child_start": "serve.server_s",
    "serve.child": "serve.server_s",
    "serve.degrade": "serve.server_s",
    "serve.encode": "serve.server_s",
    "client.query": "bench.client_s",
    "client.prepare": "bench.client_s",
    "client.verify": "bench.client_s",
}
PARTITION_METRICS = tuple(dict.fromkeys(PARTITION.values())) + (
    "unattributed_s",)

ALG1_PHASES = ("danner", "elect", "measure", "bits", "color", "notify",
               "base")
SCHEDULER_KINDS = ("rounds", "columnar", "event")

#: Per-call means in milliseconds: metric -> span name.
PER_CALL_MS = {
    "graphs.connected_ms": "graphs.connected",
    "runner.numpy_import_ms": "runner.numpy_import",
    "farm.lease_ms": "farm.lease",
    "farm.submit_ms": "farm.submit",
    "farm.journal_ms": "farm.journal",
    "serve.handle_ms": "serve.handle",
    "serve.graph_ms": "graphs.build",
    "serve.fingerprint_ms": "serve.fingerprint",
    "serve.admission_wait_ms": "serve.admission_wait",
    "serve.child_start_ms": "serve.child_start",
    "serve.solve_ms": "api.solve",
    "serve.degrade_ms": "serve.degrade",
    "serve.encode_ms": "serve.encode",
}


def alg1_phase(stage: str) -> str | None:
    """``alg1-danner-elect0-flood`` -> ``elect``; ``alg1-bits-0`` ->
    ``bits``; non-Algorithm-1 stages -> None."""
    parts = stage.split("-")
    if parts[0] != "alg1" or len(parts) < 2:
        return None
    if any(p.startswith("elect") for p in parts[1:]):
        return "elect"
    phase = parts[1].rstrip("0123456789")
    return phase if phase in ALG1_PHASES else None


def adopt_by_containment(spans: list[dict], parent_name: str,
                         orphan_pids: set[int]) -> None:
    """Parent orphan root spans of ``orphan_pids`` to the enclosing
    ``parent_name`` span of the lane that issued them.

    The serving benchmark's client threads and the server's connection
    threads talk over sockets, which carry no span ids; a server thread
    serves one client connection, so each server thread is matched to
    the client thread whose request spans contain its spans.
    """
    parents = sorted((s for s in spans if s["name"] == parent_name),
                     key=lambda s: s["t0"])
    orphans = [s for s in spans
               if s["pid"] in orphan_pids and s["parent"] is None]
    votes: dict[tuple, dict[int, int]] = defaultdict(lambda: defaultdict(int))
    candidates: dict[str, list[dict]] = {}
    for span in orphans:
        hits = [p for p in parents
                if p["t0"] <= span["t0"] and span["t1"] <= p["t1"]]
        candidates[span["id"]] = hits
        if len(hits) == 1:
            votes[(span["pid"], span["tid"])][hits[0]["tid"]] += 1
    for span in orphans:
        hits = candidates[span["id"]]
        if len(hits) > 1:
            tally = votes.get((span["pid"], span["tid"]), {})
            hits = [h for h in hits if tally.get(h["tid"])] or hits[:1]
        if hits:
            span["parent"] = hits[0]["id"]


def partition(spans: list[dict], lanes) -> tuple[dict, float]:
    """Charge each lane's window to the deepest active span.

    ``lanes`` is a list of ``(pid, tid, start, end)``.  Returns
    ``(self_seconds_by_span_name, wall_seconds)``; the unattributed
    remainder is ``wall - sum(self)``.
    """
    by_id = {s["id"]: s for s in spans}
    children: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        if s["parent"] in by_id:
            children[s["parent"]].append(s)
    charged: dict[str, float] = defaultdict(float)
    wall = 0.0
    for pid, tid, start, end in lanes:
        wall += end - start
        roots = [s for s in spans
                 if s["pid"] == pid and s["tid"] == tid
                 and s["parent"] not in by_id]
        tree: list[tuple[int, dict]] = []
        todo = [(0, r) for r in roots]
        while todo:
            depth, span = todo.pop()
            tree.append((depth, span))
            todo.extend((depth + 1, c) for c in children.get(span["id"], ()))
        events = []
        for depth, span in tree:
            t0, t1 = max(span["t0"], start), min(span["t1"], end)
            if t1 > t0:
                events.append((t0, 1, depth, span))
                events.append((t1, 0, depth, span))
        events.sort(key=lambda e: (e[0], e[1]))
        active: list[tuple[int, float, dict]] = []
        last = None
        for t, kind, depth, span in events:
            if active and last is not None and t > last:
                top = max(active, key=lambda a: (a[0], a[1]))
                charged[top[2]["name"]] += t - last
            last = t
            if kind == 1:
                active.append((depth, span["t0"], span))
            else:
                active = [a for a in active if a[2] is not span]
    return dict(charged), wall


def _mean_ms(values) -> float:
    return 1000.0 * statistics.fmean(values) if values else 0.0


def layer_metrics(spans: list[dict], lanes) -> dict:
    """Every per-layer metric computable from spans (0 where the layer
    did not run)."""
    charged, wall = partition(spans, lanes)
    out = {name: 0.0 for name in PARTITION_METRICS}
    for name, seconds in charged.items():
        out[PARTITION.get(name, "unattributed_s")] += seconds
    out["unattributed_s"] += wall - sum(charged.values())
    out["trace.wall_s"] = wall

    by_name: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
    by_id = {s["id"]: s for s in spans}
    children: dict[str, list[dict]] = defaultdict(list)
    for s in spans:
        if s["parent"] in by_id:
            children[s["parent"]].append(s)

    def dur(s):
        return s["t1"] - s["t0"]

    def served(s):
        """Did ``s`` run on behalf of a client query?"""
        while s is not None:
            if s["name"] in ("serve.handle", "client.query"):
                return True
            s = by_id.get(s["parent"])
        return False

    for metric, name in PER_CALL_MS.items():
        group = by_name.get(name, ())
        if metric.startswith("serve."):
            group = [s for s in group if served(s)]
        out[metric] = _mean_ms([dur(s) for s in group])

    # Scheduler self time and the messages charged inside it.
    columnar_spans = by_name.get("congest.runtime.stage.columnar", [])
    for kind in SCHEDULER_KINDS:
        self_s = msgs = 0.0
        for s in by_name.get(f"congest.runtime.stage.{kind}", ()):
            inner = [c for c in children.get(s["id"], ())
                     if c["name"].startswith("congest.runtime.stage.")]
            self_s += dur(s) - sum(dur(c) for c in inner)
            msgs += s.get("a", {}).get("msgs", 0) - sum(
                c.get("a", {}).get("msgs", 0) for c in inner)
        out[f"congest.runtime.msgs_per_s.{kind}"] = (
            msgs / self_s if self_s > 0 else 0.0)
    fell_back = sum(
        1 for s in columnar_spans
        if any(c["name"] == "congest.runtime.stage.rounds"
               for c in children.get(s["id"], ())))
    out["congest.columnar.kernel_share"] = (
        1.0 - fell_back / len(columnar_spans) if columnar_spans else 0.0)

    # Algorithm 1 phases: SyncNetwork.run spans grouped by stage name.
    for phase in ALG1_PHASES:
        out[f"alg1.phase_s.{phase}"] = 0.0
        out[f"alg1.phase_msgs.{phase}"] = 0.0
    for s in by_name.get("congest.network.run", ()):
        phase = alg1_phase(s.get("a", {}).get("stage", ""))
        if phase is not None:
            out[f"alg1.phase_s.{phase}"] += dur(s)
            out[f"alg1.phase_msgs.{phase}"] += s["a"].get("msgs", 0)
    out["api.shadow_s"] = sum(
        (dur(s) for name, group in by_name.items()
         if name.startswith("driver.") for s in group
         if s.get("a", {}).get("shadow")), 0.0)

    # Farm: per-cell supervision overhead, lease batching, idleness.
    overheads = []
    for s in by_name.get("runner.supervise", ()):
        cells = [d for d in _descendants(s, children)
                 if d["name"] == "runner.run_cell"]
        if cells:
            overheads.append(dur(s) - sum(dur(c) for c in cells))
    out["runner.cell_overhead_ms"] = _mean_ms(overheads)
    leases = [s.get("a", {}).get("cells", 0)
              for s in by_name.get("farm.lease", ())]
    leases = [n for n in leases if n > 0]
    out["farm.cells_per_lease"] = statistics.fmean(leases) if leases else 0.0
    worker_lanes = {(pid, tid) for pid, tid, _, _ in lanes}
    busy = sum(
        min(s["t1"], end) - max(s["t0"], start)
        for pid, tid, start, end in lanes
        for s in by_name.get("farm.batch", ())
        if (s["pid"], s["tid"]) == (pid, tid)
        and s["parent"] is None and s["t1"] > start and s["t0"] < end)
    has_batches = any((s["pid"], s["tid"]) in worker_lanes
                      for s in by_name.get("farm.batch", ()))
    out["farm.worker_idle_frac"] = (
        1.0 - busy / wall if has_batches and wall > 0 else 0.0)

    # Serving: child overhead, cache hits, retries.
    child_overhead = []
    for s in by_name.get("serve.supervise", ()):
        inner = [d for d in _descendants(s, children)
                 if d["name"] in ("serve.child_start", "api.solve")]
        child_overhead.append(dur(s) - sum(dur(d) for d in inner))
    out["serve.child_overhead_ms"] = _mean_ms(child_overhead)
    handled = [s.get("a", {}) for s in by_name.get("serve.handle", ())]
    answered = [a for a in handled if a.get("type") == "result"]
    out["serve.cache_hit_frac"] = (
        sum(a["cached"] for a in answered) / len(answered)
        if answered else 0.0)
    out["serve.retries"] = float(sum(
        max(0, (a.get("attempts") or 1) - 1) for a in answered))
    return out


def _descendants(span: dict, children) -> list[dict]:
    found, todo = [], list(children.get(span["id"], ()))
    while todo:
        s = todo.pop()
        found.append(s)
        todo.extend(children.get(s["id"], ()))
    return found
