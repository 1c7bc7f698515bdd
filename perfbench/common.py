"""Shared plumbing: paths, the oracle, statistics, child processes."""

from __future__ import annotations

import json
import os
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
ORACLE_PATH = os.path.join(ROOT, "BENCH_engine.json")
#: Scratch space inside the checkout (the benchmark writes nowhere else).
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, a process that
    never came up); the command exits non-zero without a result."""


def check_checkout() -> None:
    for path in (os.path.join(SRC, "repro", "__init__.py"), ORACLE_PATH):
        if not os.path.exists(path):
            raise BenchError(f"missing {os.path.relpath(path, ROOT)}: "
                             "run from a full checkout of the repository")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def load_oracle(path: str = ORACLE_PATH) -> dict[str, tuple[int, int]]:
    """Committed ``(messages, rounds)`` per cell key."""
    with open(path, encoding="utf-8") as fh:
        cells = json.load(fh)["cells"]
    return {c["key"]: (c["messages"], c["rounds"]) for c in cells}


def oracle_key(key: str) -> str:
    """Columnar cells answer to their sync key (the parity contract)."""
    return key.replace("/columnar/", "/sync/")


def check_record(rec: dict, oracle: dict) -> str | None:
    """None if the cell record is ok, valid and matches the oracle."""
    if rec.get("status", "ok") != "ok":
        return (f"{rec.get('key')}: status {rec.get('status')} "
                f"({rec.get('error')})")
    if not rec.get("valid"):
        return f"{rec['key']}: invalid output"
    want = oracle.get(oracle_key(rec["key"]))
    if want is None:
        return f"{rec['key']}: no oracle entry"
    got = (rec["messages"], rec["rounds"])
    if got != want:
        return f"{rec['key']}: messages/rounds {got} != oracle {want}"
    return None


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def make_tmp() -> str:
    os.makedirs(TMP_ROOT, exist_ok=True)
    return tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=TMP_ROOT)


def remove_tmp(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(TMP_ROOT)
    except OSError:
        pass        # another run still uses it


def child_env(trace_dir: str | None = None, groups=()) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env.pop("REPRO_SCHEDULER", None)
    if trace_dir is not None:
        env["PERFBENCH_TRACE_DIR"] = trace_dir
        env["PERFBENCH_TRACE_GROUPS"] = ",".join(groups)
    return env


def repro_command(args: list[str], trace_dir: str | None = None) -> list:
    """``python3 -m repro ARGS``, or the traced launcher for it."""
    if trace_dir is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, os.path.join(HERE, "trace_boot.py"), *args]


def stop_process(proc: subprocess.Popen, timeout: float = 20.0) -> None:
    """SIGTERM (the CLI's drain signal), then SIGKILL; always reaped."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
    proc.wait()
    for stream in (proc.stdout, proc.stderr):
        if stream is not None:
            stream.close()


class Clock:
    """Deadline helper for ``--seconds``."""

    def __init__(self, seconds: float):
        self.start = time.monotonic()
        self.deadline = self.start + seconds

    def expired(self) -> bool:
        return time.monotonic() >= self.deadline


#: What :func:`reference_s` takes on the nominal machine; times scaled
#: by :func:`speed_factor` read as if measured there.
REFERENCE_NOMINAL_S = 0.010


def _reference_work() -> int:
    """Fixed pure-Python work (dicts, lists, a BFS), independent of the
    repository's code, so no change under test can make it faster."""
    n = 400
    state = 12345
    adjacency: dict[int, list[int]] = {v: [] for v in range(n)}
    for _ in range(1600):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        u, v = state % n, (state >> 9) % n
        adjacency[u].append(v)
        adjacency[v].append(u)
    total = 0
    for source in range(0, n, 13):
        seen = {source}
        frontier = [source]
        while frontier:
            nxt = []
            for u in frontier:
                for w in adjacency[u]:
                    if w not in seen:
                        seen.add(w)
                        nxt.append(w)
            frontier = nxt
        total += len(seen)
    return total


def reference_s(repeats: int = 3) -> float:
    """Fastest of ``repeats`` timings of the reference work: how fast
    this machine runs Python right now.  Take it while the workload is
    idle, so that only other tenants of the machine slow it down."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        _reference_work()
        best = min(best, time.perf_counter() - t0)
    return best


def speed_factor(repeats: int = 3) -> float:
    """Multiply a wall time by this to read it at nominal machine speed
    (a shared machine's speed drifts by tens of percent over minutes)."""
    return REFERENCE_NOMINAL_S / reference_s(repeats)


class SpeedSampler:
    """Samples the machine's speed in a background thread while
    multi-process work runs: each sample is the reference work's thread
    CPU time, so waiting for a core that the work under test keeps busy
    does not count, only a slower core does.  :meth:`factor` scales by
    the median sample.  Costs a few percent of one core."""

    PERIOD_S = 0.25

    def __enter__(self) -> "SpeedSampler":
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(self.PERIOD_S):
            t0 = time.thread_time()
            _reference_work()
            self.samples.append(time.thread_time() - t0)

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def factor(self) -> float:
        ordered = sorted(self.samples) or [reference_s(1)]
        return REFERENCE_NOMINAL_S / ordered[len(ordered) // 2]
