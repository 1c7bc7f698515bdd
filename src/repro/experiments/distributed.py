"""Distributed multi-host sweep execution: the experiment farm.

The exponent fits behind the paper's claims want many families x sizes
x seeds x engines cells — more than one machine delivers in reasonable
time.  This module splits
:class:`~repro.experiments.spec.SweepSpec` matrices across hosts:

* a **coordinator** (:class:`Coordinator`, behind ``repro sweep
  --serve`` and ``repro farm serve``) serves cells over a TCP work
  queue with lease + heartbeat + requeue-on-dead-worker semantics and
  merges every incoming record into resumable JSON-lines
  :class:`~repro.experiments.store.ResultStore` files;
* a **worker** (:func:`run_worker`, ``repro worker --connect
  HOST:PORT``) pulls cells, runs each in its warm supervised child
  (per-cell timeouts and retries included, exactly as a local sweep
  would), and streams the records back.

The coordinator is **multi-tenant**: one farm process serves any
number of *named sweeps*, each with its own :class:`WorkQueue`, its own
result store, and a priority; workers are fed across tenants by
fair-share leasing (highest priority first, then least recently
served).  ``repro sweep --serve`` is the single-tenant special case,
serving one sweep named ``"default"`` and exiting when it completes,
while ``repro farm serve`` keeps the process up between sweeps
(``persistent=True``) and accepts new tenants over the wire.

Wire protocol (version 2)
-------------------------
The framing and versioned handshake of :mod:`repro.wire`, strictly
request/response from the worker's side; a coordinator and worker of
different versions refuse to mix records instead of silently
mispooling them.  Each verb has exactly one form:

    worker -> {"type": "hello", "protocol": "repro-sweep", "version": 2,
               "worker": ID}
    coord  <- {"type": "welcome", "version": 2, "lease_s": S}
            | {"type": "reject", "reason": ...}        # then close
    worker -> {"type": "lease", "max_cells": K}        # K defaults to 1
    coord  <- {"type": "cells", "sweep": NAME, "cells": [{...}, ...]}
            | {"type": "idle", "retry_s": S}           # leased out, wait
            | {"type": "shutdown"}                     # sweep complete
    worker -> {"type": "heartbeat", "keys": [K...], "sweep": NAME}
    coord  <- {"type": "ok", "gone": [K...]}           # revoked leases:
                                                       # kill/drop those
    worker -> {"type": "result", "record": {...}, "sweep": NAME}
    coord  <- {"type": "ok", "accepted": bool}
    any    -> {"type": "status"}                       # read-only
    coord  <- {"type": "status", pending/leased/done/workers/sweeps/...}
    any    -> {"type": "submit", "name": N, "spec": {...},
               "fingerprint": F, "priority": P}        # new tenant
    coord  <- {"type": "ok", "sweep": N, "created": bool, "total": T}
    any    -> {"type": "attach", "name": N}
    coord  <- {"type": "sweep", ...per-sweep snapshot...}
    any    -> {"type": "list"}
    coord  <- {"type": "sweeps", "sweeps": {N: {...}, ...}}
    any    -> {"type": "cancel", "name": N}
    coord  <- {"type": "ok", "sweep": N, "dropped": D, "revoked": R}

``heartbeat`` and ``result`` must name the ``sweep`` the cells were
leased from; a worker message without it is malformed, and like any
malformed worker message it drops the connection and releases that
worker's leases.  A version-1 peer (single-``cell`` leases, single-key
heartbeats, untagged results) is rejected at the handshake.  A farm
verb the peer cannot satisfy answers ``{"type": "error", "reason":
...}`` instead of closing the connection.

Leases are keyed on ``cell.key()``.  A worker that stops heartbeating
(crash, network partition) has its leases expire and the cells are
re-served to other workers; a cell requeued more than ``max_requeues``
times is recorded with ``status="lost"`` so the sweep still terminates.
Duplicate results for one key (a lease that expired on a worker that
then finished anyway) are dropped at the queue, and the store's readers
apply last-record-wins per key regardless, so the merged store is safe
to aggregate even when races slip through.

Worker-side batching amortizes the per-cell lease/heartbeat churn that
dominates sub-second cells: a worker asks for up to K cells per round
trip, runs them sequentially, and one heartbeat covers the whole
in-flight batch (current cell plus the queued remainder).  K is
auto-tuned from an EWMA of observed cell wall time so the batch fits
inside ``min(batch_target_s, lease_s)`` — long cells degrade to K=1.

Self-healing semantics (the reasons hour-long robustness sweeps survive
real faults, not just simulated ones):

* **Worker reconnect.**  A worker that loses its coordinator retries
  the connection with exponential backoff + deterministic jitter,
  bounded by ``reconnect`` consecutive failed attempts, resuming the
  same ``worker_id``.  A result whose submission was cut off mid-send
  is re-submitted on the next connection instead of recomputed.
* **Lease-revocation cancellation.**  A heartbeat answered ``gone``
  means the coordinator re-served the cell; the worker heartbeats from
  the supervisor loop (the ``keep`` seam on
  :func:`~repro.experiments.runner._run_cells_with_timeout`), so it
  kills the in-flight child process on the spot and drops the stale
  record instead of computing to completion; revoked not-yet-started
  cells of the batch are silently dropped.
* **Coordinator drain.**  SIGTERM/SIGINT on ``repro sweep --serve`` /
  ``repro farm serve`` stops leasing, answers ``shutdown`` to lease
  requests, gives in-flight cells a grace window to land, fsyncs every
  tenant's store + the journal, and exits 0.
* **Queue journal.**  The coordinator periodically writes an fsync'd
  snapshot of *every* tenant queue (spec, done keys, requeue counts,
  live leases) beside the stores; ``--resume-journal`` restores all of
  them so a bounced farm neither re-runs completed cells nor forgets
  ``max_requeues`` history, for any tenant.
"""

from __future__ import annotations

import json
import os
import random
import re
import socket
import threading
import time
from collections import deque
from typing import Callable, Iterable, Optional

from repro.errors import DistributedError, ProtocolMismatchError, ReproError
from repro.experiments import runner
from repro.experiments.runner import _failure_record, _run_cells_with_timeout
from repro.experiments.spec import Cell, SweepSpec
from repro.experiments.store import ResultStore, write_json_atomic
from repro.supervise import Supervisor
from repro.wire import (
    DEFAULT_REQUEST_TIMEOUT_S,
    Client,
    Service,
    handshake,
    recv_msg as _recv_msg,
    send_msg as _send_msg,
)

PROTOCOL = "repro-sweep"
PROTOCOL_VERSION = 2
DEFAULT_LEASE_S = 30.0
DEFAULT_MAX_REQUEUES = 5
#: Consecutive failed (re)connection attempts before a worker gives up.
DEFAULT_RECONNECT_ATTEMPTS = 5
DEFAULT_BACKOFF_S = 0.5
DEFAULT_BACKOFF_MAX_S = 15.0
DEFAULT_JOURNAL_INTERVAL_S = 2.0
DEFAULT_DRAIN_GRACE_S = 5.0
#: How long both CLI farm hosts stay up after their work ends, so a
#: worker that arrives late is told ``shutdown`` instead of refused.
DEFAULT_LINGER_S = 2.0

#: The tenant name single-sweep entry points (`repro sweep --serve`,
#: Coordinator(spec=...)) serve under.
DEFAULT_SWEEP = "default"
DEFAULT_PRIORITY = 0
#: Upper bound on cells per batched lease; the EWMA tuner never asks
#: for more than fit in ``batch_target_s`` of observed wall time.
DEFAULT_MAX_BATCH = 16
#: Wall-time worth of cells a worker aims to hold per round trip.
#: Deliberately well under the default lease: the whole batch must
#: finish (or heartbeat) before any of its leases expire.
DEFAULT_BATCH_TARGET_S = 5.0
#: Smoothing for the worker's per-cell wall-time estimate.
BATCH_EWMA_ALPHA = 0.3

_SWEEP_NAME_PATTERN = r"[A-Za-z0-9][A-Za-z0-9._-]{0,63}"
#: Sweep names become store file names (`<name>.jsonl`), so the grammar
#: excludes separators and anything a shell would mangle.
_SWEEP_NAME_RE = re.compile(rf"^{_SWEEP_NAME_PATTERN}$")


# -- the lease queue ----------------------------------------------------------


class WorkQueue:
    """Thread-safe cell queue with per-key leases.

    One tenant's single source of truth: every cell is either pending,
    leased (keyed on ``cell.key()``, with an expiry a healthy worker
    keeps pushing forward via heartbeats), or done.  Expired or dropped
    leases put the cell back on the pending deque; a cell that keeps
    getting requeued (``max_requeues`` exceeded) comes back from
    :meth:`reap` as *lost* so the caller can record a failure and the
    sweep can still finish.
    """

    def __init__(self, cells: Iterable[Cell],
                 lease_s: float = DEFAULT_LEASE_S,
                 max_requeues: int = DEFAULT_MAX_REQUEUES):
        self.lease_s = lease_s
        self.max_requeues = max_requeues
        self._lock = threading.Lock()
        self._pending: deque[Cell] = deque(cells)
        #: key -> [cell, worker_id, expires_at]
        self._leases: dict[str, list] = {}
        self._requeues: dict[str, int] = {}
        self._done: set[str] = set()
        #: done keys whose recorded outcome is a failure (lost lease or
        #: a non-ok record) — still supersedable by a real ok record.
        self._failed: set[str] = set()
        #: keys this queue instance has handed out at least once; a key
        #: completed without ever being leased here (a reconnecting
        #: worker re-submitting to a journal-restored queue) may still
        #: sit in the pending deque and must be scanned out.
        self._ever_leased: set[str] = set()

    def lease(self, worker: str,
              now: Optional[float] = None) -> Optional[Cell]:
        """Hand the next pending cell to ``worker`` (None = none free)."""
        cells = self.lease_batch(worker, 1, now=now)
        return cells[0] if cells else None

    def lease_batch(self, worker: str, max_cells: int,
                    now: Optional[float] = None) -> list[Cell]:
        """Hand up to ``max_cells`` pending cells to ``worker`` in one
        turn — the batched lease all K cells' expiries start from."""
        now = time.monotonic() if now is None else now
        cells: list[Cell] = []
        with self._lock:
            while self._pending and len(cells) < max_cells:
                cell = self._pending.popleft()
                self._leases[cell.key()] = [cell, worker,
                                            now + self.lease_s]
                self._ever_leased.add(cell.key())
                cells.append(cell)
        return cells

    def heartbeat(self, worker: str, key: str,
                  now: Optional[float] = None) -> bool:
        """Extend ``worker``'s lease on ``key``; False if it no longer
        holds one (expired and reassigned — the result may be dropped)."""
        now = time.monotonic() if now is None else now
        with self._lock:
            lease = self._leases.get(key)
            if lease is None or lease[1] != worker:
                return False
            lease[2] = now + self.lease_s
            return True

    def complete(self, worker: str, key: str, ok: bool) -> bool:
        """Mark ``key`` done; True if the caller should keep the record.

        Any worker's result completes the key — even one whose lease
        expired (its record is just as valid; the cell is fixed-seed
        deterministic).  A key already done is a duplicate and the
        record should be dropped, with one asymmetry: a key whose
        recorded outcome so far is a *failure* (a lost lease, or a
        timeout/error submitted by a presumed-dead worker while the
        re-served copy was still running) is superseded by a later real
        ok record — last-record-wins, the store readers' convention.
        """
        with self._lock:
            if key in self._done:
                if ok and key in self._failed:
                    self._failed.discard(key)
                    return True
                return False
            self._leases.pop(key, None)
            # Only a requeued key — or one this queue never leased (a
            # reconnecting worker re-submitting into a journal-restored
            # queue) — can still sit in pending; a never-requeued key
            # leased here was popped when leased, so the deque scan is
            # skipped in the common case.
            if self._requeues.get(key) or key not in self._ever_leased:
                self._pending = deque(
                    c for c in self._pending if c.key() != key
                )
            self._done.add(key)
            if not ok:
                self._failed.add(key)
            return True

    def release_worker(self, worker: str) -> list[Cell]:
        """Requeue every lease held by a disconnected worker."""
        with self._lock:
            keys = [k for k, lease in self._leases.items()
                    if lease[1] == worker]
            return [self._requeue_locked(k) for k in keys]

    def reap(self, now: Optional[float] = None) -> list[Cell]:
        """Requeue expired leases; returns the cells declared *lost*
        (requeued more than ``max_requeues`` times, now marked done)."""
        now = time.monotonic() if now is None else now
        lost = []
        with self._lock:
            expired = [k for k, lease in self._leases.items()
                       if lease[2] < now]
            for key in expired:
                cell = self._requeue_locked(key)
                if cell is not None:
                    lost.append(cell)
        return lost

    def cancel(self) -> tuple[int, list[str]]:
        """Drop all pending cells and revoke every live lease.

        Returns ``(dropped, revoked_keys)``.  Afterwards the queue is
        finished: heartbeats answer ``gone`` (killing in-flight cells)
        and results for revoked keys are refused by the coordinator's
        cancelled-tenant check.
        """
        with self._lock:
            dropped = len(self._pending)
            self._pending.clear()
            revoked = sorted(self._leases)
            self._leases.clear()
            return dropped, revoked

    def _requeue_locked(self, key: str) -> Optional[Cell]:
        """Drop ``key``'s lease; returns the cell only if it became
        lost (otherwise it went back on the pending deque)."""
        cell, _, _ = self._leases.pop(key)
        self._requeues[key] = self._requeues.get(key, 0) + 1
        if self._requeues[key] > self.max_requeues:
            self._done.add(key)
            self._failed.add(key)
            return cell
        self._pending.append(cell)
        return None

    def requeues(self, key: str) -> int:
        with self._lock:
            return self._requeues.get(key, 0)

    def finished(self) -> bool:
        with self._lock:
            return not self._pending and not self._leases

    def outstanding(self) -> int:
        with self._lock:
            return len(self._pending) + len(self._leases)

    def pending_count(self) -> int:
        with self._lock:
            return len(self._pending)

    def has_leases(self) -> bool:
        with self._lock:
            return bool(self._leases)

    def counts(self) -> dict:
        """Live queue counts for the ``status`` verb / progress lines."""
        with self._lock:
            return {
                "pending": len(self._pending),
                "leased": len(self._leases),
                "done": len(self._done),
                "failed": len(self._failed),
            }

    def leases_by_worker(self) -> dict[str, list[str]]:
        """Current leases grouped by holder (key lists, sorted)."""
        out: dict[str, list[str]] = {}
        with self._lock:
            for key, (_, worker, _) in self._leases.items():
                out.setdefault(worker, []).append(key)
        for keys in out.values():
            keys.sort()
        return out

    # -- journal (crash-restart) snapshot ---------------------------------

    def snapshot(self) -> dict:
        """JSON-safe queue state for the coordinator's journal.

        Pending cells are *not* serialized — a restart re-expands them
        from the spec minus the store's completed keys; the journal only
        has to carry what that re-expansion can't reconstruct: done keys
        (including failed/lost ones a store-based resume would retry),
        requeue counts, and the keys leased at snapshot time.
        """
        with self._lock:
            return {
                "done": sorted(self._done),
                "failed": sorted(self._failed),
                "requeues": dict(self._requeues),
                "leased": sorted(self._leases),
            }

    def restore(self, snapshot: dict) -> list[Cell]:
        """Apply a journal snapshot to a freshly built queue.

        Keys the journal says are done leave the pending deque; requeue
        counts are restored so ``max_requeues`` history survives the
        restart; keys that were *leased* when the journal was written
        lost their worker with the old coordinator, so each one is
        charged a requeue exactly as a dead-worker release would.
        Returns the cells that exhausted their requeue budget in the
        process (declared lost — the caller records them).
        """
        lost: list[Cell] = []
        with self._lock:
            for key, count in snapshot.get("requeues", {}).items():
                self._requeues[key] = max(
                    self._requeues.get(key, 0), int(count))
            self._done.update(snapshot.get("done", ()))
            self._failed.update(snapshot.get("failed", ()))
            for key in snapshot.get("leased", ()):
                if key not in self._done:
                    self._requeues[key] = self._requeues.get(key, 0) + 1
            still: deque[Cell] = deque()
            for cell in self._pending:
                key = cell.key()
                if key in self._done:
                    continue
                if self._requeues.get(key, 0) > self.max_requeues:
                    self._done.add(key)
                    self._failed.add(key)
                    lost.append(cell)
                else:
                    still.append(cell)
            self._pending = still
        return lost


class QueueJournal:
    """Durable queue snapshots beside the result stores.

    The stores alone cannot restart a mid-sweep coordinator faithfully:
    they know the *ok* cells (resume skips them) but not the requeue
    history (``max_requeues`` would reset, so a worker-killing cell
    could loop forever across coordinator bounces) nor which
    failed/lost keys the dying coordinator had already given up on.
    The journal is a single atomically-replaced, fsync'd JSON file
    (format ``repro-farm-journal``) carrying exactly that per tenant
    (:meth:`WorkQueue.snapshot` plus each sweep's spec and
    fingerprint), written periodically and at drain.
    """

    def __init__(self, path: str):
        self.path = path

    def write(self, sweeps: dict, drained: bool = False) -> None:
        """One entry per named sweep, each a queue snapshot plus the
        spec needed to re-expand its pending cells."""
        write_json_atomic(self.path, {
            "format": "repro-farm-journal",
            "version": 2,
            "drained": drained,
            "sweeps": sweeps,
        })

    #: Same writer under its former name: external instrumentation
    #: that wraps journal writes by attribute still finds it.
    write_farm = write

    def load(self) -> Optional[dict]:
        """The last snapshot, or None when no journal exists yet."""
        if not os.path.exists(self.path):
            return None
        try:
            with open(self.path, encoding="utf-8") as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise DistributedError(
                f"unreadable queue journal {self.path}: {exc}")
        if payload.get("format") != "repro-farm-journal":
            raise DistributedError(
                f"{self.path} is not a repro queue journal")
        return payload

    def remove(self) -> None:
        try:
            os.unlink(self.path)
        except OSError:
            pass


# -- per-tenant state ---------------------------------------------------------


def _progress(records: int, outstanding: int, elapsed: float) -> dict:
    """A status payload's ``cells_per_s`` and ``eta_s`` (0.0 when no
    cell is outstanding, None before the first record)."""
    rate = records / elapsed
    if not outstanding:
        eta = 0.0
    elif rate > 0:
        eta = round(outstanding / rate, 1)
    else:
        eta = None
    return {"cells_per_s": round(rate, 4), "eta_s": eta}


class SweepState:
    """One named sweep inside a multi-tenant coordinator.

    Owns the tenant's queue, store, priority, and bookkeeping; the
    coordinator's global counters are sums over these.
    """

    def __init__(self, name: str, spec: SweepSpec,
                 store: Optional[ResultStore], owns_store: bool,
                 priority: int, lease_s: float, max_requeues: int):
        self.name = name
        self.spec = spec
        self.fingerprint = spec.fingerprint()
        self.store = store
        #: Farm-opened stores are closed by the coordinator at stop();
        #: caller-supplied ones stay the caller's to close.
        self.owns_store = owns_store
        self.priority = priority
        self.cancelled = False
        done = store.completed_keys() if store is not None else set()
        todo = [c for c in spec.cells() if c.key() not in done]
        self.total = len(todo)
        self.queue = WorkQueue(todo, lease_s=lease_s,
                               max_requeues=max_requeues)
        self.fresh: list[dict] = []
        self.duplicates = 0
        #: Fair-share clock: bumped to the coordinator's lease sequence
        #: each time this tenant is served, so ties on priority go to
        #: the tenant served longest ago.
        self.last_leased_seq = 0
        self.started_at = time.monotonic()

    def snapshot(self, now: Optional[float] = None) -> dict:
        """JSON-safe per-sweep view for ``status``/``attach``/``list``."""
        now = time.monotonic() if now is None else now
        counts = self.queue.counts()
        outstanding = counts["pending"] + counts["leased"]
        return {
            "name": self.name,
            "priority": self.priority,
            "cancelled": self.cancelled,
            "fingerprint": self.fingerprint,
            "total": self.total,
            "pending": counts["pending"],
            "leased": counts["leased"],
            "done": self.total - outstanding,
            "lost": counts["failed"],
            "records": len(self.fresh),
            "duplicates": self.duplicates,
            **_progress(len(self.fresh), outstanding,
                        max(1e-9, now - self.started_at)),
            "finished": self.queue.finished(),
            "store": self.store.path if self.store is not None else None,
        }


# -- coordinator --------------------------------------------------------------


def _farm_verb_reply(coord: "Coordinator", msg: dict) -> dict:
    """Handle one farm-management verb; errors become error *replies*
    (the connection stays usable), unlike worker-verb errors which drop
    the peer."""
    kind = msg.get("type")
    try:
        if kind == "submit":
            spec_dict = msg.get("spec")
            if not isinstance(spec_dict, dict):
                raise DistributedError("submit without a spec")
            spec = SweepSpec.from_dict(spec_dict)
            sent = msg.get("fingerprint")
            if sent is not None and sent != spec.fingerprint():
                raise DistributedError(
                    f"submitted fingerprint {sent} != recomputed "
                    f"{spec.fingerprint()} (coordinator/client schema "
                    "skew?)")
            state, created = coord.add_sweep(
                msg.get("name"), spec=spec,
                priority=int(msg.get("priority", DEFAULT_PRIORITY)))
            return {"type": "ok", "sweep": state.name,
                    "created": created, "total": state.total,
                    "fingerprint": state.fingerprint}
        if kind == "attach":
            return {"type": "sweep",
                    **coord.sweep_snapshot(msg.get("name"))}
        if kind == "list":
            return {"type": "sweeps", "sweeps": coord.sweeps_snapshot()}
        if kind == "cancel":
            return {"type": "ok",
                    **coord.cancel_sweep(msg.get("name"))}
        raise DistributedError(f"unknown farm verb {kind!r}")
    except (DistributedError, ReproError, TypeError, ValueError) as exc:
        return {"type": "error", "reason": str(exc)}


def _sweep_tag(msg: dict) -> str:
    """The tenant a ``heartbeat``/``result`` names; a message without
    one is malformed and drops the worker like any other."""
    sweep = msg.get("sweep")
    if not isinstance(sweep, str):
        raise DistributedError(f"{msg.get('type')} without a sweep tag")
    return sweep


def _max_cells(msg: dict) -> int:
    """A ``lease``'s batch size; a malformed one drops the worker like
    any other malformed message."""
    try:
        return max(1, int(msg.get("max_cells") or 1))
    except (TypeError, ValueError):
        raise DistributedError(
            f"lease with a malformed max_cells {msg.get('max_cells')!r}")


class Coordinator(Service):
    """Serve sweeps' cells to remote workers and merge their records.

    The counterpart of :func:`repro.experiments.run_sweep` for
    multi-host execution: the same resume semantics (cells whose key the
    store already holds are never served), the same stores (every record
    a worker streams back is appended and flushed immediately, to the
    tenant that leased the cell), and the same failure conventions (a
    cell no worker could finish is recorded with ``status="lost"``,
    ``valid=False``, excluded from fits and retried by the next resume).

    Two shapes:

    * **single sweep** (``repro sweep --serve``)::

          coord = Coordinator(spec, store=store)
          host, port = coord.start()
          ... point `repro worker --connect host:port` at it ...
          fresh = coord.wait()      # returns when the sweep completes

    * **persistent farm** (``repro farm serve``)::

          coord = Coordinator(persistent=True, store_dir="results/")
          coord.start()
          ... `repro farm submit --name exp-a ...` adds tenants over
          ... the wire (or call coord.add_sweep directly) ...
          coord.drain()             # SIGTERM handler calls this
          coord.wait()              # returns after the drain settles

    A persistent coordinator never declares the work complete on its
    own — an empty farm idles, waiting for the next ``submit`` — so
    :meth:`wait` only returns after :meth:`drain`.
    """

    drain_grace_s = DEFAULT_DRAIN_GRACE_S
    #: tells a drained exit from a completed sweep (journal, CLI).
    drained = Service.draining

    def __init__(
        self,
        spec: Optional[SweepSpec] = None,
        store: Optional[ResultStore] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_s: float = DEFAULT_LEASE_S,
        max_requeues: int = DEFAULT_MAX_REQUEUES,
        progress: Optional[Callable[[dict, int, int], None]] = None,
        journal: Optional[QueueJournal] = None,
        resume_journal: bool = False,
        journal_interval_s: float = DEFAULT_JOURNAL_INTERVAL_S,
        persistent: bool = False,
        store_dir: Optional[str] = None,
        name: str = DEFAULT_SWEEP,
        priority: int = DEFAULT_PRIORITY,
    ):
        if spec is None and not persistent:
            raise DistributedError("Coordinator needs a spec")
        super().__init__(host, port)
        self.lease_s = lease_s
        self.max_requeues = max_requeues
        self.fresh: list[dict] = []
        self._persistent = persistent
        self._store_dir = store_dir
        # Attached below, *after* the initial sweep registers: add_sweep
        # persists the registry, which must not clobber a journal that
        # resume_journal is about to load.
        self._journal = None
        self._journal_interval_s = journal_interval_s
        self._progress = progress
        self._lock = threading.Lock()
        #: worker_id -> {connections, completed, last_seen,
        #:               last_heartbeat} (monotonic clocks)
        self._workers: dict[str, dict] = {}
        self._started_at = time.monotonic()
        # Serializes tenant bookkeeping — the sweep registry, leasing,
        # and "mark done in the queue" with "write the record";
        # check_finished takes it too, so no thread can observe the
        # queues finished while the final record is still unwritten
        # (wait() returning before the last append reaches a store).
        self._submit_lock = threading.Lock()
        self._sweeps: dict[str, SweepState] = {}
        self._lease_seq = 0
        if spec is not None:
            self.add_sweep(name, spec=spec, store=store, priority=priority)
        self._journal = journal
        if journal is not None and resume_journal:
            payload = journal.load()
            if payload is not None:
                self._restore_journal(payload)
        self.check_finished()

    # -- tenant registry ---------------------------------------------------

    def add_sweep(
        self,
        name: str,
        spec: SweepSpec,
        store: Optional[ResultStore] = None,
        priority: int = DEFAULT_PRIORITY,
        owns_store: bool = False,
    ) -> tuple[SweepState, bool]:
        """Register (or find) a named sweep; returns (state, created).

        Submitting the same name with the same spec fingerprint is
        idempotent (the live tenant is returned, ``created=False``);
        the same name with a *different* spec is an error — records
        from different matrices must not share a store.  Resubmitting a
        *cancelled* name revives it with a fresh queue (the store, if
        farm-managed, resumes from its completed keys as usual).
        """
        name = str(name or "")
        if not _SWEEP_NAME_RE.match(name):
            raise DistributedError(
                f"invalid sweep name {name!r} "
                f"(want /{_SWEEP_NAME_PATTERN}/)")
        fingerprint = spec.fingerprint()
        with self._submit_lock:
            if self._draining.is_set():
                raise DistributedError(
                    "coordinator is draining; not accepting new sweeps")
            existing = self._sweeps.get(name)
            if existing is not None and not existing.cancelled:
                if fingerprint != existing.fingerprint:
                    raise DistributedError(
                        f"sweep {name!r} is already being served for a "
                        f"different spec (fingerprint "
                        f"{existing.fingerprint} != {fingerprint})")
                return existing, False
            if (existing is not None and existing.owns_store
                    and existing.store is not None):
                try:
                    existing.store.close()
                except OSError:
                    pass
            if store is None and self._store_dir is not None:
                store = ResultStore(
                    os.path.join(self._store_dir, f"{name}.jsonl"))
                owns_store = True
            state = SweepState(name, spec, store, owns_store, priority,
                               self.lease_s, self.max_requeues)
            self._sweeps[name] = state
            if not state.queue.finished():
                self._finished.clear()
        self.check_finished()
        self._journal_write()
        return state, True

    def _states(self) -> list[SweepState]:
        with self._submit_lock:
            return list(self._sweeps.values())

    # -- single-sweep surface ----------------------------------------------

    @property
    def queue(self) -> WorkQueue:
        """The default (or sole) tenant's queue — the single-sweep API."""
        with self._submit_lock:
            state = self._sweeps.get(DEFAULT_SWEEP)
            if state is None and len(self._sweeps) == 1:
                state = next(iter(self._sweeps.values()))
        if state is None:
            raise DistributedError(
                "no default sweep on this coordinator; address tenants "
                "by name")
        return state.queue

    @property
    def total(self) -> int:
        return sum(s.total for s in list(self._sweeps.values()))

    @property
    def duplicates(self) -> int:
        return sum(s.duplicates for s in list(self._sweeps.values()))

    # -- journal restore ---------------------------------------------------

    def _restore_journal(self, payload: dict) -> None:
        entries = {str(name): entry for name, entry
                   in (payload.get("sweeps") or {}).items()}
        if not self._persistent:
            extras = sorted(set(entries) - set(self._sweeps))
            if extras:
                raise DistributedError(
                    f"queue journal {self._journal.path} holds sweeps "
                    f"this coordinator is not serving "
                    f"({', '.join(extras)}); resume the whole farm with "
                    "`repro farm serve --resume-journal` instead")
        for name, entry in entries.items():
            state = self._sweeps.get(name)
            if state is None:
                # Persistent farm: rebuild the tenant from its
                # journalled spec.
                spec_dict = entry.get("spec")
                if not spec_dict:
                    raise DistributedError(
                        f"journal entry for sweep {name!r} carries no "
                        "spec; submit the sweep again instead of "
                        "resuming")
                state, _ = self.add_sweep(
                    name, spec=SweepSpec.from_dict(spec_dict),
                    priority=int(entry.get("priority", DEFAULT_PRIORITY)))
            theirs = entry.get("fingerprint")
            if theirs is not None and theirs != state.fingerprint:
                raise DistributedError(
                    f"queue journal {self._journal.path} was written for "
                    f"a different sweep (fingerprint {theirs} != "
                    f"{state.fingerprint}); refusing to replay its "
                    "requeue history into this one"
                )
            if entry.get("cancelled"):
                state.cancelled = True
                state.queue.cancel()
            for cell in state.queue.restore(entry):
                self._record_lost(state, cell)

    # -- lifecycle --------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Bind, start serving in background threads; returns (host, port)."""
        # A healthy worker is never silent longer than a lease (it
        # heartbeats at lease/3 while running); a socket quiet for two
        # leases is a dead peer and its cells must go back in the queue.
        self._listen(PROTOCOL, PROTOCOL_VERSION,
                     max(10.0, 2 * self.lease_s), DistributedError,
                     welcome={"lease_s": self.lease_s})
        threading.Thread(target=self._reap_loop, daemon=True).start()
        if self._journal is not None:
            threading.Thread(target=self._journal_loop, daemon=True).start()
        return self.address

    def wait(self, timeout: Optional[float] = None,
             linger_s: float = 0.0) -> list[dict]:
        """Block until every cell is recorded (or the coordinator is
        drained or stopped); returns the fresh records.

        ``linger_s`` keeps the coordinator up briefly after the last
        record so workers parked in the idle loop (or arriving late) can
        come back for their shutdown message instead of finding a dead
        socket.  A drained single sweep closes at once: its workers must
        ride out the bounce to the restarted coordinator, not exit on a
        lingering one's ``shutdown``.
        """
        if not self._finished.wait(timeout):
            outstanding = sum(s.queue.outstanding()
                              for s in self._states())
            raise DistributedError(
                f"sweep not finished after {timeout}s "
                f"({outstanding} cells outstanding)"
            )
        if linger_s > 0 and (self._persistent or not self.draining):
            time.sleep(linger_s)
        self._settle()
        self.stop()
        return self.fresh

    # A drain stops leasing (leases are answered ``shutdown``), waits
    # for in-flight cells, fsyncs the stores and journal; wait returns.

    def _busy(self) -> bool:
        return any(s.queue.has_leases() for s in self._states())

    def _settle(self) -> None:
        """Push every tenant store to disk and journal the final state."""
        for state in self._states():
            if state.store is not None:
                try:
                    state.store.sync()
                except (OSError, ValueError):
                    pass    # a closed store has nothing left to sync
        self._journal_write()

    def _close(self) -> None:
        for state in self._states():
            if state.owns_store and state.store is not None:
                try:
                    state.store.close()
                except OSError:
                    pass

    # -- one connected peer (a server thread each) -------------------------

    def _session(self, hello: dict, rfile, wfile, address) -> None:
        """Serve one handshaken peer until it leaves; whatever it held
        goes back in the queue.  A malformed worker message raises
        :class:`DistributedError`, which drops the connection."""
        worker = str(hello.get("worker") or f"{address[0]}:{address[1]}")
        # Control clients (`repro farm status|submit|...`) are
        # read-or-manage peers: they never lease, so they don't enter
        # the worker registry that drain/status report on.
        registered = hello.get("role") != "status"
        if registered:
            self.worker_connected(worker)
        try:
            while True:
                msg = _recv_msg(rfile)
                if msg is None:
                    return
                kind = msg.get("type")
                if kind == "lease":
                    self.touch_worker(worker)
                    if self.draining:
                        # Drain: no new work leaves the coordinator; the
                        # worker is released cleanly mid-sweep.
                        _send_msg(wfile, {"type": "shutdown"})
                        return
                    name, cells = self.lease_cells(worker, _max_cells(msg))
                    if cells:
                        _send_msg(wfile, {
                            "type": "cells",
                            "sweep": name,
                            "cells": [c.to_dict() for c in cells],
                        })
                    elif self.work_complete():
                        _send_msg(wfile, {"type": "shutdown"})
                        return
                    else:
                        # Everything is leased out (or the farm is idle
                        # but persistent); work may still arrive.
                        _send_msg(wfile, {
                            "type": "idle",
                            "retry_s": min(1.0, self.lease_s / 4),
                        })
                elif kind == "heartbeat":
                    keys = msg.get("keys")
                    if not isinstance(keys, list):
                        raise DistributedError("heartbeat without keys")
                    self.touch_worker(worker, heartbeat=True)
                    gone = self.heartbeat_keys(
                        worker, [str(k) for k in keys], _sweep_tag(msg))
                    _send_msg(wfile, {"type": "ok", "gone": gone})
                elif kind == "result":
                    record = msg.get("record")
                    if (not isinstance(record, dict)
                            or not isinstance(record.get("key"), str)):
                        raise DistributedError("result without a record")
                    accepted = self.submit(worker, record,
                                           sweep=_sweep_tag(msg))
                    _send_msg(wfile, {"type": "ok", "accepted": accepted})
                elif kind == "status":
                    _send_msg(wfile, {"type": "status",
                                      **self.status_snapshot()})
                elif kind in ("submit", "attach", "list", "cancel"):
                    _send_msg(wfile, _farm_verb_reply(self, msg))
                else:
                    raise DistributedError(
                        f"unknown message type {kind!r}")
        finally:
            self.release_worker_cells(worker)
            if registered:
                self.worker_disconnected(worker)

    # -- leasing / record sinks (handler and reaper threads) ---------------

    def lease_cells(self, worker: str,
                    max_cells: int = 1) -> tuple[Optional[str], list[Cell]]:
        """Fair-share lease of up to ``max_cells`` cells from one tenant.

        Tenant choice: highest priority wins; ties go to the tenant
        least recently served (a whole batch counts as one serving, so
        equal-priority sweeps alternate batches).  All cells in a batch
        come from a single sweep — one store, one ``sweep`` tag, one
        heartbeat covering them all.
        """
        with self._submit_lock:
            candidates = [s for s in self._sweeps.values()
                          if not s.cancelled
                          and s.queue.pending_count() > 0]
            if not candidates:
                return None, []
            best = max(candidates,
                       key=lambda s: (s.priority, -s.last_leased_seq))
            self._lease_seq += 1
            best.last_leased_seq = self._lease_seq
            cells = best.queue.lease_batch(worker, max_cells)
            return (best.name, cells) if cells else (None, [])

    def _live_locked(self, sweep: str) -> Optional[SweepState]:
        """The tenant named ``sweep``, or None if unknown/cancelled."""
        state = self._sweeps.get(sweep)
        return None if state is None or state.cancelled else state

    def submit(self, worker: str, record: dict, sweep: str) -> bool:
        """Merge one worker record into ``sweep``; False if dropped
        (duplicate, or a cancelled/unknown tenant)."""
        self.touch_worker(worker, completed=True)
        with self._submit_lock:
            key = record["key"]
            state = self._live_locked(sweep)
            accepted = state is not None and state.queue.complete(
                worker, key, record.get("status", "ok") == "ok")
            if accepted:
                self._record(state, record)
            elif state is not None:
                state.duplicates += 1
        self.check_finished()
        return accepted

    def heartbeat_keys(self, worker: str, keys: list[str],
                       sweep: str) -> list[str]:
        """Extend ``worker``'s leases on ``keys`` in ``sweep``; returns
        the subset whose leases are gone (the worker kills/drops
        exactly those cells)."""
        with self._submit_lock:
            state = self._live_locked(sweep)
            return [key for key in keys
                    if state is None
                    or not state.queue.heartbeat(worker, key)]

    def cancel_sweep(self, name: str) -> dict:
        """Stop a tenant: drop its pending cells, revoke its leases.

        In-flight workers learn at their next heartbeat (``gone``) and
        kill the cell; late results for the tenant are refused.  The
        tenant stays listed (``cancelled: true``) for status/attach and
        can be revived by resubmitting the same name.
        """
        with self._submit_lock:
            state = self._sweeps.get(str(name or ""))
            if state is None:
                raise DistributedError(f"no sweep named {name!r}")
            state.cancelled = True
            dropped, revoked = state.queue.cancel()
        self.check_finished()
        self._journal_write()
        return {"sweep": state.name, "dropped": dropped,
                "revoked": len(revoked)}

    # -- worker registry (drives `repro farm status`) ----------------------

    def worker_connected(self, worker: str) -> None:
        now = time.monotonic()
        with self._lock:
            entry = self._workers.setdefault(worker, {
                "connections": 0, "completed": 0,
                "last_seen": now, "last_heartbeat": None,
            })
            entry["connections"] += 1
            entry["last_seen"] = now

    def worker_disconnected(self, worker: str) -> None:
        with self._lock:
            entry = self._workers.get(worker)
            if entry is not None:
                entry["connections"] = max(0, entry["connections"] - 1)

    def touch_worker(self, worker: str, heartbeat: bool = False,
                     completed: bool = False) -> None:
        now = time.monotonic()
        with self._lock:
            entry = self._workers.get(worker)
            if entry is None:
                return
            entry["last_seen"] = now
            if heartbeat:
                entry["last_heartbeat"] = now
            if completed:
                entry["completed"] += 1

    def status_snapshot(self) -> dict:
        """The read-only ``status`` verb's payload (JSON-safe).

        Global queue counts (sums over tenants, so single-sweep readers
        see exactly the pre-farm shape), per-worker health (connection
        state, cells completed, heartbeat/last-message ages, held
        leases), per-sweep snapshots, and session throughput —
        ``cells_per_s`` over this coordinator's lifetime and the ETA it
        implies for the outstanding cells.
        """
        now = time.monotonic()
        states = self._states()
        counts = [s.queue.counts() for s in states]
        leases: dict[str, list[str]] = {}
        for s in states:
            for wid, keys in s.queue.leases_by_worker().items():
                leases.setdefault(wid, []).extend(keys)
        for keys in leases.values():
            keys.sort()
        with self._lock:
            workers = {
                wid: {
                    "connected": entry["connections"] > 0,
                    "completed": entry["completed"],
                    "last_seen_age_s": round(now - entry["last_seen"], 3),
                    "last_heartbeat_age_s": (
                        round(now - entry["last_heartbeat"], 3)
                        if entry["last_heartbeat"] is not None else None),
                    "leases": leases.get(wid, []),
                }
                for wid, entry in self._workers.items()
            }
        total = sum(s.total for s in states)
        pending = sum(c["pending"] for c in counts)
        leased = sum(c["leased"] for c in counts)
        outstanding = pending + leased
        elapsed = max(1e-9, now - self._started_at)
        return {
            "total": total,
            "pending": pending,
            "leased": leased,
            "done": total - outstanding,
            "lost": sum(c["failed"] for c in counts),
            "records": len(self.fresh),
            "duplicates": sum(s.duplicates for s in states),
            "active_workers": sum(
                1 for w in workers.values() if w["connected"]),
            "workers": workers,
            "elapsed_s": round(elapsed, 3),
            **_progress(len(self.fresh), outstanding, elapsed),
            "draining": self.draining,
            "finished": self._finished.is_set(),
            "persistent": self._persistent,
            "sweeps": {s.name: s.snapshot(now) for s in states},
        }

    def sweep_snapshot(self, name: str) -> dict:
        """One tenant's snapshot (the ``attach`` verb's payload)."""
        with self._submit_lock:
            state = self._sweeps.get(str(name or ""))
        if state is None:
            raise DistributedError(f"no sweep named {name!r}")
        return state.snapshot()

    def sweeps_snapshot(self) -> dict:
        """All tenants' snapshots (the ``list`` verb's payload)."""
        now = time.monotonic()
        return {s.name: s.snapshot(now) for s in self._states()}

    def release_worker_cells(self, worker: str) -> None:
        """Requeue a disconnected worker's leases across every tenant,
        recording any that exhausted their requeue budget."""
        with self._submit_lock:
            for state in self._sweeps.values():
                for cell in state.queue.release_worker(worker):
                    if cell is not None:
                        self._record_lost(state, cell)
        self.check_finished()

    def _record_lost(self, state: SweepState, cell: Cell) -> None:
        """A cell no worker could hold a lease on long enough."""
        self._record(state, _failure_record(
            cell, "lost",
            attempts=state.queue.requeues(cell.key()),
            error=("lease expired or worker died "
                   f"{state.queue.requeues(cell.key())} times"),
        ))

    def _record(self, state: SweepState, rec: dict) -> None:
        with self._lock:
            state.fresh.append(rec)
            self.fresh.append(rec)
            if state.store is not None:
                state.store.append(rec)
            count = len(self.fresh)
        if self._progress is not None:
            self._progress(rec, count, self.total)

    def work_complete(self) -> bool:
        """Would a lease request be answered ``shutdown``?  A
        persistent farm idles instead of shutting workers down — more
        work may be submitted any minute."""
        with self._submit_lock:
            return self._all_done_locked()

    def _all_done_locked(self) -> bool:
        if self._persistent and not self._draining.is_set():
            return False
        return all(s.queue.finished() for s in self._sweeps.values())

    def check_finished(self) -> None:
        with self._submit_lock:
            if self._all_done_locked():
                self._finished.set()

    def _reap_loop(self) -> None:
        interval = max(0.05, self.lease_s / 4)
        while not self._finished.wait(interval):
            with self._submit_lock:
                for state in self._sweeps.values():
                    for cell in state.queue.reap():
                        self._record_lost(state, cell)
            self.check_finished()

    def _journal_loop(self) -> None:
        interval = max(0.05, self._journal_interval_s)
        while not self._finished.wait(interval):
            self._journal_write()

    def _journal_write(self) -> None:
        if self._journal is None:
            return
        states = self._states()
        sweeps = {}
        for s in states:
            sweeps[s.name] = {
                "spec": s.spec.to_dict(),
                "fingerprint": s.fingerprint,
                "priority": s.priority,
                "cancelled": s.cancelled,
                **s.queue.snapshot(),
            }
        try:
            self._journal.write(sweeps, drained=self.drained)
        except OSError:
            # A journal that cannot be written degrades restart fidelity,
            # not the live sweep; the stores still hold every record.
            pass


# -- control clients (status / farm management) -------------------------------


def _farm_request(host: str, port: int, msg: dict, expect: str,
                  timeout_s: float, role: str) -> dict:
    """One control round trip: connect, handshake as a ``role="status"``
    peer (never in the worker registry), send ``msg``, and return the
    reply of type ``expect``.  ``timeout_s`` bounds the whole call."""
    deadline = time.monotonic() + timeout_s
    with Client.connect(host, port, timeout_s, DistributedError,
                        "coordinator") as client:
        handshake(lambda hello: client.exchange(hello, deadline), PROTOCOL,
                  PROTOCOL_VERSION, DistributedError,
                  worker=f"{role}-{os.getpid()}", role="status")
        reply = client.exchange(msg, deadline)
    if reply.get("type") == "error":
        raise DistributedError(
            reply.get("reason") or f"{msg['type']} refused")
    if reply.get("type") != expect:
        raise DistributedError(
            f"unexpected {msg['type']} reply "
            f"{reply.get('type')!r} (old coordinator?)")
    return reply


def fetch_status(host: str, port: int,
                 timeout_s: float = DEFAULT_REQUEST_TIMEOUT_S) -> dict:
    """One read-only ``status`` round trip against a live coordinator
    (``repro farm status``); returns the snapshot dict."""
    return _farm_request(host, port, {"type": "status"}, "status",
                         timeout_s, "status")


def submit_sweep(host: str, port: int, name: str, spec: SweepSpec,
                 priority: int = DEFAULT_PRIORITY,
                 timeout_s: float = DEFAULT_REQUEST_TIMEOUT_S) -> dict:
    """Register a named sweep on a running farm (`repro farm submit`).

    Carries the spec and its fingerprint; the coordinator recomputes
    the fingerprint from the shipped spec and refuses on mismatch, so a
    client/coordinator schema skew cannot silently mint a different
    matrix under the submitted name.  Returns the coordinator's ack
    (``sweep``, ``created``, ``total``, ``fingerprint``).
    """
    return _farm_request(host, port, {
        "type": "submit", "name": name, "spec": spec.to_dict(),
        "fingerprint": spec.fingerprint(), "priority": priority,
    }, "ok", timeout_s, "submit")


def fetch_sweep(host: str, port: int, name: str,
                timeout_s: float = DEFAULT_REQUEST_TIMEOUT_S) -> dict:
    """One tenant's live snapshot (`repro farm attach` polls this)."""
    return _farm_request(host, port, {"type": "attach", "name": name},
                         "sweep", timeout_s, "attach")


def list_sweeps(host: str, port: int,
                timeout_s: float = DEFAULT_REQUEST_TIMEOUT_S) -> dict:
    """All tenants' snapshots, keyed by sweep name."""
    return _farm_request(host, port, {"type": "list"},
                         "sweeps", timeout_s, "list")["sweeps"]


def cancel_sweep(host: str, port: int, name: str,
                 timeout_s: float = DEFAULT_REQUEST_TIMEOUT_S) -> dict:
    """Cancel a named sweep (`repro farm cancel`); returns the ack
    (``dropped`` pending cells, ``revoked`` live leases)."""
    return _farm_request(host, port, {"type": "cancel", "name": name},
                         "ok", timeout_s, "cancel")


# -- worker -------------------------------------------------------------------


def _run_leased_cell(cell: Cell, heartbeat: Callable[[], bool],
                     interval: float, supervisor: Supervisor,
                     last_beat: Optional[float] = None) -> Optional[dict]:
    """Run one cell in the worker's supervised child, heartbeating meanwhile.

    The supervisor (one slot) gives the exact local-sweep semantics —
    the cell executes in a child process with its
    ``timeout_s``/``retries`` honored and errors captured as records —
    and the worker's long-lived ``supervisor`` keeps its warm child past
    this call.  The lease is serviced from the supervisor's ``keep``
    callback, on this thread: ``heartbeat()`` is called whenever
    ``interval`` seconds have passed since the previous beat;
    ``last_beat`` (a :func:`time.monotonic` stamp, default now) lets a
    batch carry its clock across cells.  A beat blocked on a slow
    coordinator holds up the supervisor loop, so it delays this cell's
    deadline kill by as long.

    ``heartbeat`` returns False when the coordinator revoked the lease
    (``gone``): the in-flight child process is killed (or, at a beat
    before the cell starts, never forked) and ``None`` comes back — the
    caller must *not* submit anything, the cell now belongs to another
    worker.  A heartbeat that *raises* (connection loss) gets the same
    reaping on the way out: the child never outlives its lease.
    """
    out: list[dict] = []
    due = (time.monotonic() if last_beat is None else last_beat) + interval

    def keep() -> bool:
        nonlocal due
        if time.monotonic() < due:
            return True
        alive = heartbeat()
        due = time.monotonic() + interval
        return alive

    if not _run_cells_with_timeout([cell], 1, out.append, keep=keep,
                                   supervisor=supervisor):
        return None
    return out[0]


def _run_leased_batch(
    cells: list[Cell],
    heartbeat: Callable[[list[str]], set],
    interval: float,
    submit: Callable[[dict, float], None],
    supervisor: Supervisor,
) -> None:
    """Run a batch of leased cells sequentially, one heartbeat for all.

    Each cell runs through :func:`_run_leased_cell` on one shared
    heartbeat clock, so while any batch cell is in flight no lease goes
    longer than ``interval`` without a beat: after a quick cell, the
    next cell's first ``keep`` check beats when one is due.
    ``heartbeat(keys)`` covers the current cell *and* the queued
    remainder (their leases age while they wait their turn) and returns
    the subset of keys whose leases are gone: revoked queued cells are
    dropped from the batch, a revoked current cell is killed (or never
    started) and not submitted.  ``submit(record, wall_s)`` is called
    per completed cell (the wall time feeds the worker's EWMA batch
    tuner); a submit that raises (connection cut mid-send) aborts the
    rest of the batch — the coordinator requeues the unfinished cells
    when their leases lapse, and the cut-off record is re-submitted
    after reconnect.
    """
    remaining: deque[Cell] = deque(cells)
    last_beat = time.monotonic()

    def _beat(current_key: str) -> bool:
        """Heartbeat everything in flight; True = current cell alive."""
        nonlocal last_beat, remaining
        gone = heartbeat([current_key] + [c.key() for c in remaining])
        last_beat = time.monotonic()
        if gone:
            remaining = deque(c for c in remaining
                              if c.key() not in gone)
        return current_key not in gone

    while remaining:
        cell = remaining.popleft()
        key = cell.key()
        started = time.monotonic()
        record = _run_leased_cell(cell, heartbeat=lambda: _beat(key),
                                  interval=interval, supervisor=supervisor,
                                  last_beat=last_beat)
        if record is None:
            continue
        submit(record, time.monotonic() - started)


def _batch_size(ewma_wall: Optional[float], max_batch: int,
                batch_target_s: float, lease_s: float) -> int:
    """How many cells to lease this round trip.

    Until a wall-time estimate exists, probe with one cell; afterwards
    take as many as fit the target window — never past the lease, never
    past ``max_batch``.  Sub-second cells approach ``max_batch``; cells
    slower than the window degrade to one cell per lease.
    """
    if max_batch <= 1 or ewma_wall is None:
        return 1
    window = min(batch_target_s, lease_s)
    return max(1, min(max_batch, int(window / max(ewma_wall, 1e-6))))


def _observe_wall(state: "_WorkerState", wall_s: float) -> None:
    if state.ewma_wall is None:
        state.ewma_wall = wall_s
    else:
        state.ewma_wall = (BATCH_EWMA_ALPHA * wall_s
                           + (1 - BATCH_EWMA_ALPHA) * state.ewma_wall)


class _WorkerState:
    """What survives a worker's reconnects: the completion count, the
    cell-wall EWMA steering the batch size, records whose submission
    was cut off mid-send (re-submitted on the next connection instead
    of recomputed), and the supervisor whose warm child runs the cells."""

    def __init__(self):
        self.supervisor = Supervisor(runner._spawn_cell_process)
        self.completed = 0
        #: (record, sweep name) not yet acked by a coordinator.
        self.pending: list[tuple[dict, str]] = []
        self.progressed = 0     # successful exchanges; resets backoff
        self.ewma_wall: Optional[float] = None


def run_worker(
    host: str,
    port: int,
    worker_id: Optional[str] = None,
    poll_s: float = 1.0,
    progress: Optional[Callable[[dict, int], None]] = None,
    reconnect: int = DEFAULT_RECONNECT_ATTEMPTS,
    backoff_s: float = DEFAULT_BACKOFF_S,
    backoff_max_s: float = DEFAULT_BACKOFF_MAX_S,
    request_timeout_s: float = DEFAULT_REQUEST_TIMEOUT_S,
    on_reconnect: Optional[Callable[[int, float, str], None]] = None,
    connect: Optional[Callable[[], socket.socket]] = None,
    max_batch: int = DEFAULT_MAX_BATCH,
    batch_target_s: float = DEFAULT_BATCH_TARGET_S,
) -> int:
    """Pull cells from a coordinator until it declares the sweep done.

    Returns the number of cells this worker completed (across every
    connection — the same ``worker_id`` is resumed after a reconnect).
    A lost or refused connection is retried with exponential backoff
    and deterministic jitter, up to ``reconnect`` *consecutive* failed
    attempts (any successful exchange resets the budget); only then
    does :class:`DistributedError` surface.  A version-rejected
    handshake (:class:`ProtocolMismatchError`) is never retried —
    reconnecting cannot fix a protocol skew.

    ``max_batch``/``batch_target_s`` steer cell batching: the worker
    asks for up to ``max_batch`` cells per lease round trip, sized so
    (by the EWMA of observed cell wall time) a batch fits in
    ``batch_target_s`` seconds; ``max_batch=1`` leases one cell per
    round trip.

    ``on_reconnect(attempt, delay_s, reason)`` observes each retry
    (the CLI logs it); ``connect`` is a seam returning a connected
    socket, substituted by tests with scripted flaky sockets.
    """
    worker_id = worker_id or f"{socket.gethostname()}-{os.getpid()}"
    if connect is None:
        def connect() -> socket.socket:
            return socket.create_connection((host, port),
                                            timeout=request_timeout_s)
    # Deterministic jitter: seeded per worker id, so a fleet of workers
    # bounced by one coordinator restart de-synchronizes its retries
    # reproducibly rather than stampeding back in lockstep.
    jitter = random.Random(f"{worker_id}/reconnect")
    state = _WorkerState()
    failures = 0
    try:
        while True:
            progressed_before = state.progressed
            try:
                with Client(connect(), DistributedError,
                            "coordinator") as client:
                    return _worker_loop(client, poll_s, worker_id, progress,
                                        state, request_timeout_s,
                                        max_batch=max_batch,
                                        batch_target_s=batch_target_s)
            except ProtocolMismatchError:
                raise
            except (DistributedError, OSError) as exc:
                if state.progressed > progressed_before:
                    failures = 0    # the link worked; this is a new outage
                failures += 1
                if failures > reconnect:
                    raise DistributedError(
                        f"connection to coordinator lost and {reconnect} "
                        f"reconnect attempt(s) failed: {exc}")
                delay = min(backoff_max_s, backoff_s * 2 ** (failures - 1))
                delay *= 0.5 + jitter.random()      # [0.5x, 1.5x) jitter
                if on_reconnect is not None:
                    on_reconnect(failures, delay, str(exc))
                time.sleep(delay)
    finally:
        state.supervisor.close()


def _worker_loop(client: Client, poll_s: float, worker_id: str, progress,
                 state: _WorkerState,
                 request_timeout_s: float = DEFAULT_REQUEST_TIMEOUT_S,
                 max_batch: int = DEFAULT_MAX_BATCH,
                 batch_target_s: float = DEFAULT_BATCH_TARGET_S) -> int:
    """The protocol side of :func:`run_worker`, on an open connection."""

    def _request(msg: dict) -> dict:
        # Its own short deadline per exchange, however long the lease.
        # Not ``client.exchange``: frames go through this module's
        # ``_send_msg``/``_recv_msg``, which instrumentation wraps.
        with client.deadline(time.monotonic() + request_timeout_s):
            _send_msg(client.wfile, msg)
            reply = _recv_msg(client.rfile)
        if reply is None:
            raise DistributedError("connection to coordinator lost")
        state.progressed += 1
        return reply

    welcome = handshake(_request, PROTOCOL, PROTOCOL_VERSION,
                        DistributedError, worker=worker_id)
    lease_s = float(welcome.get("lease_s", DEFAULT_LEASE_S))
    heartbeat_interval = max(0.05, lease_s / 3)

    def _flush_pending() -> None:
        # Every record stays stashed until the coordinator acks it: if
        # the connection dies mid-send the reconnected loop re-submits
        # instead of recomputing (the queue dedups if the coordinator
        # did receive it).
        while state.pending:
            record, sweep = state.pending[0]
            _request({"type": "result", "record": record, "sweep": sweep})
            state.pending.pop(0)
            state.completed += 1
            if progress is not None:
                progress(record, state.completed)

    _flush_pending()

    while True:
        reply = _request({"type": "lease", "max_cells": _batch_size(
            state.ewma_wall, max_batch, batch_target_s, lease_s)})
        kind = reply.get("type")
        if kind == "shutdown":
            return state.completed
        if kind == "idle":
            time.sleep(float(reply.get("retry_s", poll_s)))
            continue
        if kind != "cells":
            raise DistributedError(
                f"unexpected lease reply {kind!r}")
        cells = [Cell.from_dict(c) for c in reply.get("cells", [])]
        sweep = reply.get("sweep")

        def _heartbeat(keys) -> set:
            r = _request({"type": "heartbeat", "keys": list(keys),
                          "sweep": sweep})
            if r.get("type") != "ok":
                raise DistributedError(
                    f"unexpected heartbeat reply {r.get('type')!r}")
            return set(r.get("gone") or ())

        def _deliver(record, wall_s) -> None:
            _observe_wall(state, wall_s)
            state.pending.append((record, sweep))
            _flush_pending()

        _run_leased_batch(cells, heartbeat=_heartbeat,
                          interval=heartbeat_interval, submit=_deliver,
                          supervisor=state.supervisor)
