"""Declarative sweep specifications.

A :class:`SweepSpec` is the cross product

    graph family x size n x seed x method x engine (x latency model)

and expands to a list of :class:`Cell` objects, each a single
self-contained run (picklable, so the supervisor can ship it to a warm
child process).  Every cell has a stable string :meth:`Cell.key` used by the
JSON-lines store for resume: a completed key is never re-run.

Every method runs on every engine: async-native methods run the
event-driven engine directly, round-cadence ones are auto-wrapped in the
alpha-synchronizer by :func:`repro.api.color_graph` /
:func:`repro.api.find_mis` (the shadow synchronous run that supplies the
wrap budgets also yields the cell's overhead-of-asynchrony columns).
The latency axis only multiplies async cells — synchronous delivery has
no latency model, so sync cells are emitted once regardless of
``latencies``.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass, fields
from typing import Iterator, Optional

from repro import api
from repro.congest.runtime import ENGINES, LATENCY_MODELS, make_fault_model
from repro.errors import ReproError
from repro.graphs.generators import FAMILIES

#: The sweep methods, from the catalogue (:data:`repro.api.METHODS`).
COLORING_METHODS = api.method_names("coloring")
MIS_METHODS = api.method_names("mis")
ALL_METHODS = COLORING_METHODS + MIS_METHODS


def _refuse_unknown(what: str, values, known) -> None:
    """Raise naming the first of ``values`` that ``known`` lacks."""
    known = tuple(known)        # compared by ==: no hash of bad input
    for value in values:
        if value not in known:
            raise ReproError(
                f"unknown {what} {value!r}; known: {', '.join(known)}")


def check_knob_readers(knob: str, methods) -> None:
    """Raise unless each of ``methods`` reads ``knob``: a knob carried by
    another method would mint cell keys claiming what no run measured."""
    readers = api.method_names(knob=knob)
    bad = [m for m in methods if m not in readers]
    if bad:
        raise ReproError(f"{knob} only applies to {', '.join(readers)}, "
                         f"not {', '.join(bad)}")


def _refuse_unknown_fields(cls, data: dict, peers: str) -> None:
    """Raise when ``data`` names a field ``cls`` does not have: the
    ``peers`` on the other end run a newer schema."""
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    if unknown:
        raise ReproError(
            f"unknown {cls.__name__} field(s) {', '.join(unknown)} "
            f"({peers} schema skew?)"
        )


@dataclass(frozen=True)
class Cell:
    """One experiment: a (family, n, seed, method, engine, latency) point.

    ``timeout_s`` / ``retries`` do not participate in :meth:`key` — they
    change how patiently a cell is run, not what it measures.
    ``latency`` is the async delivery model; synchronous cells ignore it
    (and it stays out of their key, so historical sync keys are stable).
    ``sample_constant`` is Algorithm 3's |S| knob (None = the method
    default) — set, it becomes part of the key, as it changes what the
    cell measures.  ``faults`` is a fault-model spec
    (:func:`repro.congest.runtime.make_fault_model` grammar); the
    default ``"none"`` keeps it out of the key, so historical fault-free
    keys — and therefore old result stores — stay resumable.
    """

    family: str
    n: int
    seed: int
    method: str
    engine: str = "sync"
    latency: str = "uniform"
    density: float = 0.2
    epsilon: float = 0.5
    sample_constant: Optional[float] = None
    faults: str = "none"
    collect_utilization: bool = False
    #: Wall-clock budget per attempt (None = unlimited).
    timeout_s: Optional[float] = None
    #: Extra attempts after a timed-out one before recording failure.
    retries: int = 0

    def key(self) -> str:
        """Stable identity for the resume store.

        Every field that changes what a cell measures participates, so a
        re-run with (say) a different epsilon or full accounting is a new
        cell, not a resume hit serving stale numbers.  Fields at their
        historical defaults (sync engine, no sample_constant) render
        exactly the historical key, keeping old stores resumable.
        """
        engine = (f"{self.engine}+{self.latency}" if self.engine == "async"
                  else self.engine)
        sample = (f"c{self.sample_constant:g}/"
                  if self.sample_constant is not None else "")
        fault = f"f{self.faults}/" if self.faults != "none" else ""
        return (
            f"{self.family}/n{self.n}/p{self.density:g}/"
            f"{self.method}/{engine}/eps{self.epsilon:g}/{sample}{fault}"
            f"{'full' if self.collect_utilization else 'lite'}/"
            f"s{self.seed}"
        )

    @property
    def entry(self) -> api.Method:
        """The method's catalogue entry (ReproError when unknown)."""
        _refuse_unknown("method", (self.method,), ALL_METHODS)
        return api.METHODS[self.method]

    @property
    def problem(self) -> str:
        return self.entry.problem

    # -- wire form (distributed queue) ------------------------------------

    def to_dict(self) -> dict:
        """Plain-JSON form for the distributed work queue."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "Cell":
        """Rebuild a cell shipped over the wire.

        Unknown fields are an error, not silently dropped: a field this
        side does not know about means the other side runs a newer
        schema, and executing the cell without the knob would produce a
        record whose key claims something the run never measured.
        """
        _refuse_unknown_fields(cls, data, "coordinator/worker")
        return cls(**data)


@dataclass(frozen=True)
class SweepSpec:
    """A declarative experiment matrix.

    ``density`` is the family's density knob (edge probability for gnp,
    degree fraction for regular, attachment/10 for powerlaw).  By default
    sweeps run stats-lite (``collect_utilization=False``): message, word,
    and round counts are identical to full accounting, and bulk runs only
    need those.

    ``engines`` is the engine axis (``engine`` remains as the historical
    single-engine spelling and is used when ``engines`` is empty) —
    ``columnar`` cells run the synchronous semantics on the numpy
    columnar scheduler, so their counts match the ``sync`` cells and
    only ``wall_s`` differs;
    ``latencies`` multiplies only the async cells — a sync cell has no
    latency model and is emitted once.  ``faults`` is the robustness
    axis: every entry is a fault-model spec
    (:func:`~repro.congest.runtime.make_fault_model`) and multiplies
    every cell, like ``latencies`` does async ones.
    """

    families: tuple[str, ...] = ("gnp",)
    sizes: tuple[int, ...] = (100, 200)
    seeds: tuple[int, ...] = (0,)
    methods: tuple[str, ...] = ("kt1-delta-plus-one",)
    engine: str = "sync"
    engines: tuple[str, ...] = ()
    latencies: tuple[str, ...] = ("uniform",)
    faults: tuple[str, ...] = ("none",)
    density: float = 0.2
    epsilon: float = 0.5
    sample_constant: Optional[float] = None
    collect_utilization: bool = False
    #: Per-cell wall-clock budget: a cell still running after ``timeout_s``
    #: seconds is killed (its warm child replaced, the others intact),
    #: retried up to ``retries`` times, and finally recorded with
    #: ``status="timeout"`` — aggregation excludes such records from
    #: exponent fits, and the store's resume set skips them so a re-run
    #: attempts them again.
    timeout_s: Optional[float] = None
    retries: int = 0

    def __post_init__(self):
        _refuse_unknown("graph family", self.families, FAMILIES)
        _refuse_unknown("method", self.methods, ALL_METHODS)
        _refuse_unknown("engine", self.engine_axis, ENGINES)
        _refuse_unknown("latency model", self.latencies, LATENCY_MODELS)
        for fault in self.faults:
            make_fault_model(fault)     # raises ReproError on a bad spec
        # A repeated value would expand to two cells under one key: two
        # records for one key in a store, and a farm queue that leases
        # both but can complete only one, so it never finishes.
        for what, name, axis in (
                ("family", "families", self.families),
                ("size", "sizes", self.sizes),
                ("seed", "seeds", self.seeds),
                ("method", "methods", self.methods),
                ("engine", "engines", self.engine_axis),
                ("latency", "latencies", self.latencies),
                ("fault spec", "faults", self.faults)):
            if len(set(axis)) != len(axis):
                raise ReproError(f"duplicate {what} in {name} axis")
        if (not self.sizes or not self.seeds or not self.families
                or not self.methods or not self.latencies
                or not self.faults):
            raise ReproError("sweep spec has an empty axis")
        if self.sample_constant is not None:
            check_knob_readers("sample_constant", self.methods)
        if any(n < 1 for n in self.sizes):
            raise ReproError("sizes must be >= 1")
        readers = api.method_names(knob="epsilon")
        if not self.epsilon > 0 and any(m in readers for m in self.methods):
            raise ReproError(
                f"epsilon must be positive for {', '.join(readers)}")
        # ``not x > 0`` also refuses NaN, which every comparison fails.
        if self.timeout_s is not None and not self.timeout_s > 0:
            raise ReproError("timeout_s must be positive (or None)")
        if self.retries < 0:
            raise ReproError("retries must be >= 0")

    @property
    def engine_axis(self) -> tuple[str, ...]:
        """The effective engine axis (``engines``, or the single
        ``engine`` when no axis was given)."""
        return self.engines or (self.engine,)

    # -- wire / journal form (distributed farm) ----------------------------

    def to_dict(self) -> dict:
        """Plain-JSON form for farm ``submit`` and the queue journal."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        """Rebuild a spec shipped over the wire or read from a journal.

        Unknown fields are an error for the same reason as
        :meth:`Cell.from_dict`: a field this side does not know about
        means the other side runs a newer schema, and expanding the
        matrix without the knob would serve cells whose keys claim
        something the runs never measured.  JSON turned the axis tuples
        into lists; they are coerced back so the rebuilt spec hashes
        and compares like a native one.
        """
        _refuse_unknown_fields(cls, data, "coordinator/client")
        coerced = {
            name: tuple(value) if isinstance(value, list) else value
            for name, value in data.items()
        }
        return cls(**coerced)

    def _engine_latency_pairs(self) -> list[tuple[str, str]]:
        # Sync delivery has no latency model: one cell per sync engine
        # entry, one per (async, latency) combination.
        pairs = []
        for engine in self.engine_axis:
            if engine == "async":
                pairs.extend((engine, lat) for lat in self.latencies)
            else:
                pairs.append((engine, "uniform"))
        return pairs

    def cells(self) -> Iterator[Cell]:
        """Expand the matrix in deterministic, graph-major order.

        family -> n -> seed -> method -> (engine, latency) -> fault: the
        cells that share one input graph, one ``(family, n, density,
        seed)``, are contiguous, so a process that runs them in order
        builds each graph once (``runner.run_cell`` keeps the previous
        cell's graph).  Neither the cell keys nor :meth:`fingerprint`
        depend on this order.
        """
        pairs = self._engine_latency_pairs()
        for family in self.families:
            for n in self.sizes:
                for seed in self.seeds:
                    for method in self.methods:
                        for engine, latency in pairs:
                            for fault in self.faults:
                                yield Cell(
                                    family=family,
                                    n=n,
                                    seed=seed,
                                    method=method,
                                    engine=engine,
                                    latency=latency,
                                    density=self.density,
                                    epsilon=self.epsilon,
                                    sample_constant=self.sample_constant,
                                    faults=fault,
                                    collect_utilization=(
                                        self.collect_utilization),
                                    timeout_s=self.timeout_s,
                                    retries=self.retries,
                                )

    @property
    def size(self) -> int:
        return (len(self.families) * len(self.sizes) * len(self.methods)
                * len(self.seeds) * len(self.faults)
                * len(self._engine_latency_pairs()))

    def fingerprint(self) -> str:
        """Stable identity of this spec's cell plan.

        The digest of the sorted set of cell keys, so it does not depend
        on expansion order: axis values listed in another order, or a
        change to :meth:`cells`' nesting, name the same sweep.  The
        coordinator stamps it on its queue journal so that
        ``--resume-journal`` refuses a journal written for a *different*
        sweep — replaying another matrix's requeue counts and done keys
        would silently corrupt this one's lease accounting.  Fields that
        don't participate in keys (``timeout_s``, ``retries``) don't
        participate here either: re-serving the same matrix with more
        patience is the same sweep.
        """
        digest = hashlib.sha256()
        for key in sorted(cell.key() for cell in self.cells()):
            digest.update(key.encode("utf-8"))
            digest.update(b"\n")
        return digest.hexdigest()[:16]
