"""Shared infrastructure for the columnar round engine.

The columnar engine (:class:`~repro.congest.runtime.ColumnarRoundScheduler`)
executes a whole synchronous round as numpy array operations instead of
one Python frame per node.  This module holds the pieces every columnar
kernel needs:

* :func:`get_numpy` — the lazy, optional numpy import.  numpy is an
  optional dependency: when it is missing the engine falls back to the
  scalar :class:`~repro.congest.runtime.RoundScheduler` with a one-line
  warning (printed once per process).
* :func:`int_words` / :func:`int_words_scalar` — vectorized CONGEST word
  accounting for non-negative ints, exactly matching
  :func:`repro.congest.message._scan_field` (``max(1, ceil(bit_length /
  word_bits))`` with ``bit_length(0) == 0`` charged as one word).
* :class:`SendBatch` — one tag's broadcast fan-out for one phase: flat
  out-edge ids plus per-envelope payload values and word counts.  The
  scheduler charges and link-schedules a batch with a handful of array
  ops; a delivered batch is handed back to the receiving kernel whole.
* :class:`ActiveGraph` — the flat directed-edge table of the *active*
  subgraph a stage runs on: edges sorted by ``(src, dst)``, a CSR
  ``indptr``, and the reverse-edge involution ``erev`` (built by binary
  search; if any directed edge lacks its reverse the active sets are
  asymmetric and the builder refuses, sending the stage to the scalar
  path).  ``erev`` doubles as the delivery scatter: the bank slot of an
  arrival at ``dst`` from ``src`` is ``erev[edge]`` — an out-edge slot of
  ``dst``, so every receiver's bank block is contiguous in ``indptr``.
* :func:`undecided_adjacency` — the per-node active neighbor lists an
  ``ActiveGraph`` is built from, resolved through the nodes' port maps.
* :func:`block_positions` — the gather that turns "these nodes" into
  "all their out-edge slots" plus an owner index, without Python loops.

Kernels themselves live next to their algorithms (``mis/luby.py`` and
``coloring/johansson.py``); see ``docs/columnar.md`` for the contract.
"""

from __future__ import annotations

import sys
from itertools import chain
from typing import Optional

from repro.congest.ids import id_value

_UNSET = object()

#: Lazy numpy state: ``mod`` is unset until first request, then the
#: module or None; ``warned`` gates the one-line fallback warning.
#: Tests monkeypatch this dict to simulate a numpy-free interpreter.
_STATE = {"mod": _UNSET, "warned": False}


def get_numpy(warn: bool = False):
    """Return the numpy module, or None when it is not installed.

    The import is attempted once per process.  With ``warn=True`` the
    first miss prints a single stderr line explaining the scalar
    fallback (the engine stays fully functional without numpy).
    """
    if _STATE["mod"] is _UNSET:
        try:
            import numpy
            _STATE["mod"] = numpy
        except ImportError:
            _STATE["mod"] = None
    if _STATE["mod"] is None and warn and not _STATE["warned"]:
        _STATE["warned"] = True
        print(
            "repro: numpy not available; columnar scheduler falling back "
            "to the scalar RoundScheduler (counts are identical)",
            file=sys.stderr,
        )
    return _STATE["mod"]


def int_words_scalar(value: int, word_bits: int) -> int:
    """Word count of one non-negative int, matching ``_scan_field``."""
    bits = max(1, int(value).bit_length())
    return max(1, -(-bits // word_bits))


def int_words(np_, values, word_bits: int):
    """Vectorized ``_scan_field`` word accounting for non-negative ints.

    ``bit_length(v)`` for ``v >= 1`` equals the number of powers of two
    ``<= v``, found by searchsorted against the 63 representable int64
    powers; zero (bit_length 0) still costs one word via the max.
    """
    powers = np_.left_shift(np_.int64(1), np_.arange(63, dtype=np_.int64))
    bits = np_.searchsorted(powers, values, side="right")
    return (np_.maximum(bits, 1) + word_bits - 1) // word_bits


class SendBatch:
    """One homogeneous broadcast fan-out: a tag, a phase, and parallel
    per-envelope arrays (out-edge ids, payload values, word counts).

    ``eids`` index the stage's :class:`ActiveGraph` edge table (so
    sender/receiver are ``esrc[eids]``/``edst[eids]``); ``values`` carry
    the one payload datum the receiving kernel needs (a priority key, a
    trial color, a boolean vote — int64); ``words`` is the exact CONGEST
    word charge of the full payload tuple per envelope.
    """

    __slots__ = ("tag", "phase", "eids", "values", "words")

    def __init__(self, tag: str, phase: int, eids, values, words):
        self.tag = tag
        self.phase = phase
        self.eids = eids
        self.values = values
        self.words = words

    def __repr__(self) -> str:  # pragma: no cover - debugging nicety
        return (
            f"SendBatch({self.tag!r}, phase={self.phase}, "
            f"n={len(self.eids)})"
        )


class ActiveGraph:
    """Flat directed-edge table of a stage's active subgraph."""

    __slots__ = ("n", "esrc", "edst", "erev", "indptr", "alive", "needed")

    def __init__(self, n, esrc, edst, erev, indptr, alive, needed):
        self.n = n
        self.esrc = esrc
        self.edst = edst
        #: reverse-edge involution: ``erev[e]`` is the edge dst->src.
        self.erev = erev
        #: CSR offsets: node v's out-edges are ``esrc[indptr[v]:indptr[v+1]]``.
        self.indptr = indptr
        #: per-edge liveness (kernels clear entries as neighbors decide).
        self.alive = alive
        #: live out-degree per node (kept in sync with ``alive``).
        self.needed = needed

    @classmethod
    def build(cls, np_, n: int, adjacency) -> Optional["ActiveGraph"]:
        """Build the edge table from per-vertex sorted neighbor lists.

        Returns None when the active sets are asymmetric (some directed
        edge has no reverse) — the scalar path owns that case, including
        its deadlock diagnostics.
        """
        degrees = np_.fromiter(map(len, adjacency), dtype=np_.int64,
                               count=n)
        total = int(degrees.sum())
        esrc = np_.repeat(np_.arange(n, dtype=np_.int64), degrees)
        edst = np_.fromiter(chain.from_iterable(adjacency),
                            dtype=np_.int64, count=total)
        # adjacency lists are sorted and vertices ascend, so the flat
        # keys src*n + dst arrive pre-sorted: erev is one searchsorted.
        ekeys = esrc * n + edst
        rkeys = edst * n + esrc
        erev = np_.searchsorted(ekeys, rkeys)
        if total:
            clipped = np_.minimum(erev, total - 1)
            if bool(((erev >= total) | (ekeys[clipped] != rkeys)).any()):
                return None
        indptr = np_.zeros(n + 1, dtype=np_.int64)
        np_.cumsum(degrees, out=indptr[1:])
        alive = np_.ones(total, dtype=bool)
        return cls(n, esrc, edst, erev, indptr, alive, degrees.copy())


def undecided_adjacency(net, algorithms) -> Optional[list]:
    """Per-vertex ascending active neighbor lists for
    :meth:`ActiveGraph.build`, from each participant's ``undecided`` ID
    set; a bystander's list is empty.

    Each set is resolved through the vertex's port map (neighbor ID
    value -> vertex) with C-level ``map``.  A set that resolves to as
    many vertices as the vertex has neighbors names them all (its IDs
    are distinct neighbors), so the graph's sorted row is used as is.
    A bystander never speaks; a participant still listing one is an
    asymmetry ``ActiveGraph.build`` rejects.  Returns None (decline) when
    a member is not a neighbor's ID, as the send path's port lookup
    finds, so the scalar path raises its own error.
    """
    ports = net._ports
    nbrs = net.graph.neighbors
    adjacency = []
    for v, alg in enumerate(algorithms):
        if not alg.participate:
            adjacency.append(())
            continue
        try:
            row = list(map(ports[v].__getitem__,
                           map(id_value, alg.undecided)))
        except (KeyError, AttributeError):
            return None
        full = nbrs(v)
        if len(row) == len(full):
            adjacency.append(full)
        else:
            row.sort()
            adjacency.append(row)
    return adjacency


def block_positions(np_, indptr, nodes):
    """All out-edge slots of ``nodes`` plus an owner index per slot.

    Returns ``(pos, owners)``: ``pos`` concatenates the CSR ranges
    ``indptr[v]:indptr[v+1]`` for each v in ``nodes`` (in order), and
    ``owners[i]`` is the index into ``nodes`` owning ``pos[i]``.
    """
    counts = indptr[nodes + 1] - indptr[nodes]
    total = int(counts.sum())
    starts = np_.cumsum(counts) - counts
    pos = (
        np_.arange(total, dtype=np_.int64)
        - np_.repeat(starts, counts)
        + np_.repeat(indptr[nodes], counts)
    )
    owners = np_.repeat(np_.arange(len(nodes), dtype=np_.int64), counts)
    return pos, owners


def masked_block_max(np_, values, pos, owners, alive, num_blocks):
    """Per-owner max of ``values[pos]`` restricted to alive slots.

    Every block must have at least one alive slot (kernels only query
    nodes with live out-degree >= 1); blocks are contiguous because
    ``owners`` ascends.
    """
    mask = alive[pos]
    vals = values[pos[mask]]
    counts = np_.bincount(owners[mask], minlength=num_blocks)
    offsets = np_.cumsum(counts) - counts
    return np_.maximum.reduceat(vals, offsets)


def sender_counts_view(np_, stats):
    """Writable int64 view over ``MessageStats._sender_counts``, or None
    when the flat array is absent or the buffer refuses a writable view
    (callers then fall back to per-element adds)."""
    counts = stats._sender_counts
    if counts is None:
        return None
    view = np_.frombuffer(counts, dtype=np_.int64)
    if not view.flags.writeable:  # pragma: no cover - platform-dependent
        try:
            view = np_.asarray(memoryview(counts), dtype=np_.int64)
        except (TypeError, ValueError):
            return None
        if not view.flags.writeable:
            return None
    return view
