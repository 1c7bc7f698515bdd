"""Pausing Python's cyclic garbage collector around bulk allocation.

Used by engine runs (:func:`repro.api._run_engines`) and graph builds
(:func:`repro.graphs.generators.family_graph`,
:func:`repro.serving._request_graph`).
"""

from __future__ import annotations

import gc
from contextlib import contextmanager


@contextmanager
def collector_paused():
    """Keep Python's cyclic garbage collector off for one engine run or
    one graph build.

    A run allocates a ``Msg``, an ``Envelope``, tuples and inbox lists
    per simulated send, and each collection those allocations trigger
    re-walks every per-node set and dict the run has built; yet the run
    leaves only O(n) cyclic garbage, nothing per message
    (``tests/test_api.py::test_engine_run_leaves_only_per_node_cyclic_garbage``).
    A graph build allocates only acyclic lists and tuples, so a
    collection there finds nothing to free.  So the collector is off
    while the work lasts, and nothing is collected here: the first
    allocation afterwards starts one young-generation pass, paid by the
    caller.  Usable as a decorator (``@collector_paused()``).

    The collector is re-enabled on the way out, normal or raising, only
    if it was enabled on the way in.  ``gc.disable`` is process-wide:
    when two threads pause it at once, the first to finish turns the
    collector back on while the other still runs.  That costs only
    speed, and the collector is never left off when it was on before.
    Engines run in a process's main thread or in warm children; the
    query server's connection threads build graphs under the pause.
    """
    enabled = gc.isenabled()
    if enabled:
        gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
