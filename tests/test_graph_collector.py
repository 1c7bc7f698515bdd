"""The cyclic garbage collector is paused for a whole graph build.

``family_graph`` and the query server's ``_request_graph`` build under
the same pause as an engine run (``repro.util.collector``); these mirror
``tests/test_api.py``'s engine-run checks for both entry points.
"""

from __future__ import annotations

import gc

import pytest

from repro import serving
from repro.errors import ReproError
from repro.graphs import generators
from repro.graphs.generators import family_graph

# (entry point, module whose inner builder is spied, that builder's name)
_BUILDS = {
    "family_graph": (lambda: family_graph("gnp", 30, p=0.3, seed=1),
                     generators, "connected_gnp_graph"),
    "_request_graph": (lambda: serving._request_graph(
                           {"family": "gnp", "n": 30, "p": 0.3}),
                       serving, "family_graph"),
}


def _spy(monkeypatch, case, fail=None):
    """Patch the build's inner builder to record ``gc.isenabled()`` and,
    when ``fail`` is given, raise it."""
    build, module, attr = _BUILDS[case]
    seen = []
    real = getattr(module, attr)

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        if fail is not None:
            raise fail
        return real(*args, **kwargs)

    monkeypatch.setattr(module, attr, spy)
    return build, seen


@pytest.mark.parametrize("case", sorted(_BUILDS))
def test_collector_paused_for_the_build_and_resumed(case, monkeypatch,
                                                    gc_enabled):
    build, seen = _spy(monkeypatch, case)
    graph = build()
    assert graph.n == 30 and graph.m > 0
    assert seen == [False]
    assert gc.isenabled()


@pytest.mark.parametrize("case", sorted(_BUILDS))
def test_collector_resumed_when_the_build_raises(case, monkeypatch,
                                                 gc_enabled):
    build, seen = _spy(monkeypatch, case, fail=ReproError("bad graph"))
    with pytest.raises(ReproError, match="bad graph"):
        build()
    assert seen == [False]
    assert gc.isenabled()


@pytest.mark.parametrize("case", sorted(_BUILDS))
def test_collector_left_off_when_the_caller_turned_it_off(case, monkeypatch,
                                                          gc_enabled):
    build, seen = _spy(monkeypatch, case)
    gc.disable()
    build()
    assert seen == [False]
    assert not gc.isenabled()


def test_dense_gnp_build_runs_no_collection(gc_enabled):
    """A build allocates only acyclic tuples and lists, so no collection
    runs inside it (with the collector on, this graph triggers about 60
    young and 5 middle passes).  The one young pass its allocations leave
    pending starts at the first allocation after the pause ends."""
    starts = []

    def count(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.collect()            # start from empty generation counts
    gc.callbacks.append(count)
    try:
        graph = family_graph("gnp", 320, p=0.45)
    finally:
        gc.callbacks.remove(count)
    assert graph.m > 20_000
    assert starts in ([], [0])
