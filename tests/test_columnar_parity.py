"""Columnar-vs-reference parity: the numpy scheduler is a pure
delivery-engine change.

The contract (docs/columnar.md): on every cell the columnar scheduler
either runs a stage as array operations or silently falls back to the
scalar path — and either way the observable execution is *bit-identical*
to the reference ``RoundScheduler``: same outputs, same message / word /
round counts, same per-stage accounting, same utilized-edge sets under
full stats.  Wall clock is the only permitted difference.

Mirrors ``tests/test_engine_parity.py``'s family matrix and adds the
fallback seams: a faulted cell (the columnar gate refuses faulted
networks), a numpy-free interpreter (monkeypatched import state), and
the dict spill of the scalar scheduler's link-reservation table.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.congest import columnar
from repro.congest.runtime import RoundScheduler
from repro.graphs.generators import family_graph

FAMILIES = [("gnp", 40), ("regular", 36), ("grid", 42), ("torus", 36)]

COLORING_METHODS = ["kt1-delta-plus-one", "baseline-trial",
                    "baseline-rank-greedy"]
MIS_METHODS = ["kt2-sampled-greedy", "luby", "rank-greedy"]


def _coloring_pair(graph, method, seed, **kwargs):
    ref = api.color_graph(graph, method=method, seed=seed,
                          scheduler="rounds", **kwargs)
    col = api.color_graph(graph, method=method, seed=seed,
                          scheduler="columnar", **kwargs)
    return ref, col


def _assert_reports_match(ref, col):
    assert col.report.messages == ref.report.messages
    assert col.report.rounds == ref.report.rounds
    assert col.report.stage_messages == ref.report.stage_messages
    assert col.report.utilized_edges == ref.report.utilized_edges


@pytest.mark.parametrize("family,n", FAMILIES)
@pytest.mark.parametrize("method", COLORING_METHODS)
@pytest.mark.parametrize("seed", [0, 1])
def test_coloring_bit_identical(family, n, method, seed):
    graph = family_graph(family, n, p=0.3, seed=seed)
    ref, col = _coloring_pair(graph, method, seed)
    assert ref.valid and col.valid
    assert col.colors == ref.colors
    _assert_reports_match(ref, col)


@pytest.mark.parametrize("family,n", FAMILIES)
@pytest.mark.parametrize("method", MIS_METHODS)
@pytest.mark.parametrize("seed", [0, 1])
def test_mis_bit_identical(family, n, method, seed):
    graph = family_graph(family, n, p=0.3, seed=seed)
    ref = api.find_mis(graph, method=method, seed=seed,
                       scheduler="rounds")
    col = api.find_mis(graph, method=method, seed=seed,
                       scheduler="columnar")
    assert ref.valid and col.valid
    assert col.in_mis == ref.in_mis
    _assert_reports_match(ref, col)


@pytest.mark.pin
@pytest.mark.parametrize("method", ["luby", "baseline-trial"])
def test_each_kernel_engages(method, monkeypatch):
    """A kernel that silently declines passes every parity test above
    but loses its speed.  With the stage's ``on_round`` made to raise,
    the columnar run must still finish, with the rounds run's counts:
    only the kernel ran the stage."""
    from repro.coloring.johansson import JohanssonListColoring
    from repro.mis.luby import LubyMIS

    graph = family_graph("gnp", 40, p=0.3, seed=0)
    if method == "luby":
        run, cls = api.find_mis, LubyMIS
    else:
        run, cls = api.color_graph, JohanssonListColoring
    ref = run(graph, method=method, seed=0, scheduler="rounds")

    def declined(self, ctx, inbox):
        raise AssertionError(f"{cls.__name__} ran its scalar program")

    monkeypatch.setattr(cls, "on_round", declined)
    col = run(graph, method=method, seed=0, scheduler="columnar")
    assert ref.valid and col.valid
    _assert_reports_match(ref, col)


@pytest.mark.parametrize("method", ["kt1-delta-plus-one", "luby"])
def test_full_stats_utilization_identical(method):
    """Full accounting: utilized-edge *sets* must agree, not just sizes
    (some kernels decline under collect — the fallback must be exact)."""
    graph = family_graph("gnp", 48, p=0.35, seed=3)
    if method == "luby":
        ref = api.find_mis(graph, method=method, seed=3,
                           collect_utilization=True, scheduler="rounds")
        col = api.find_mis(graph, method=method, seed=3,
                           collect_utilization=True, scheduler="columnar")
    else:
        ref, col = _coloring_pair(graph, method, 3,
                                  collect_utilization=True)
    assert col.report.utilized_edges == ref.report.utilized_edges
    _assert_reports_match(ref, col)


def test_faulted_cell_identical_via_scalar_fallback():
    """Fault injection disables the columnar path wholesale; the faulted
    execution must be the same execution either way (same drop RNG)."""
    graph = family_graph("gnp", 40, p=0.3, seed=5)
    ref = api.find_mis(graph, method="luby", seed=5, faults="drop:0.05",
                       scheduler="rounds")
    col = api.find_mis(graph, method="luby", seed=5, faults="drop:0.05",
                       scheduler="columnar")
    _assert_reports_match(ref, col)
    assert col.report.dropped_messages == ref.report.dropped_messages
    assert col.report.dropped_messages > 0
    assert col.in_mis == ref.in_mis


def test_numpy_free_interpreter_falls_back(monkeypatch, capsys):
    """With numpy 'missing' the columnar scheduler must degrade to the
    scalar path — identical counts, one warning line per process."""
    ref = api.find_mis(family_graph("gnp", 36, p=0.3, seed=7),
                       method="luby", seed=7, scheduler="rounds")
    monkeypatch.setitem(columnar._STATE, "mod", None)
    monkeypatch.setitem(columnar._STATE, "warned", False)
    col = api.find_mis(family_graph("gnp", 36, p=0.3, seed=7),
                       method="luby", seed=7, scheduler="columnar")
    assert col.in_mis == ref.in_mis
    _assert_reports_match(ref, col)
    err = capsys.readouterr().err
    assert "falling back" in err
    # Warned exactly once even across repeated stages.
    assert err.count("falling back") == 1


def test_link_free_dict_fallback_counts_identical(monkeypatch):
    """Networks past the flat-array bound spill link reservations into a
    dict; forcing the spill on a small graph must not move a count."""
    graph = family_graph("gnp", 40, p=0.3, seed=9)
    ref = api.color_graph(graph, method="kt1-delta-plus-one", seed=9,
                          scheduler="rounds")
    monkeypatch.setattr(RoundScheduler, "_LINK_ARRAY_MAX", 0)
    spill = api.color_graph(graph, method="kt1-delta-plus-one", seed=9,
                            scheduler="rounds")
    assert spill.colors == ref.colors
    _assert_reports_match(ref, spill)
    # The columnar gate also watches the bound: with it at 0 the numpy
    # path must decline and reproduce the same execution scalar-side.
    col = api.color_graph(graph, method="kt1-delta-plus-one", seed=9,
                          scheduler="columnar")
    assert col.colors == ref.colors
    _assert_reports_match(ref, col)


def test_stage_wall_sums_to_engine_time():
    """RunReport.stage_wall is the per-stage engine-time breakdown: every
    stage appears, every entry is nonnegative, and the sum never exceeds
    the caller's wall clock around the run."""
    import time

    graph = family_graph("gnp", 60, p=0.3, seed=11)
    t0 = time.perf_counter()
    res = api.color_graph(graph, method="kt1-delta-plus-one", seed=11,
                          scheduler="columnar")
    wall = time.perf_counter() - t0
    sw = res.report.stage_wall
    assert set(sw) == set(res.report.stage_messages)
    assert all(w >= 0.0 for w in sw.values())
    assert sum(sw.values()) <= wall
    # The breakdown accounts for the bulk of the engine's time on a
    # nontrivial cell — it is a profile, not a vestige.
    assert sum(sw.values()) > 0.0


#: The classes that build their own columnar kernel.  Each has a row in
#: the kernel ledger (docs/columnar.md) showing its stage wins against
#: the scalar path; ``FullExchangeTrialColoring`` inherits Johansson's.
KERNEL_CLASSES = {"LubyMIS", "JohanssonListColoring"}


@pytest.mark.pin
def test_kernel_ledger_is_pinned():
    """The classes with their own columnar kernel are exactly the stages
    whose win is measured in docs/columnar.md's ledger table."""
    import importlib
    import inspect
    import pkgutil

    import repro
    from repro.congest.node import ColumnarStage

    found = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.name.endswith("__main__"):
            continue
        module = importlib.import_module(info.name)
        for _name, cls in inspect.getmembers(module, inspect.isclass):
            if (cls.__module__ == info.name and cls is not ColumnarStage
                    and "build_columnar_kernel" in vars(cls)):
                found.add(cls.__name__)
    assert found == KERNEL_CLASSES, (
        "columnar kernels changed: a kernel stays only with a measured "
        "win, so add or remove its row in the kernel ledger table of "
        "docs/columnar.md together with KERNEL_CLASSES"
    )
