"""The lockstep phase predicates of Johansson and Luby against their
per-neighbor definitions.

``JohanssonListColoring`` and ``LubyMIS`` decide each subphase with set
algebra against the receive dicts and a scan over one dict.  The oracles
below are the plain per-neighbor forms (``all``/``any`` over the
undecided neighbors).  The cases cover receive dicts holding senders
outside ``undecided`` (asymmetric active sets) and entries that arrived
early for the next phase, and they check that the surviving undecided
set keeps its iteration order, which fixes every later broadcast.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.coloring.johansson import JohanssonListColoring
from repro.congest.ids import NodeId, OpaqueId
from repro.mis.luby import LubyMIS


class FakeContext:
    """The slice of ``Context`` the predicates touch: ``my_id`` plus
    recorded broadcasts and outputs."""

    def __init__(self, my_id):
        self.my_id = my_id
        self.sent = []
        self.outputs = []

    def broadcast(self, to_ids, tag, *fields):
        self.sent.append((tuple(to_ids), tag, fields))

    def done(self, output=None):
        self.outputs.append(output)


@st.composite
def neighborhoods(draw):
    """(my_id, neighbor IDs in ID order, undecided set, phase)."""
    opaque = draw(st.booleans())
    values = draw(st.lists(st.integers(0, 60), min_size=1, max_size=14,
                           unique=True))
    make = (lambda v: OpaqueId(v, salt=5)) if opaque else NodeId
    ids = [make(v) for v in values]
    me, nbrs = ids[0], sorted(ids[1:])
    chosen = draw(st.lists(st.booleans(), min_size=len(nbrs),
                           max_size=len(nbrs)))
    # Built as the node programs build it: insertion in neighbor order.
    undecided = {u for u, keep in zip(nbrs, chosen) if keep}
    phase = draw(st.integers(0, 3))
    return me, nbrs, undecided, phase


def receive_dict(draw, nbrs, values, undecided=()):
    """A dict over a random subset of ``nbrs`` (any of them, undecided or
    not), in a random arrival order.  Half the time it holds every member
    of ``undecided``, so complete phases are common and the decision
    scans run against senders outside ``undecided``."""
    senders = draw(st.permutations(nbrs))
    keep = draw(st.lists(st.booleans(), min_size=len(senders),
                         max_size=len(senders)))
    if draw(st.booleans()):
        keep = [k or u in undecided for u, k in zip(senders, keep)]
    return {u: draw(values) for u, k in zip(senders, keep) if k}


def twin(undecided, nbrs):
    """An identically built copy of ``undecided`` (same insertion order,
    so the same table layout and iteration order)."""
    return {u for u in nbrs if u in undecided}


# -- Johansson ---------------------------------------------------------------

RESOLVES = st.sampled_from([("failed", None), ("colored", 0),
                            ("colored", 1), ("colored", 2),
                            ("deferred", None)])


def johansson_node(me, nbrs, undecided, phase, trials, resolves, early):
    alg = JohanssonListColoring()
    alg.participate = True
    alg.palette = {0, 1, 2, 3, 4}
    alg.undecided = undecided
    alg.phase = phase
    alg.color = None
    alg.deferred = False
    alg.trials_seen = {phase: trials, phase + 1: early}
    alg.resolves_seen = {phase: resolves, phase + 1: dict(early)}
    return alg


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), hood=neighborhoods(), trial=st.integers(0, 3))
def test_johansson_resolve_matches_per_neighbor_form(data, hood, trial):
    me, nbrs, undecided, phase = hood
    trials = receive_dict(data.draw, nbrs, st.integers(0, 3), undecided)
    resolves = receive_dict(data.draw, nbrs, RESOLVES, undecided)
    early = receive_dict(data.draw, nbrs, st.integers(0, 3))
    alg = johansson_node(me, nbrs, undecided, phase, trials, resolves,
                         early)
    alg.trial = trial
    alg.resolved = False
    ctx = FakeContext(me)

    complete = all(u in trials or u in resolves for u in undecided)
    conflict = any(trials.get(u) == trial for u in undecided)

    assert alg._try_resolve(ctx) is complete
    if not complete:
        assert ctx.sent == [] and alg.resolved is False
        return
    expected = ("rf", (phase,)) if conflict else ("rc", (phase, trial))
    assert [(tag, fields) for _, tag, fields in ctx.sent] == [expected]
    assert ctx.sent[0][0] == tuple(undecided)
    assert alg.color == (None if conflict else trial)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), hood=neighborhoods())
def test_johansson_advance_matches_per_neighbor_form(data, hood):
    me, nbrs, undecided, phase = hood
    resolves = receive_dict(data.draw, nbrs, RESOLVES, undecided)
    early = receive_dict(data.draw, nbrs, st.integers(0, 3))
    alg = johansson_node(me, nbrs, undecided, phase, {}, resolves, early)
    alg.trial = 4
    alg.resolved = True

    oracle = twin(undecided, nbrs)
    palette = set(alg.palette)
    complete = all(u in resolves for u in oracle)
    if complete:
        for u in list(oracle):
            kind, value = resolves[u]
            if kind == "colored":
                palette.discard(value)
                oracle.discard(u)
            elif kind == "deferred":
                oracle.discard(u)

    assert alg._try_advance(FakeContext(me)) is complete
    assert list(alg.undecided) == list(oracle)
    assert alg.palette == palette
    assert alg.phase == (phase + 1 if complete else phase)
    # Early arrivals for the next phase survive the advance untouched.
    assert alg.trials_seen.get(phase + 1) == early


# -- Luby ------------------------------------------------------------------


def luby_node(me, undecided, phase, prios, joins, fates, early):
    alg = LubyMIS()
    alg.participate = True
    alg.undecided = undecided
    alg.phase = phase
    alg.state = None
    alg.prios = {phase: prios, phase + 1: early}
    alg.joins = {phase: joins, phase + 1: dict(early)}
    alg.fates = {phase: fates, phase + 1: dict(early)}
    return alg


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), hood=neighborhoods(), mine=st.integers(0, 4))
def test_luby_join_matches_per_neighbor_form(data, hood, mine):
    me, nbrs, undecided, phase = hood
    # A tiny priority range forces ties, so the ID tie-break is exercised.
    prios = receive_dict(data.draw, nbrs, st.integers(0, 4),
                           undecided)
    early = receive_dict(data.draw, nbrs, st.integers(0, 4))
    alg = luby_node(me, undecided, phase, prios, {}, {}, early)
    alg.priority = mine
    alg.sent_join = False
    ctx = FakeContext(me)

    complete = all(u in prios for u in undecided)
    wins = complete and all(
        (mine, me) > (prios[u], u) for u in undecided
    )

    assert alg._try_join(ctx) is complete
    if complete:
        assert ctx.sent == [(tuple(undecided), "join", (phase, wins))]
        assert alg.joined_now is wins
    else:
        assert ctx.sent == []


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), hood=neighborhoods(), joined_now=st.booleans())
def test_luby_fate_matches_per_neighbor_form(data, hood, joined_now):
    me, nbrs, undecided, phase = hood
    joins = receive_dict(data.draw, nbrs, st.booleans(), undecided)
    early = receive_dict(data.draw, nbrs, st.booleans())
    alg = luby_node(me, undecided, phase, {}, joins, {}, early)
    alg.sent_join = True
    alg.sent_fate = False
    alg.joined_now = joined_now
    ctx = FakeContext(me)

    complete = all(u in joins for u in undecided)
    retired = complete and any(joins[u] for u in undecided)

    assert alg._try_fate(ctx) is complete
    if not complete:
        assert ctx.sent == [] and alg.state is None
        return
    state = "joined" if joined_now else "out" if retired else None
    assert alg.state == state
    assert ctx.sent == [(tuple(undecided), "fate", (phase,
                                                    state is not None))]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), hood=neighborhoods())
def test_luby_advance_matches_per_neighbor_form(data, hood):
    me, nbrs, undecided, phase = hood
    fates = receive_dict(data.draw, nbrs, st.booleans(), undecided)
    early = receive_dict(data.draw, nbrs, st.booleans())
    alg = luby_node(me, undecided, phase, {}, {}, fates, early)
    alg.sent_fate = True

    oracle = twin(undecided, nbrs)
    complete = all(u in fates for u in oracle)
    if complete:
        oracle = {u for u in oracle if not fates[u]}

    assert alg._try_advance(FakeContext(me)) is complete
    assert list(alg.undecided) == list(oracle)
    assert alg.phase == (phase + 1 if complete else phase)
    assert alg.fates.get(phase + 1) == early
