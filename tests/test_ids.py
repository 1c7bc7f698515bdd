"""Tests for NodeId / OpaqueId and the comparison-based discipline."""

from operator import attrgetter

import pytest

from repro.congest.ids import IdAssignment, NodeId, OpaqueId, id_value
from repro.errors import ComparisonDisciplineError, ReproError


def test_nodeid_comparisons():
    a, b = NodeId(3), NodeId(7)
    assert a < b and b > a and a <= b and b >= a
    assert a != b
    assert NodeId(3) == NodeId(3)


def test_nodeid_value_access():
    assert NodeId(42).value == 42


def test_value_is_the_slot_but_stays_opaque():
    """``value`` reads the ``_value`` slot with no Python frame; an
    OpaqueId still refuses it, from bytecode and from C alike."""
    assert NodeId.__dict__["value"] is NodeId.__dict__["_value"]
    with pytest.raises(ComparisonDisciplineError):
        list(map(attrgetter("value"), [OpaqueId(3)]))


def test_nodeid_rejects_arithmetic():
    with pytest.raises(TypeError):
        NodeId(1) + NodeId(2)
    with pytest.raises(TypeError):
        int(NodeId(1))


def test_nodeid_hashable():
    s = {NodeId(1), NodeId(2), NodeId(1)}
    assert len(s) == 2


def test_nodeid_sortable():
    ids = [NodeId(5), NodeId(1), NodeId(3)]
    assert [id_value(x) for x in sorted(ids)] == [1, 3, 5]


def test_opaque_comparisons_allowed():
    a, b = OpaqueId(3, salt=1), OpaqueId(7, salt=1)
    assert a < b
    assert a == OpaqueId(3, salt=1)
    assert max(a, b) is b


def test_opaque_value_forbidden():
    with pytest.raises(ComparisonDisciplineError):
        OpaqueId(3).value


def test_opaque_arithmetic_forbidden():
    with pytest.raises(ComparisonDisciplineError):
        OpaqueId(3) + OpaqueId(4)
    with pytest.raises(ComparisonDisciplineError):
        int(OpaqueId(3))
    with pytest.raises(ComparisonDisciplineError):
        [10, 20][OpaqueId(1)]


def test_opaque_format_forbidden():
    with pytest.raises(ComparisonDisciplineError):
        format(OpaqueId(3), "d")
    # repr (no spec) is fine for debugging
    assert "OpaqueId" in repr(OpaqueId(3))


def test_opaque_hash_usable_but_salted():
    a = OpaqueId(5, salt=1)
    b = OpaqueId(5, salt=2)
    assert {a: "x"}[OpaqueId(5, salt=1)] == "x"
    assert hash(a) != hash(b) or True  # salts make collisions unlikely


def test_engine_backdoor():
    assert id_value(OpaqueId(9)) == 9


def test_mixed_opaque_plain_equality():
    # Equality across flavors is by value (engine compares both kinds).
    assert OpaqueId(4) == NodeId(4)


def test_assignment_distinct_required():
    with pytest.raises(ReproError):
        IdAssignment([1, 1, 2])


def test_assignment_nonnegative_required():
    with pytest.raises(ReproError):
        IdAssignment([-1, 0])


def test_assignment_random_poly_space():
    a = IdAssignment.random(100, seed=3)
    assert len(a) == 100
    assert len(set(a.values())) == 100
    assert max(a.values()) < 100 * 100


def test_assignment_random_space_too_small():
    with pytest.raises(ReproError):
        IdAssignment.random(10, seed=0, space=5)


def test_assignment_identity_and_lookup():
    a = IdAssignment.identity(5)
    assert a.value_of(3) == 3
    assert a.vertex_of_value(4) == 4


def test_assignment_from_mapping():
    a = IdAssignment.from_mapping({0: 10, 1: 20, 2: 5}, 3)
    assert a.value_of(2) == 5
    with pytest.raises(ReproError):
        IdAssignment.from_mapping({0: 1, 2: 3}, 3)


def test_assignment_with_swapped():
    a = IdAssignment([10, 20, 30])
    b = a.with_swapped(0, 2)
    assert b.value_of(0) == 30 and b.value_of(2) == 10
    assert a.value_of(0) == 10  # original untouched


def test_order_isomorphic():
    a = IdAssignment([1, 5, 9])
    b = IdAssignment([2, 6, 10])
    pairs = [(0, 0), (1, 1), (2, 2)]
    assert a.order_isomorphic_to(b, pairs)
    c = IdAssignment([2, 10, 6])
    assert not a.order_isomorphic_to(c, pairs)


def test_space_bound():
    a = IdAssignment([3, 17, 8])
    assert a.space_bound() == 18


# -- the C-level hash: pinned values, no Python frame, pickling ----------

HASH_VALUES = [0, 1, 2, 7, 63, 64, 255, 1000, 4095, 102_399, 2**31 - 1,
               2**40 + 3, 2**62, 2**63 + 5]


@pytest.mark.parametrize("value", HASH_VALUES)
def test_nodeid_hash_value_is_pinned(value):
    """The values fix set orders, KT-2 transcripts and async delay draws:
    they must stay those of the Python ``__hash__`` they replaced."""
    assert hash(NodeId(value)) == hash(value * 0x9E3779B97F4A7C15 + 1)


@pytest.mark.parametrize("value", HASH_VALUES)
@pytest.mark.parametrize("salt", [0, 1, 0xDEADBEEF, 2**32 - 1])
def test_opaque_hash_value_is_pinned(value, salt):
    assert hash(OpaqueId(value, salt)) == hash(
        (salt, 0x27D4EB2F165667C5, value))


def _python_calls(fn):
    """Python-level frames entered while ``fn`` runs, ``fn``'s own aside
    (profile ``call`` events; builtins raise ``c_call`` instead)."""
    import sys

    calls = []

    def profiler(frame, event, arg):
        if event == "call" and frame.f_code is not fn.__code__:
            calls.append(frame.f_code.co_name)

    sys.setprofile(profiler)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("make", [lambda: NodeId(12),
                                  lambda: OpaqueId(12, salt=9)])
def test_hashing_runs_no_python_frame(make):
    x = make()
    d = {x: 1}
    assert _python_calls(lambda: hash(x)) == []
    assert _python_calls(lambda: {x}) == []
    assert _python_calls(lambda: d[x]) == []
    assert NodeId.__dict__["__hash__"] is NodeId.__dict__["_hash"]
    assert "__hash__" not in OpaqueId.__dict__


@pytest.mark.parametrize("make", [lambda: NodeId(12),
                                  lambda: OpaqueId(12, salt=9)])
def test_ids_survive_pickle_and_copy(make):
    import copy
    import pickle

    x = make()
    for y in (pickle.loads(pickle.dumps(x)), copy.copy(x),
              copy.deepcopy(x)):
        assert type(y) is type(x)
        assert y == x and id_value(y) == id_value(x)
        assert hash(y) == hash(x)
    y = pickle.loads(pickle.dumps(OpaqueId(12, salt=9)))
    with pytest.raises(ComparisonDisciplineError):
        y.value
    with pytest.raises(ComparisonDisciplineError):
        [10, 20][y]
