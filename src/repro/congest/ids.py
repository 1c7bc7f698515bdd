"""Node IDs, ID assignments and the comparison-based discipline.

The paper distinguishes (Section 1.4.2):

* *comparison-based* algorithms — IDs live in ID-type variables that may
  only be compared; and
* *non-comparison-based* algorithms — IDs may be hashed, used as array
  indices, etc. (the Cole-Vishkin / King et al. style operations).

We enforce this mechanically: a :class:`NodeId` exposes its integer
``value`` (non-comparison algorithms hash it), while an :class:`OpaqueId`
raises :class:`~repro.errors.ComparisonDisciplineError` on every operation
other than comparison.  The engine hands out OpaqueIds exactly when a
protocol declares itself comparison-based, so "the algorithm is
comparison-based" becomes a property checked at run time rather than by
code review.

OpaqueIds still support ``hash`` so they can key dictionaries — the hash is
salted per network so its numeric value carries no usable order information
(a genuinely comparison-based algorithm could maintain the same dictionaries
with a comparison-based search tree; allowing hashing is a convenience, not
extra power).

Hashing runs no Python frame.  IDs key every knowledge set, port map and
receive dict, so each ID precomputes its hash and keeps, in the ``_hash``
slot, that int's bound ``__index__`` (a zero-argument builtin).
``NodeId.__hash__`` *is* the slot's member descriptor: ``hash(x)`` reads
the slot and calls the builtin, both in C.  The values are the ones a
Python ``__hash__`` returning the precomputed int gave, so set orders,
KT-2 transcripts and async delay draws are unchanged.  The IDs stay plain
objects: as an ``int`` subclass an OpaqueId would index lists without
calling ``__index__`` (losing the discipline check) and its salted hash
could not be its int value.
"""

from __future__ import annotations

import random
from operator import attrgetter
from typing import Iterable, Mapping, Sequence

from repro.errors import ComparisonDisciplineError, ReproError


class NodeId:
    """An ID-type value.  Supports comparison, hashing, and ``.value``."""

    __slots__ = ("_value", "_hash")

    def __init__(self, value: int):
        self._value = int(value)
        # The (immutable) hash is computed once; ``_hash`` holds it as a
        # bound builtin that ``__hash__`` aliases (see the module doc).
        # Derived from the integer value only — never from a string —
        # because str hashes vary with PYTHONHASHSEED, which would make
        # set-of-ID iteration order (and hence the order sends consume
        # the async engine's delay stream) differ between processes.
        self._hash = hash(self._value * 0x9E3779B97F4A7C15 + 1).__index__

    def __reduce__(self):
        # The bound builtin in ``_hash`` does not pickle; rebuild instead.
        return (NodeId, (self._value,))

    # -- comparisons (always allowed) ---------------------------------------

    def __eq__(self, other) -> bool:
        if isinstance(other, NodeId):
            return self._value == other._value
        return NotImplemented

    def __lt__(self, other) -> bool:
        if isinstance(other, NodeId):
            return self._value < other._value
        return NotImplemented

    def __le__(self, other) -> bool:
        if isinstance(other, NodeId):
            return self._value <= other._value
        return NotImplemented

    def __gt__(self, other) -> bool:
        if isinstance(other, NodeId):
            return self._value > other._value
        return NotImplemented

    def __ge__(self, other) -> bool:
        if isinstance(other, NodeId):
            return self._value >= other._value
        return NotImplemented

    def __repr__(self) -> str:
        return f"Id({self._value})"

    # Explicitly refuse implicit arithmetic so plain NodeIds are not
    # accidentally used as numbers either; use ``.value`` deliberately.
    def __add__(self, other):
        raise TypeError("NodeId does not support arithmetic; use .value")

    __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = __add__

    def __int__(self):
        raise TypeError("use .value to read a NodeId deliberately")

    def __index__(self):
        raise TypeError("use .value to read a NodeId deliberately")


#: ``NodeId.value``, the raw integer (non-comparison-based access), is the
#: ``_value`` slot itself rather than a property, so reading it runs no
#: Python frame; node programs read it once per neighbor.
#: :class:`OpaqueId` shadows it with a property that raises.
NodeId.value = NodeId._value
#: ``hash(x)`` calls ``x._hash``, the precomputed hash's bound
#: ``__index__``: the lookup and the call both run in C.
NodeId.__hash__ = NodeId._hash


class OpaqueId(NodeId):
    """A NodeId whose value can only be compared (Section 1.4.2).

    Every non-comparison operation raises ComparisonDisciplineError.
    """

    __slots__ = ("_salt",)

    def __init__(self, value: int, salt: int = 0):
        self._value = int(value)
        self._salt = salt
        # Int-tuple hash: salt-scrambled (no usable order information)
        # yet stable across processes — see NodeId.__init__ on why no
        # strings may enter engine-path hashes.  Inherited ``__hash__``
        # calls it from C, as for a NodeId.
        self._hash = hash((salt, 0x27D4EB2F165667C5, self._value)).__index__

    def __reduce__(self):
        return (OpaqueId, (self._value, self._salt))

    @property
    def value(self) -> int:
        raise ComparisonDisciplineError(
            "comparison-based algorithms may only compare IDs "
            "(attempted to read the raw ID value)"
        )

    def __repr__(self) -> str:
        return f"OpaqueId(#{self._value})"

    def __add__(self, other):
        raise ComparisonDisciplineError("arithmetic on an opaque ID")

    __radd__ = __sub__ = __rsub__ = __mul__ = __rmul__ = __add__

    def __int__(self):
        raise ComparisonDisciplineError("int() on an opaque ID")

    def __index__(self):
        raise ComparisonDisciplineError("indexing with an opaque ID")

    def __format__(self, spec):
        if spec:
            raise ComparisonDisciplineError("formatting an opaque ID")
        return repr(self)


#: ``id_value(node_id)``: engine-internal raw value access (bypasses the
#: opaque discipline).  Only the simulator (for routing, decoding, and
#: accounting) may call this; algorithm code must go through ``.value``
#: so the discipline check applies.  An ``attrgetter`` on the slot, so
#: ``map(id_value, ids)`` runs no Python frame per ID.
id_value = attrgetter("_value")


class IdAssignment:
    """A bijection between vertices 0..n-1 and distinct ID values.

    The paper's ID spaces are polynomial in n; :meth:`random` draws from
    ``[0, max(n**2, 64))`` by default.  Lower-bound experiments construct
    explicit assignments (Section 2.2's phi, psi_{e,e'} and the swap
    variants).
    """

    def __init__(self, values: Sequence[int]):
        values = [int(v) for v in values]
        if len(set(values)) != len(values):
            raise ReproError("ID values must be distinct")
        if any(v < 0 for v in values):
            raise ReproError("ID values must be non-negative")
        self._values: tuple[int, ...] = tuple(values)
        self._vertex_of: dict[int, int] = {v: i for i, v in enumerate(values)}

    @classmethod
    def random(cls, n: int, seed=0, space: int | None = None) -> "IdAssignment":
        rng = seed if isinstance(seed, random.Random) else random.Random(seed)
        if space is None:
            # A polynomial ID space, as the model requires.  n^2 keeps one
            # ID within a 2 log n-bit word and hash fields within numpy's
            # uint64 fast path for every benchmark size.
            space = max(n * n, 64)
        if space < n:
            raise ReproError("ID space smaller than vertex count")
        return cls(rng.sample(range(space), n))

    @classmethod
    def identity(cls, n: int) -> "IdAssignment":
        return cls(list(range(n)))

    @classmethod
    def from_mapping(cls, mapping: Mapping[int, int], n: int) -> "IdAssignment":
        if sorted(mapping.keys()) != list(range(n)):
            raise ReproError("mapping must cover vertices 0..n-1")
        return cls([mapping[v] for v in range(n)])

    def __len__(self) -> int:
        return len(self._values)

    def value_of(self, vertex: int) -> int:
        return self._values[vertex]

    def vertex_of_value(self, value: int) -> int:
        return self._vertex_of[value]

    def values(self) -> tuple[int, ...]:
        return self._values

    def space_bound(self) -> int:
        """An upper bound on the ID space (for sizing hash domains)."""
        return max(self._values) + 1

    def with_swapped(self, a: int, b: int) -> "IdAssignment":
        """A copy with the ID values of vertices ``a`` and ``b`` exchanged.

        Used by the lower-bound machinery for the intermediate assignments
        psi_{e,e',x} and psi_{e,e',z} (Section 2.2).
        """
        values = list(self._values)
        values[a], values[b] = values[b], values[a]
        return IdAssignment(values)

    def order_isomorphic_to(self, other: "IdAssignment",
                            pairs: Iterable[tuple[int, int]]) -> bool:
        """Check order-isomorphism over corresponding vertex pairs.

        ``pairs`` yields (vertex in self, vertex in other); returns True if
        the relative order of IDs agrees on every pair of pairs — property
        (iii) of the shifted assignment in Section 2.2.
        """
        pair_list = list(pairs)
        for i in range(len(pair_list)):
            for j in range(i + 1, len(pair_list)):
                (a1, b1), (a2, b2) = pair_list[i], pair_list[j]
                lhs = self.value_of(a1) < self.value_of(a2)
                rhs = other.value_of(b1) < other.value_of(b2)
                if lhs != rhs:
                    return False
        return True
