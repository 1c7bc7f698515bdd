"""Random bit strings and their CONGEST word accounting.

Algorithm 1 broadcasts a string R of O(log^2 n) random bits; Algorithm 2
broadcasts (C / eps) log^3 n bits.  Nodes then derive limited-independence
hash functions locally from R.  A BitString knows how many O(log n)-bit
CONGEST words it occupies so the broadcast substrate can charge the right
number of messages.

Perf note: bit validation runs only when a BitString is built from
caller-supplied bits.  Derived strings (slices, concatenations,
``from_int``) are wrapped without re-validating — re-checking every bit
of every chunk made the pipelined broadcast relay quadratic in validation
work.
"""

from __future__ import annotations

from itertools import chain
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

_VALID_BITS = frozenset((0, 1))
_bits_of = attrgetter("bits")


class BitString:
    """An immutable sequence of bits with CONGEST word accounting."""

    __slots__ = ("bits", "_hash")

    def __init__(self, bits: Iterable[int]):
        bits = tuple(bits)
        if not _VALID_BITS.issuperset(bits):
            raise ValueError("BitString entries must be 0 or 1")
        self.bits = bits
        self._hash = None

    @classmethod
    def _wrap(cls, bits: tuple) -> "BitString":
        """Wrap an already-validated bit tuple (internal fast path)."""
        obj = object.__new__(cls)
        obj.bits = bits
        obj._hash = None
        return obj

    def __len__(self) -> int:
        return len(self.bits)

    def __iter__(self) -> Iterator[int]:
        return iter(self.bits)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return BitString._wrap(self.bits[index])
        return self.bits[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, BitString):
            return self.bits == other.bits
        return NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash(("BitString", self.bits))
        return h

    def __repr__(self) -> str:
        return f"BitString(bits={self.bits!r})"

    def words(self, word_bits: int) -> int:
        """Number of word_bits-bit CONGEST words needed to carry this string."""
        if word_bits <= 0:
            raise ValueError("word size must be positive")
        return max(1, -(-len(self.bits) // word_bits))

    def to_int(self) -> int:
        value = 0
        for b in self.bits:
            value = (value << 1) | b
        return value

    @staticmethod
    def from_int(value: int, length: int) -> "BitString":
        bits = tuple((value >> (length - 1 - i)) & 1 for i in range(length))
        return BitString._wrap(bits)

    def concat(self, other: "BitString") -> "BitString":
        return BitString._wrap(self.bits + other.bits)

    @staticmethod
    def concat_all(pieces: Sequence["BitString"]) -> "BitString":
        """Concatenate many pieces in one C-level pass (the
        broadcast-reassembly path; pairwise ``concat`` in a loop is
        quadratic)."""
        return BitString._wrap(
            tuple(chain.from_iterable(map(_bits_of, pieces))))


def random_bitstring(rng, length: int) -> BitString:
    """Draw ``length`` fair bits from a ``random.Random``-like source."""
    return BitString._wrap(tuple(rng.getrandbits(1) for _ in range(length)))


def bits_from_ints(values: Sequence[int], word_bits: int) -> BitString:
    """Pack integers (each < 2**word_bits) into one bit string."""
    bits: list[int] = []
    for v in values:
        if v < 0 or v >= (1 << word_bits):
            raise ValueError(f"value {v} does not fit in {word_bits} bits")
        bits.extend((v >> (word_bits - 1 - i)) & 1 for i in range(word_bits))
    return BitString._wrap(tuple(bits))
