"""The Chang et al. [7] graph partition under limited independence.

Given maximum degree Delta, set k = ceil(sqrt(Delta)) and
q = Theta(sqrt(log n) / Delta^{1/4}).  Each vertex joins the *leftover*
set L with probability q, otherwise joins one of B_1..B_k uniformly; each
color of the global palette joins one of C_1..C_k uniformly.  Lemma 3.1:
the four properties (part sizes, available colors in B_i, available
colors in L, remaining degrees) hold whp even when both partitions are
driven by O(log n)-wise independent hash functions — which is what lets
Algorithm 1 replace Chang et al.'s state exchange with *local hashing of
neighbor IDs* under KT-1.

All membership predicates take raw ID values: they are exactly the
computations a node performs on its own ID and its neighbors' IDs after
the random string R has been broadcast.  The paper's three hash functions
per recursion level are h_L (join L?), h (which B_i), and h_c (which C_i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from repro.errors import ReproError
from repro.util.bitstrings import BitString
from repro.util.hashing import KWiseHash, KWiseHashFamily
from repro.util.tail_bounds import required_independence

#: Quantization range for the h_L threshold test (bias <= 2^-20).
PART_RANGE = 1 << 20

#: Sentinel part index for members of L.
L_PART = -1


@dataclass(frozen=True)
class LevelHashes:
    """The three hash functions of one recursion level."""

    h_l: KWiseHash
    h_b: KWiseHash
    h_c: KWiseHash


def _family(n: int, id_space: int, independence_constant: float
            ) -> KWiseHashFamily:
    c = required_independence(n, independence_constant)
    return KWiseHashFamily(id_space, PART_RANGE, c)


def bits_per_level(n: int, id_space: int,
                   independence_constant: float = 1.0) -> int:
    """Shared random bits consumed by one recursion level (3 functions)."""
    return 3 * _family(n, id_space, independence_constant).bits_needed


def derive_level_hashes(bits: BitString, level: int, n: int, id_space: int,
                        independence_constant: float = 1.0) -> LevelHashes:
    """Peel the three level-``level`` hash functions off the string R.

    Every node runs this identical computation on the broadcast string, so
    all nodes agree on all hash functions without further communication.
    """
    family = _family(n, id_space, independence_constant)
    per = family.bits_needed
    offset = 3 * level * per
    if offset + 3 * per > len(bits):
        raise ReproError(
            f"random string too short for level {level}: "
            f"need {offset + 3 * per} bits, have {len(bits)}"
        )
    seq = bits.bits
    h_l = family.sample_from_bits(seq[offset:offset + per])
    h_b = family.sample_from_bits(seq[offset + per:offset + 2 * per])
    h_c = family.sample_from_bits(seq[offset + 2 * per:offset + 3 * per])
    return LevelHashes(h_l=h_l, h_b=h_b, h_c=h_c)


def level_q(n: int, delta: int, cap: float = 0.75,
            constant: float = 0.75) -> float:
    """The L-probability q = Theta(sqrt(log n) / Delta^{1/4}).

    The Theta constant (and the cap keeping q bounded away from 1 at
    simulation scales, where Delta barely exceeds log^2 n) is a tuning
    knob; Lemma 3.1's properties are insensitive to it and the Johansson
    deferral safety net catches any slack violation.
    """
    if delta <= 0:
        return cap
    return min(cap, constant * math.sqrt(math.log(max(n, 3)))
               / (delta ** 0.25))


def level_k(delta: int) -> int:
    """Number of parts k = ceil(sqrt(Delta))."""
    return max(1, math.ceil(math.sqrt(max(delta, 1))))


def is_l_member(hashes: LevelHashes, id_value: int, q: float) -> bool:
    """Does the node with this ID join L at this level?"""
    return hashes.h_l(id_value) < q * PART_RANGE


def part_index(hashes: LevelHashes, id_value: int, k: int) -> int:
    """Which B_i a non-L node joins (uniform over [k], bias <= k/2^20)."""
    return hashes.h_b(id_value) % k


def color_part(hashes: LevelHashes, color: int, k: int) -> int:
    """Which C_i a color joins."""
    return hashes.h_c(color) % k


def member_part(hashes: LevelHashes, id_value: int, q: float, k: int) -> int:
    """Full membership: L_PART for L, otherwise the B_i index."""
    if is_l_member(hashes, id_value, q):
        return L_PART
    return part_index(hashes, id_value, k)


def color_parts(hashes: LevelHashes, num_colors: int, k: int
                ) -> tuple[frozenset[int], ...]:
    """C_0..C_{k-1} over the colors ``range(num_colors)``, one frozenset
    per part: h_c evaluated once per color.  A B_i vertex colors from
    Psi(v) ∩ C_i."""
    parts: list[list[int]] = [[] for _ in range(k)]
    for c in range(num_colors):
        parts[color_part(hashes, c, k)].append(c)
    return tuple(map(frozenset, parts))


# -- whole-graph views for tests and experiments (Lemma 3.1) ----------------

def compute_partition(graph, id_values: Sequence[int], hashes: LevelHashes,
                      q: float, k: int) -> list[int]:
    """Part of every vertex (L_PART or 0..k-1), as a list by vertex."""
    return [member_part(hashes, id_values[v], q, k) for v in range(graph.n)]


def partition_properties(graph, id_values: Sequence[int],
                         hashes: LevelHashes, q: float, k: int,
                         palette_size: int) -> dict:
    """Measure the four Lemma 3.1 properties on a concrete partition.

    Returns a dict with, per part: edge counts |E(G[B_i])|, the minimum
    slack of property (ii) (available colors minus Delta_i - 1), the L
    size and degree bounds.  Tests and the bench harness compare these
    against the lemma's envelopes.
    """
    parts = compute_partition(graph, id_values, hashes, q, k)
    edges_in_part = [0] * k
    edges_in_l = 0
    deg_same = [0] * graph.n
    for u, v in graph.edges():
        if parts[u] == parts[v]:
            if parts[u] == L_PART:
                edges_in_l += 1
            else:
                edges_in_part[parts[u]] += 1
            deg_same[u] += 1
            deg_same[v] += 1
    delta_i = [0] * k
    delta_l = 0
    for v in range(graph.n):
        p = parts[v]
        if p == L_PART:
            delta_l = max(delta_l, deg_same[v])
        else:
            delta_i[p] = max(delta_i[p], deg_same[v])
    # Property (ii): available colors in each B_i.
    c_parts = color_parts(hashes, palette_size, k)
    min_slack = None
    for v in range(graph.n):
        p = parts[v]
        if p == L_PART:
            continue
        avail = sum(1 for c in c_parts[p] if c <= graph.degree(v))
        slack = avail - (delta_i[p] + 1)
        if min_slack is None or slack < min_slack:
            min_slack = slack
    # Property (iii): available colors in L after B's are colored.
    min_l_slack = None
    for v in range(graph.n):
        if parts[v] != L_PART:
            continue
        g_l = (graph.degree(v) + 1) - (graph.degree(v) - deg_same[v])
        bound = max(deg_same[v], delta_l - delta_l ** 0.75) + 1
        slack = g_l - bound
        if min_l_slack is None or slack < min_l_slack:
            min_l_slack = slack
    l_size = sum(1 for p in parts if p == L_PART)
    return {
        "parts": parts,
        "edges_in_part": edges_in_part,
        "edges_in_l": edges_in_l,
        "delta_i": delta_i,
        "delta_l": delta_l,
        "l_size": l_size,
        "min_b_slack": min_slack,
        "min_l_slack": min_l_slack,
    }
