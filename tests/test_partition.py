"""Tests for the Chang et al. partition under limited independence
(Lemma 3.1)."""

import random

import pytest

from repro.coloring import partition as P
from repro.errors import ReproError
from repro.graphs.generators import connected_gnp_graph, random_regular_graph
from repro.util.bitstrings import random_bitstring


def derive(n=400, id_space=None, level=0, seed=1):
    id_space = id_space or n * n
    nbits = P.bits_per_level(n, id_space) * (level + 1)
    bits = random_bitstring(random.Random(seed), nbits)
    return P.derive_level_hashes(bits, level, n, id_space)


def test_bits_per_level_positive():
    assert P.bits_per_level(100, 10_000) > 0


def test_derive_deterministic():
    h1 = derive(seed=2)
    h2 = derive(seed=2)
    assert [h1.h_l(x) for x in range(30)] == [h2.h_l(x) for x in range(30)]


def test_derive_levels_independent():
    n, id_space = 300, 90_000
    nbits = 2 * P.bits_per_level(n, id_space)
    bits = random_bitstring(random.Random(3), nbits)
    h0 = P.derive_level_hashes(bits, 0, n, id_space)
    h1 = P.derive_level_hashes(bits, 1, n, id_space)
    assert any(h0.h_l(x) != h1.h_l(x) for x in range(100))


def test_derive_insufficient_bits():
    bits = random_bitstring(random.Random(4), 10)
    with pytest.raises(ReproError):
        P.derive_level_hashes(bits, 0, 100, 10_000)


def test_level_q_monotone():
    assert P.level_q(1000, 10_000) < P.level_q(1000, 100)
    assert P.level_q(1000, 0) == 0.75


def test_level_k_sqrt():
    assert P.level_k(100) == 10
    assert P.level_k(101) == 11
    assert P.level_k(0) == 1


def test_membership_consistency():
    hashes = derive(seed=5)
    q, k = 0.3, 7
    for x in range(200):
        part = P.member_part(hashes, x, q, k)
        if P.is_l_member(hashes, x, q):
            assert part == P.L_PART
        else:
            assert part == P.part_index(hashes, x, k)
            assert 0 <= part < k


def test_l_fraction_close_to_q():
    hashes = derive(n=2000, id_space=4_000_000, seed=6)
    q = 0.25
    hits = sum(P.is_l_member(hashes, x, q) for x in range(4000))
    assert abs(hits / 4000 - q) < 0.05


def test_parts_roughly_balanced():
    hashes = derive(n=2000, id_space=4_000_000, seed=7)
    k = 8
    counts = [0] * k
    for x in range(4000):
        counts[P.part_index(hashes, x, k)] += 1
    mean = 4000 / k
    assert all(0.6 * mean < c < 1.4 * mean for c in counts)


def test_palette_partition_covers():
    hashes = derive(seed=8)
    k = 5
    parts = P.color_parts(hashes, 50, k)
    assert len(parts) == k
    # disjoint cover
    union = set()
    for p in parts:
        assert not (union & p)
        union |= p
    assert union == set(range(50))


@pytest.mark.parametrize("seed, num_colors, k", [(3, 1, 1), (4, 37, 6),
                                                 (9, 200, 14)])
def test_color_parts_agree_with_color_part(seed, num_colors, k):
    hashes = derive(seed=seed)
    parts = P.color_parts(hashes, num_colors, k)
    assert len(parts) == k
    assert sum(map(len, parts)) == num_colors
    for c in range(num_colors):
        owners = [i for i, part in enumerate(parts) if c in part]
        assert owners == [P.color_part(hashes, c, k)], c


def test_lemma_3_1_properties_on_regular_graph():
    """The four properties on a concrete dense graph (whp event)."""
    g = random_regular_graph(300, 60, seed=9)
    from repro.congest.ids import IdAssignment

    assignment = IdAssignment.random(g.n, seed=10)
    values = list(assignment.values())
    delta = 60
    q = P.level_q(g.n, delta)
    k = P.level_k(delta)
    hashes = derive(n=g.n, id_space=assignment.space_bound(), seed=11)
    props = P.partition_properties(g, values, hashes, q, k, delta + 1)
    # (i) |E(G[B_i])| = O(n): generous constant
    assert all(e <= 4 * g.n for e in props["edges_in_part"])
    # |L| = O(q n)
    assert props["l_size"] <= 2.2 * q * g.n
    # (iv) remaining degrees shrink
    assert all(d <= 6 * (delta ** 0.5) + 8 * (g.n.bit_length())
               for d in props["delta_i"])
    assert props["delta_l"] <= 3 * q * delta + 8 * g.n.bit_length()


def test_property_ii_slack_nonnegative_mostly():
    """Available colors in B_i exceed Delta_i + 1 (property (ii))."""
    g = random_regular_graph(240, 80, seed=12)
    from repro.congest.ids import IdAssignment

    assignment = IdAssignment.random(g.n, seed=13)
    values = list(assignment.values())
    delta = 80
    hashes = derive(n=g.n, id_space=assignment.space_bound(), seed=14)
    props = P.partition_properties(
        g, values, hashes, P.level_q(g.n, delta), P.level_k(delta),
        delta + 1,
    )
    assert props["min_b_slack"] is not None
    assert props["min_b_slack"] >= -4   # small additive slack at this scale


def test_partition_stats_structure(gnp_medium):
    from repro.congest.ids import IdAssignment

    assignment = IdAssignment.random(gnp_medium.n, seed=15)
    values = list(assignment.values())
    delta = gnp_medium.max_degree()
    hashes = derive(n=gnp_medium.n, id_space=assignment.space_bound(),
                    seed=16)
    props = P.partition_properties(
        gnp_medium, values, hashes, 0.3, P.level_k(delta), delta + 1,
    )
    parts = props["parts"]
    assert len(parts) == gnp_medium.n
    total_edges = (sum(props["edges_in_part"]) + props["edges_in_l"])
    assert total_edges <= gnp_medium.m
