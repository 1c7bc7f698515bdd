"""Unit + property tests for the graph generators."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ReproError
from repro.graphs.analysis import connected_components, is_connected
from repro.graphs.generators import (
    barbell_graph,
    complete_bipartite,
    complete_graph,
    connected_gnp_graph,
    cycle_graph,
    disjoint_cycles,
    gnp_random_graph,
    power_law_graph,
    random_regular_graph,
    random_spanning_subgraph,
    relabelled,
    tiered_bipartite,
)


def test_gnp_determinism():
    a = gnp_random_graph(50, 0.2, seed=5)
    b = gnp_random_graph(50, 0.2, seed=5)
    assert a == b


def test_gnp_seed_sensitivity():
    a = gnp_random_graph(50, 0.2, seed=5)
    b = gnp_random_graph(50, 0.2, seed=6)
    assert a != b


def test_gnp_extremes():
    assert gnp_random_graph(20, 0.0, seed=1).m == 0
    assert gnp_random_graph(20, 1.0, seed=1).m == 190


def test_gnp_bad_p():
    with pytest.raises(ReproError):
        gnp_random_graph(10, 1.5)


def test_gnp_density_plausible():
    g = gnp_random_graph(200, 0.1, seed=3)
    expected = 0.1 * 199 * 100
    assert 0.7 * expected < g.m < 1.3 * expected


def test_connected_gnp_is_connected():
    for seed in range(5):
        g = connected_gnp_graph(60, 0.05, seed=seed)
        assert is_connected(g)


def test_regular_graph_degrees():
    g = random_regular_graph(30, 4, seed=2)
    assert all(g.degree(v) == 4 for v in range(30))


def test_regular_graph_parity_rejected():
    with pytest.raises(ReproError):
        random_regular_graph(5, 3)


def test_regular_graph_too_dense_rejected():
    with pytest.raises(ReproError):
        random_regular_graph(4, 4)


@pytest.mark.parametrize("n, d", [(10, -2), (10, -1), (11, -3), (4, -4)])
def test_regular_graph_negative_degree_rejected(n, d):
    with pytest.raises(ReproError, match=f"d={d}"):
        random_regular_graph(n, d)


def test_power_law_connected_and_skewed():
    g = power_law_graph(150, attachment=2, seed=4)
    assert is_connected(g)
    degrees = sorted((g.degree(v) for v in range(g.n)), reverse=True)
    assert degrees[0] > 3 * degrees[len(degrees) // 2]


def test_complete_graph():
    g = complete_graph(6)
    assert g.m == 15
    assert g.max_degree() == 5


def test_complete_bipartite_structure():
    g = complete_bipartite(3, 4)
    assert g.n == 7
    assert g.m == 12
    for u in range(3):
        for v in range(3):
            if u != v:
                assert not g.has_edge(u, v)


def test_cycle_graph():
    g = cycle_graph(8)
    assert g.m == 8
    assert all(g.degree(v) == 2 for v in range(8))


def test_cycle_too_short():
    with pytest.raises(ReproError):
        cycle_graph(2)


def test_disjoint_cycles_components():
    g = disjoint_cycles(4, 5)
    comps = connected_components(g)
    assert len(comps) == 4
    assert all(len(c) == 5 for c in comps)


def test_barbell_structure():
    g = barbell_graph(5, 3)
    assert g.n == 13
    assert is_connected(g)
    # bridge path endpoints have degree clique-1 + 1
    assert g.degree(4) == 5


def test_tiered_bipartite_matches_paper():
    g, parts = tiered_bipartite(4)
    t = 4
    assert g.n == 3 * t
    assert g.m == 2 * t * t
    for x in parts["X"]:
        for z in parts["Z"]:
            assert not g.has_edge(x, z)
    for y in parts["Y"]:
        assert g.degree(y) == 2 * t


def test_random_spanning_subgraph_keeps_subset():
    g = complete_graph(12)
    h = random_spanning_subgraph(g, 0.5, seed=9)
    assert h.n == g.n
    assert set(h.edges()) <= set(g.edges())


def test_relabelled_preserves_structure():
    g = cycle_graph(6)
    perm = [3, 4, 5, 0, 1, 2]
    h = relabelled(g, perm)
    assert h.m == g.m
    assert all(h.degree(v) == 2 for v in range(6))


def test_relabelled_bad_permutation():
    with pytest.raises(ReproError):
        relabelled(cycle_graph(4), [0, 0, 1, 2])


@given(st.integers(2, 40), st.floats(0.05, 0.9))
@settings(max_examples=25, deadline=None)
def test_gnp_simple_graph_property(n, p):
    g = gnp_random_graph(n, p, seed=11)
    assert all(v not in g.neighbors(v) for v in range(n))
    assert g.m <= n * (n - 1) // 2


@given(st.integers(1, 8), st.integers(3, 10))
@settings(max_examples=20, deadline=None)
def test_disjoint_cycles_edge_count(c, k):
    g = disjoint_cycles(c, k)
    assert g.n == c * k
    assert g.m == c * k


# -- grid / expander / planted partition (sweep families) ---------------------


def test_grid_structure_and_determinism():
    from repro.graphs.generators import grid_graph

    g = grid_graph(30)
    assert g.n == 30
    assert g == grid_graph(30)                    # deterministic
    assert is_connected(g)
    assert all(g.degree(v) <= 4 for v in range(g.n))
    # full 5x6 lattice: m = 5*(6-1) + 6*(5-1) = 49
    assert grid_graph(30).m == 49
    # partial last row stays connected
    assert is_connected(grid_graph(23))
    with pytest.raises(ReproError):
        grid_graph(0)


def test_expander_lift_regular_and_seeded():
    from repro.graphs.generators import random_regular_lift

    a = random_regular_lift(60, 4, seed=9)
    b = random_regular_lift(60, 4, seed=9)
    c = random_regular_lift(60, 4, seed=10)
    assert a == b
    assert a != c                                 # seed-sensitive
    assert is_connected(a)
    # exact d-regularity (up to the rare connectivity patch)
    degs = [a.degree(v) for v in range(a.n)]
    assert max(degs) <= 6 and min(degs) >= 4
    assert sum(1 for d in degs if d == 4) >= a.n - 4
    with pytest.raises(ReproError):
        random_regular_lift(30, 2)


def test_planted_partition_density_contrast():
    from repro.graphs.generators import planted_partition_graph

    a = planted_partition_graph(80, p_in=0.5, p_out=0.02, blocks=4, seed=1)
    assert a == planted_partition_graph(80, p_in=0.5, p_out=0.02,
                                        blocks=4, seed=1)
    assert a != planted_partition_graph(80, p_in=0.5, p_out=0.02,
                                        blocks=4, seed=2)
    assert is_connected(a)
    # the planted structure is visible: within-block edges dominate
    block = lambda v: min(v * 4 // 80, 3)
    within = sum(1 for u, v in a.edges() if block(u) == block(v))
    across = a.m - within
    assert within > 3 * across
    with pytest.raises(ReproError):
        planted_partition_graph(40, p_in=0.1, p_out=0.5)


def test_new_families_via_family_graph():
    from repro.graphs.generators import family_graph

    for family in ("grid", "expander", "planted"):
        g1 = family_graph(family, 48, p=0.25, seed=5)
        g2 = family_graph(family, 48, p=0.25, seed=5)
        assert g1 == g2, family
        assert is_connected(g1), family
        assert abs(g1.n - 48) <= 4, family        # lift rounds to fibers


def test_torus_graph_structure():
    from repro.graphs.generators import family_built_n, torus_graph

    g = torus_graph(49)
    assert g == torus_graph(49)                   # deterministic
    assert is_connected(g)
    assert g.n == family_built_n("torus", 49)
    # exact 4-regularity, no boundary
    assert all(g.degree(v) == 4 for v in range(g.n))
    assert g.m == 2 * g.n
    with pytest.raises(ReproError):
        torus_graph(5)


def test_family_built_n_matches_every_family():
    """Every family's built size, computed without edges, is the n of
    the graph it builds (failure records and exponent fits read it)."""
    from repro.graphs.generators import FAMILIES, family_built_n, family_graph

    for family in FAMILIES:
        for n in (9, 20, 49, 60, 100, 137):
            for p in (0.05, 0.2, 0.45):
                built = family_graph(family, n, p, seed=1).n
                assert family_built_n(family, n, p) == built, (family, n, p)


def test_hypercube_graph_structure():
    from repro.graphs.generators import family_built_n, hypercube_graph

    g = hypercube_graph(32)
    assert g == hypercube_graph(32)               # deterministic
    assert is_connected(g)
    assert g.n == 32 == family_built_n("hypercube", 32)
    # d-regular with d = log2 n, diameter d
    assert all(g.degree(v) == 5 for v in range(g.n))
    from repro.graphs.analysis import diameter
    assert diameter(g) == 5
    with pytest.raises(ReproError):
        hypercube_graph(1)


def test_hypercube_rounds_to_power_of_two():
    from repro.graphs.generators import family_built_n, hypercube_graph

    for n, built in ((2, 2), (3, 4), (48, 64), (100, 128)):
        g = hypercube_graph(n)
        assert g.n == built == family_built_n("hypercube", n)


def test_torus_hypercube_via_family_graph():
    from repro.graphs.generators import family_built_n, family_graph

    for family, n in (("torus", 60), ("hypercube", 60)):
        g1 = family_graph(family, n, p=0.25, seed=5)
        g2 = family_graph(family, n, p=0.25, seed=6)
        assert g1 == g2, family                   # seed-independent
        assert is_connected(g1), family
        assert g1.n == family_built_n(family, n), family


# -- graph identity pins ------------------------------------------------------

# sha256 of pickle.dumps((g.n, g._adj, g._edges)) for family_graph(family,
# n, p, seed), recorded before the generators' rng draws were inlined.  The
# BENCH cells pin only message/round counts of a few families; these pin
# the graphs themselves, bit for bit.  `regular` at p=0.05 succeeds in the
# configuration model for n <= 80 and falls back to the circulant swaps at
# n=140; at p=0.25 the fallback runs for every case but (16, seed 1).
# The gnp cases other than (320, 0.45) were recorded while G(n, p) still
# built its graph from an edge list, before it filled the adjacency itself.
# The barbell, grid, torus and hypercube cases (60 and 137 quantize) and
# gnp (40, 0.05) were recorded before the families moved into one table;
# each gnp (40, 0.05) seed draws 60 disconnected graphs, so it patches.
_FAMILY_GRAPH_DIGESTS = {
    ("barbell", 20, 0.25, 0): "48ee0ca843523dd76e3106e9c13b294d2575bbc050b8b69d4e394730ce8200b5",
    ("barbell", 60, 0.25, 0): "8a4b6505d609b0ebdcf572652e56674dfb2820803461ed66c70ee1bc37f95fbb",
    ("barbell", 137, 0.25, 0): "f1a1010f3e83adf40e06bb56d32e72c6760d4602c04e9be5e9de7927e17b88df",
    ("grid", 20, 0.25, 0): "add266ee2ee2cdb700d83f38c8d655425818cb0288ff1a73fe4ea49e987f67fc",
    ("grid", 60, 0.25, 0): "3178fde3ad69c557b87a8cc86318c4353e507266f55743ed8931ec92e3511871",
    ("grid", 137, 0.25, 0): "a1918bb269c0770407d4d581a9cb3dc7561644836fce0d0d2c3524dd2c30e47d",
    ("torus", 20, 0.25, 0): "df1969965f5c101107e874d0b431513bae28caf75487d3afcb4f5526474b72c4",
    ("torus", 60, 0.25, 0): "35a539249cfaa0b47a9a67a684c866eed32c85568eb7bde63d1867325e06d5d3",
    ("torus", 137, 0.25, 0): "8f25e867c9076aed7af86a98f9dfde05c34c24f59c65ff444ea7a5b55449344c",
    ("hypercube", 20, 0.25, 0): "d12ec246836b9a50ba8d8f2d4e4ecb2a1d572a57fbbc2fa08f84a812b2f0aa4f",
    ("hypercube", 60, 0.25, 0): "735e3430dc705ff971b00aa5ff403d1c1c59340fd62bdbeb50ec79b12aa67e2f",
    ("hypercube", 137, 0.25, 0): "181bb6383e4a3b87d30b4fa679f63317f7c930c1f8ae52976a95543f8b28361b",
    ("gnp", 40, 0.05, 0): "48a117855cb55e7de5386d354172ceb1b44f14722873eff1f03459a9f6f36d94",
    ("gnp", 40, 0.05, 1): "381bbe0628ab722b1b0fa74462666a6c1f3d2aae687ee3323ab1ad9ba7f12e8b",
    ("gnp", 40, 0.05, 2): "22aa96e641f36502bd8e5b08472c427fe57184545336eb43a535e85f76efdf74",
    ("gnp", 40, 0.05, 3): "4a51d68c28f50aad1fd48d82bf411110980e6c73ad590e72a4d3962654416317",
    ("regular", 16, 0.05, 0): "8f2018a3430e8b80e3b4376fc3b38831f4a920381f9ac7509e37203cdbf810fa",
    ("regular", 16, 0.05, 1): "90782dc4688a07acfacfda97abba344df105523cabd9183fd1336048e3ba9eb5",
    ("regular", 16, 0.05, 2): "33e1e43321be92b34669ac71afc9092f2f2011c31065b08de59c0eb9edd24256",
    ("regular", 16, 0.25, 0): "36c7967c427a3c9b5998dab5b982501bc1cca91e034cbe31024fa7356c6ee04a",
    ("regular", 16, 0.25, 1): "855a99757ad2431377b4a35499bb2e8ef5e237d665645d0f32e8424e165a72e8",
    ("regular", 16, 0.25, 2): "5c2a3dc39ed2c35fd23badc0ed563a0586633d51d62eb0d8e0f576d3f76e8145",
    ("regular", 40, 0.05, 0): "e652edbc0521d83ce1b354095a97fc1b25922dcd77376b25b1cc07ae192aa157",
    ("regular", 40, 0.05, 1): "74819d6f3d0637c55b286615293c318563d60e802cdf442b587e91b1c4a19ec6",
    ("regular", 40, 0.05, 2): "f39a39a8339e482991c372302b86bb9b464fb6167647fde86992fdbd465d945c",
    ("regular", 40, 0.25, 0): "8a13cd05b8a4520183bcb078995a4788dedc4804e71a00b15346c1481de5416d",
    ("regular", 40, 0.25, 1): "62470ea1cac3c14adfe13f2fc574fdd5dc5ab42f53caa3acb8663d62c7c05c59",
    ("regular", 40, 0.25, 2): "24d77690d8c91d5094d023659fd5f9beca42ec3a1e92193c25a0c31afdc888a1",
    ("regular", 80, 0.05, 0): "ccf7fcddff82fb316d500e9cf38704532cc794c2e43fbdfe5611eabf5e9cb0fd",
    ("regular", 80, 0.05, 1): "a5f57cf303e61951969b05923f423009c5f90b0c4aa4a03040a7f346ad2ac597",
    ("regular", 80, 0.05, 2): "df0aacd4d57f107a898f019e8cc5ef1aee5c564d62c5f33fecd5edc789eba2a1",
    ("regular", 80, 0.25, 0): "0b08763def8137b6796a08da0eff7fb3769ab0af9b632dd84f206e99033709fd",
    ("regular", 80, 0.25, 1): "4cfcc6e34ca9383c7026d26800053ca7837b6bc244b3c51aabf147fd057eba05",
    ("regular", 80, 0.25, 2): "c8dea96adedd215423ec3c721872860e7594705a8675d762f4f851af0382bd9d",
    ("regular", 140, 0.05, 0): "50a0a5744ba3265bb2bba2bbb5d7d9836c5576915b8697d6c80b6fd57de02ae6",
    ("regular", 140, 0.05, 1): "3344e0c59f3c804a29fc94bfb7410360d63bfa2f2227db25c0655eb24ad94f24",
    ("regular", 140, 0.05, 2): "d3c849a56512e658316f3cf76f91718c454c4f0b87752cbfcb25b00e8fb9d835",
    ("regular", 140, 0.25, 0): "f475818b134d4f7c8e46495f1211449ad2cd15f70dee8f7502f641eed28ed351",
    ("regular", 140, 0.25, 1): "5b97bdab31e134deb89bfc61cbdb76e6be6793afd8ae0d8c0188048c0beea3ad",
    ("regular", 140, 0.25, 2): "3b0f9a10d01cba61aaac424a92328d9c0a9d319a5305fd4d60cb995a5163b03e",
    ("expander", 80, 0.25, 0): "b4daf43358d52d8f65f088a932e0cc739e06dd19a8802d44eacc48566b6a8f09",
    ("expander", 80, 0.25, 1): "9369980114a7e59fe74620a27f90a6341eb454a6d140cd6611322ec45a08383e",
    ("expander", 80, 0.25, 2): "59d0c8a3aed3e8d4e8e4d0646b93030d05ca73bb5fdc9c0da122284e28da62b6",
    ("powerlaw", 80, 0.25, 0): "21bc9c441cde4f1a583f1897c11ae4018c5af4abdace19442d460dd3d971dec9",
    ("powerlaw", 80, 0.25, 1): "0e51e6cd01806952ea8dd0df2820226afdc987bff5b663e491e2897928d9e58e",
    ("powerlaw", 80, 0.25, 2): "cc8c295d5de81a66045ef17d919defa804d69a1943bb50efe02a75ce975a39c7",
    ("planted", 80, 0.25, 0): "9b9fac0cb777c26761d330091e436e27f5c5cc76355b9081ade74f186e2772fa",
    ("planted", 80, 0.25, 1): "2d9c00fe9e5396626cc441ff8c6e4376c1ec8c56535a256ac19b69e813f69f73",
    ("planted", 80, 0.25, 2): "62b95d9cd7a3e5752644e0a4a2a0d3e72d62c25811407c04a653724e59984976",
    ("gnp", 320, 0.45, 0): "9d71ba6b9768cac70389680122f1a776f3ee91e4cae8c7e8f61cb3d19f7686d0",
    ("gnp", 320, 0.45, 1): "b0e3123d9e77101a61f73ca864e02a823f65afee4425e8f9085da8b418fd7e35",
    ("gnp", 320, 0.45, 2): "b047556852dbbd41386c29875121b01ce59a7b2a0bf2b56c35879989761a201c",
    ("gnp", 220, 0.45, 0): "07f9146ed60378ca930b47939cdaff1621dd0eea2c1ad77f520626fe480c07e5",
    ("gnp", 220, 0.45, 1): "43353faca53627454bc09d06bd176d1850282ba18791b425c1ddd20c0b98071c",
    ("gnp", 220, 0.45, 2): "b4281db5de543fcc60fbbb4ff1726f8bc8b4a691621952b7797974ebb5740045",
    ("gnp", 320, 0.25, 0): "61ed9e51437290b4a26846a124367c5f3a511d05db9e0993e35d4dae8c5d0149",
    ("gnp", 320, 0.25, 1): "42b6896ac40bdbecebfcb99e045ef990728157f5861e2cd3f7842d177618f6a6",
    ("gnp", 320, 0.25, 2): "e49bfd28b9d2242a3ec91f9f67518a5a5854f82e359ac7c26cfafe278c03843e",
    ("gnp", 220, 0.25, 0): "2e2ab61faecb37c24a0099b6c34ff425bd4e8864d59c0d864b874b85c8426a1e",
    ("gnp", 220, 0.25, 1): "9f271fe43842e5bc22990c112a3192ed0982dec274636b7085e3632f7d750ca7",
    ("gnp", 220, 0.25, 2): "cbe89727a20d85349bc5dedfb8ff00382cb43222cdb27127e4bb8afb63c6bf63",
    ("gnp", 80, 0.25, 0): "65ebc17cf49f0222644058410299203569f60e308a7f84151df56f5d394d64fe",
    ("gnp", 80, 0.25, 1): "c3749d3992a4ef13935084c6619337671ec0d86a74bee493f2aa543a6b7528ee",
    ("gnp", 80, 0.25, 2): "4dfc06bc1182fd770a178ee617b4eb36e80c57a577b8747a332b8d147cb3990a",
    ("gnp", 140, 0.25, 0): "1bce8928a386658991dea38f71bb5b7b43849e898fdeb8fa81970efb01d01428",
    ("gnp", 140, 0.25, 1): "6d7214e10d6c7e641de681f2869709a673aafb57123fa9ade638add288788fa5",
    ("gnp", 140, 0.25, 2): "c737189aac395f529d5bb286aa46f0be9bbe3f18fad40908a4dceb029d7b5f36",
}


@pytest.mark.pin
@pytest.mark.parametrize("case", sorted(_FAMILY_GRAPH_DIGESTS))
def test_family_graphs_are_pinned(case):
    """sha256 of each graph's n, adjacency and edges, recorded before the
    generators' rng draws were inlined: holds graph construction
    bit-identical in families no BENCH cell covers."""
    import hashlib
    import pickle

    from repro.graphs.generators import family_graph

    family, n, p, seed = case
    g = family_graph(family, n, p, seed=seed)
    state = pickle.dumps((g.n, g._adj, g._edges))
    assert hashlib.sha256(state).hexdigest() == _FAMILY_GRAPH_DIGESTS[case]


# -- exactness of the inlined rng draws ---------------------------------------

def _reference_gnp_random_graph(n, p, seed=0):
    """G(n, p) as first written: an edge list canonicalized by ``Graph``."""
    from math import log

    from repro.graphs.core import Graph
    from repro.graphs.generators import _rng_from

    rng = _rng_from(seed)
    edges = []
    if p == 0.0 or n < 2:
        return Graph(n, edges)
    if p == 1.0:
        return complete_graph(n)
    log_q = log(1.0 - p)
    v, w = 1, -1
    while v < n:
        w = w + 1 + int(log(1.0 - rng.random()) / log_q)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            edges.append((v, w))
    return Graph(n, edges)


@pytest.mark.parametrize("p", [0.0, 1e-3, 0.25, 0.45, 0.999, 1.0])
def test_gnp_adjacency_build_matches_the_edge_list_build(p, monkeypatch):
    """Same adjacency, edges and rng stream as the edge-list build, through
    ``connected_gnp_graph`` so that resampling and patching are covered."""
    import random

    from repro.graphs import generators

    for n in range(41):
        for seed in range(3):
            rng = random.Random(seed)
            got = connected_gnp_graph(n, p, rng)
            with monkeypatch.context() as patch:
                patch.setattr(generators, "gnp_random_graph",
                              _reference_gnp_random_graph)
                reference_rng = random.Random(seed)
                expected = connected_gnp_graph(n, p, reference_rng)
            assert got._adj == expected._adj, (n, seed)
            assert got._edges == expected._edges, (n, seed)
            assert rng.random() == reference_rng.random(), (n, seed)


_SHUFFLE_LENGTHS = sorted(
    {0, 1, 2, 4900} | {(1 << k) + delta for k in range(1, 13) for delta in (-1, 1)}
)


@given(st.integers(0, 2**64), st.sampled_from(_SHUFFLE_LENGTHS))
@settings(max_examples=120, deadline=None)
def test_shuffle_matches_random_shuffle(seed, length):
    import random

    from repro.graphs.generators import _shuffle

    expected, got = list(range(length)), list(range(length))
    reference, rng = random.Random(seed), random.Random(seed)
    reference.shuffle(expected)
    _shuffle(rng, got)
    assert got == expected
    assert rng.random() == reference.random()


def _reference_circulant_with_swaps(n, d, rng):
    """The circulant fallback as first written: randrange, min/max, a set."""
    from repro.graphs.core import Graph

    edges = set()
    for offset in range(1, d // 2 + 1):
        for v in range(n):
            u = (v + offset) % n
            edges.add((min(u, v), max(u, v)))
    if d % 2 == 1:
        for v in range(n // 2):
            edges.add((v, v + n // 2))
    edge_list = list(edges)
    for _ in range(10 * len(edge_list)):
        i, j = rng.randrange(len(edge_list)), rng.randrange(len(edge_list))
        if i == j:
            continue
        a, b = edge_list[i]
        c, e = edge_list[j]
        if len({a, b, c, e}) < 4:
            continue
        new1 = (min(a, c), max(a, c))
        new2 = (min(b, e), max(b, e))
        if new1 in edges or new2 in edges:
            continue
        edges.discard(edge_list[i])
        edges.discard(edge_list[j])
        edges.add(new1)
        edges.add(new2)
        edge_list[i], edge_list[j] = new1, new2
    return Graph(n, edges)


@pytest.mark.parametrize("n, d", [(6, 0), (6, 2), (7, 2), (8, 3), (16, 4),
                                  (33, 8), (40, 9), (64, 16), (90, 31)])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_circulant_swaps_match_randrange_reference(n, d, seed):
    import random

    from repro.graphs.generators import _circulant_with_swaps

    reference, rng = random.Random(seed), random.Random(seed)
    expected = _reference_circulant_with_swaps(n, d, reference)
    got = _circulant_with_swaps(n, d, rng)
    assert (got._adj, got._edges) == (expected._adj, expected._edges)
    assert rng.random() == reference.random()
