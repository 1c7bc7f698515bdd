"""Graph generators for the experiments and benchmarks.

Every generator takes an explicit ``seed`` (or ``rng``) so benchmark runs
are reproducible.  The families here are the ones the paper's bounds are
exercised on:

* Gnp / random-regular / power-law — generic workloads for the upper bounds
  (dense Gnp gives m >> n^1.5, the regime where o(m) matters).
* complete bipartite + the tiered bipartite X-Y-Z gadget — the lower-bound
  construction of Section 2.2 (Figure 2).
* disjoint k-cycles — the KT-rho lower bound of Theorem 2.17.
* barbell — a high-diameter stress test for the danner.
"""

from __future__ import annotations

import math
import random
from typing import Callable, NamedTuple, Optional, Sequence

from repro.errors import ReproError
from repro.graphs.core import Graph
from repro.util.collector import collector_paused


def _rng_from(seed) -> random.Random:
    if isinstance(seed, random.Random):
        return seed
    return random.Random(seed)


def _connect_components(g: Graph, rng: random.Random) -> Graph:
    """``g`` with consecutive components linked by one random edge each
    (an endpoint drawn from either component's sorted vertices, in
    component order); a connected ``g`` as is, with no draw."""
    from repro.graphs.analysis import connected_components

    comps = connected_components(g)
    if len(comps) == 1:
        return g
    return g.with_edges(added=[
        (rng.choice(sorted(a)), rng.choice(sorted(b)))
        for a, b in zip(comps, comps[1:])
    ])


def _shuffle(rng: random.Random, items: list) -> None:
    """``rng.shuffle(items)`` with its ``_randbelow`` inlined.

    The same Fisher-Yates from the top and the same rejection draws
    (``j = getrandbits(k)`` for k = (i+1).bit_length(), redrawn while
    ``j > i``) as :meth:`random.Random.shuffle`, so it gives the same
    permutation and leaves ``rng`` in the same state — without a Python
    call per element.
    """
    getrandbits = rng.getrandbits
    i = len(items) - 1
    while i > 0:
        k = (i + 1).bit_length()
        # every i down to 2**(k-1) - 1 draws k bits
        for i in range(i, (1 << (k - 1)) - 2, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            items[i], items[j] = items[j], items[i]
        i -= 1


def gnp_random_graph(n: int, p: float, seed=0) -> Graph:
    """Erdos-Renyi G(n, p) via geometric edge skipping (O(n + m) time).

    Edges (v, w), w < v, are drawn row by row in increasing v, and in
    increasing w inside a row, so appending each to both endpoints'
    lists leaves every list sorted: vertex x first gets its smaller
    neighbors in its own row, then its larger ones from later rows.
    The graph is built from those lists directly, with no
    canonicalizing pass over the edges.
    """
    if not 0.0 <= p <= 1.0:
        raise ReproError("p must be in [0, 1]")
    rng = _rng_from(seed)
    if p == 0.0 or n < 2:
        return Graph(n, ())
    if p == 1.0:
        return complete_graph(n)
    from math import log

    log_q = log(1.0 - p)
    draw = rng.random
    adj: list[list[int]] = [[] for _ in range(n)]
    v, w = 1, -1
    while v < n:
        w = w + 1 + int(log(1.0 - draw()) / log_q)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            adj[v].append(w)
            adj[w].append(v)
    return Graph._from_sorted_adjacency(n, adj)


def connected_gnp_graph(n: int, p: float, seed=0, max_tries: int = 60) -> Graph:
    """G(n, p) conditioned on connectivity (resamples; then patches)."""
    rng = _rng_from(seed)
    from repro.graphs.analysis import is_connected

    for _ in range(max_tries):
        g = gnp_random_graph(n, p, rng)
        if is_connected(g):
            return g
    return _connect_components(gnp_random_graph(n, p, rng), rng)


def random_regular_graph(n: int, d: int, seed=0, max_tries: int = 60) -> Graph:
    """A random d-regular simple graph.

    Tries the configuration model first; for dense degrees (where simple
    outcomes are exponentially rare) falls back to a circulant graph
    randomized by double edge swaps, which is guaranteed simple and
    d-regular.  At dense degrees (d ~ n/4 in the exponent sweeps) all
    ``max_tries`` configuration-model attempts are doomed, yet they stay:
    the circulant fallback draws from the rng stream they leave behind,
    and the committed ``regular`` BENCH cells pin those graphs.
    """
    if d < 0:
        raise ReproError(f"degree d={d} must be non-negative")
    if (n * d) % 2 != 0:
        raise ReproError("n * d must be even for a d-regular graph")
    if d >= n:
        raise ReproError("degree must be below n")
    rng = _rng_from(seed)
    pool = [v for v in range(n) for _ in range(d)]
    for _ in range(max_tries):
        stubs = pool.copy()
        _shuffle(rng, stubs)
        edges = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            edge = (u, v) if u < v else (v, u)
            if u == v or edge in edges:
                ok = False
                break
            edges.add(edge)
        if ok:
            return Graph(n, edges)
    return _circulant_with_swaps(n, d, rng)


def _circulant_with_swaps(n: int, d: int, rng: random.Random) -> Graph:
    """Deterministic circulant base + random double edge swaps."""
    edges: set[tuple[int, int]] = set()
    for offset in range(1, d // 2 + 1):
        for v in range(n):
            u = (v + offset) % n
            edges.add((u, v) if u < v else (v, u))
    if d % 2 == 1:
        # odd degree needs even n: add the antipodal perfect matching
        for v in range(n // 2):
            u = v + n // 2
            edges.add((v, u))
    edge_list = list(edges)
    count = len(edge_list)
    # i and j are rng.randrange(count) with _randbelow inlined: the same
    # getrandbits(k) rejection draws, so the same stream is consumed.
    k = count.bit_length()
    getrandbits = rng.getrandbits
    # Randomize with double edge swaps: {a,b},{c,d} -> {a,c},{b,d}.
    for _ in range(10 * count):
        i = getrandbits(k)
        while i >= count:
            i = getrandbits(k)
        j = getrandbits(k)
        while j >= count:
            j = getrandbits(k)
        if i == j:
            continue
        a, b = edge_list[i]
        c, e = edge_list[j]
        # a != b and c != e already: the four endpoints are distinct
        # exactly when neither of a, b is c or e
        if a == c or a == e or b == c or b == e:
            continue
        new1 = (a, c) if a < c else (c, a)
        new2 = (b, e) if b < e else (e, b)
        if new1 in edges or new2 in edges:
            continue
        edges.discard(edge_list[i])
        edges.discard(edge_list[j])
        edges.add(new1)
        edges.add(new2)
        edge_list[i], edge_list[j] = new1, new2
    return Graph(n, edges)


def power_law_graph(n: int, attachment: int = 3, seed=0) -> Graph:
    """Barabasi-Albert preferential attachment (power-law degrees)."""
    if attachment < 1 or attachment >= n:
        raise ReproError("attachment must be in [1, n)")
    rng = _rng_from(seed)
    edges: list[tuple[int, int]] = []
    targets = list(range(attachment))
    repeated: list[int] = list(range(attachment))
    for v in range(attachment, n):
        chosen = set()
        while len(chosen) < attachment:
            chosen.add(rng.choice(repeated) if repeated else rng.randrange(v))
        for u in chosen:
            edges.append((u, v))
            repeated.append(u)
            repeated.append(v)
        targets.append(v)
    return Graph(n, edges)


def complete_graph(n: int) -> Graph:
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} with left part 0..a-1 and right part a..a+b-1."""
    return Graph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def cycle_graph(k: int) -> Graph:
    if k < 3:
        raise ReproError("a cycle needs at least 3 vertices")
    return Graph(k, [(i, (i + 1) % k) for i in range(k)])


def disjoint_cycles(num_cycles: int, k: int) -> Graph:
    """The Theorem 2.17 family: ``num_cycles`` disjoint k-cycles."""
    edges = []
    for c in range(num_cycles):
        base = c * k
        edges.extend((base + i, base + (i + 1) % k) for i in range(k))
    return Graph(num_cycles * k, edges)


def barbell_graph(clique: int, path: int) -> Graph:
    """Two ``clique``-cliques joined by a ``path``-vertex path (big D)."""
    if clique < 2:
        raise ReproError("cliques need at least 2 vertices")
    edges = []
    # Left clique: 0..clique-1, right clique: clique+path..2*clique+path-1
    for u in range(clique):
        for v in range(u + 1, clique):
            edges.append((u, v))
    offset = clique + path
    for u in range(clique):
        for v in range(u + 1, clique):
            edges.append((offset + u, offset + v))
    chain = [clique - 1] + [clique + i for i in range(path)] + [offset]
    edges.extend(zip(chain, chain[1:]))
    return Graph(2 * clique + path, edges)


def grid_graph(n: int) -> Graph:
    """A near-square 2D lattice on exactly ``n`` vertices.

    Vertex v sits at (v // cols, v % cols) with cols = ceil(sqrt(n));
    the last row may be partial.  Every vertex links left and up, so the
    lattice is connected for any n >= 1.  Bounded degree (<= 4) and
    Theta(sqrt n) diameter — the opposite regime from dense gnp, where
    m ~ n and the o(m) message bounds are vacuous but round behavior and
    synchronizer overhead per edge are cleanly visible.
    """
    if n < 1:
        raise ReproError("grid needs at least one vertex")
    cols = max(1, math.isqrt(n - 1) + 1)
    edges = []
    for v in range(n):
        if (v % cols) != cols - 1 and v + 1 < n:
            edges.append((v, v + 1))
        if v + cols < n:
            edges.append((v, v + cols))
    return Graph(n, edges)


def _torus_shape(n: int) -> tuple[int, int]:
    """(rows, cols) of the torus nearest ``n`` vertices, each >= 3."""
    cols = max(3, math.isqrt(n))
    return max(3, round(n / cols)), cols


def torus_graph(n: int) -> Graph:
    """A 2D torus (wraparound grid) on approximately ``n`` vertices.

    (rows, cols) = :func:`_torus_shape` (n), so the built vertex count
    rows*cols quantizes the request.  Every vertex has degree exactly 4
    and the diameter is Theta(sqrt n) with no boundary effects — the clean
    bounded-degree workload for fault sweeps, where a crash's blast
    radius is a fixed 4-neighborhood regardless of n.
    """
    if n < 9:
        raise ReproError("torus needs at least 9 vertices (3x3)")
    rows, cols = _torus_shape(n)
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            edges.append((v, r * cols + (c + 1) % cols))
            edges.append((v, ((r + 1) % rows) * cols + c))
    # wraparound can duplicate edges only for rows/cols < 3, excluded above
    return Graph(rows * cols, edges)


def _hypercube_dimension(n: int) -> int:
    """d of the hypercube nearest ``n`` vertices: round(log2 n), >= 1."""
    return max(1, round(math.log2(n)))


def hypercube_graph(n: int) -> Graph:
    """The d-dimensional hypercube nearest ``n`` vertices (2^d built).

    d = :func:`_hypercube_dimension` (n); vertices are bitstrings
    0..2^d-1 and u ~ v iff they differ in one bit.  Degree = diameter =
    d = Theta(log n): the logarithmic-degree middle ground between the
    constant-degree torus and dense gnp.
    """
    if n < 2:
        raise ReproError("hypercube needs at least 2 vertices")
    d = _hypercube_dimension(n)
    size = 1 << d
    edges = [(v, v ^ (1 << b)) for v in range(size) for b in range(d)
             if v < v ^ (1 << b)]
    return Graph(size, edges)


def _lift_fibers(n: int, d: int) -> int:
    """L, the fibers of the degree-``d`` lift nearest ``n`` vertices."""
    return max(1, round(n / (d + 1)))


def random_regular_lift(n: int, d: int = 4, seed=0) -> Graph:
    """A random degree-``d`` lift of K_{d+1} — an expander whp.

    The base graph K_{d+1} is d-regular; an L-lift replaces each base
    vertex u with a fiber {(u, 0), ..., (u, L-1)} and each base edge
    {u, v} with a random perfect matching between the fibers (a uniform
    permutation pi: (u, i) ~ (v, pi(i))).  Random lifts of expanders are
    expanders whp (Bilu–Linial), the result is exactly d-regular and
    simple by construction, and L = :func:`_lift_fibers` (n, d) fibers
    put the vertex count within a fiber of ``n``.  Rarely the lift is
    disconnected; consecutive components are then patched with one
    random edge each (as :func:`connected_gnp_graph` does).
    """
    if d < 3:
        raise ReproError("expander lift needs degree >= 3")
    rng = _rng_from(seed)
    base = d + 1
    lift = _lift_fibers(n, d)
    edges: list[tuple[int, int]] = []
    for u in range(base):
        for v in range(u + 1, base):
            perm = list(range(lift))
            _shuffle(rng, perm)
            edges.extend(
                (u * lift + i, v * lift + perm[i]) for i in range(lift)
            )
    return _connect_components(Graph(base * lift, edges), rng)


def planted_partition_graph(n: int, p_in: float, p_out: float,
                            blocks: int = 4, seed=0) -> Graph:
    """A planted-partition (stochastic block model) graph.

    ``blocks`` contiguous communities of near-equal size; each
    within-community pair is an edge with probability ``p_in``, each
    cross pair with ``p_out`` (p_out << p_in plants the partition).
    Communities whose internal density is high while the cut is sparse
    are the natural stress case for the partition-based coloring
    (Algorithm 1's B_i parts vs. the planted ones) and for synchronizer
    locality.  Connectivity is patched the same way as
    :func:`connected_gnp_graph`: components get linked by one random
    edge each.
    """
    if not 0.0 <= p_out <= p_in <= 1.0:
        raise ReproError("planted partition needs 0 <= p_out <= p_in <= 1")
    if blocks < 1 or blocks > n:
        raise ReproError("blocks must be in [1, n]")
    rng = _rng_from(seed)
    block_of = [min(v * blocks // n, blocks - 1) for v in range(n)]
    edges = []
    for u in range(n):
        bu = block_of[u]
        for v in range(u + 1, n):
            prob = p_in if block_of[v] == bu else p_out
            if rng.random() < prob:
                edges.append((u, v))
    return _connect_components(Graph(n, edges), rng)


def regular_degree_for(n: int, p: float) -> int:
    """Feasible regular degree for density knob ``p``: d <= n-1, d*n even.

    Without the clamp a large ``p`` requests degree >= n, which no simple
    graph supports; the parity bump must also respect the cap.
    """
    d = max(2, int(p * n))
    d = min(d, n - 1)
    if (d * n) % 2:
        d += 1 if d < n - 1 else -1
    return max(d, 0)


def _expander_degree(p: float) -> int:
    """The ``expander`` family's lift degree: ~16p, clamped to [3, 8]."""
    return max(3, min(8, int(round(p * 16))))


def _barbell_parts(n: int) -> tuple[int, int]:
    """(clique, path) of the ``barbell`` family at size knob ``n``."""
    return n // 2, max(1, n // 10)


def _barbell_built_n(n: int, p: float) -> int:
    clique, path = _barbell_parts(n)
    return 2 * clique + path


def _expander_built_n(n: int, p: float) -> int:
    d = _expander_degree(p)
    return (d + 1) * _lift_fibers(n, d)


class Family(NamedTuple):
    """``build(n, p, seed)`` makes the graph for size request ``n`` and
    density knob ``p``; ``built_n(n, p)`` is its vertex count, from the
    same shape rule but no edges, for a family that quantizes ``n``."""

    build: Callable[[int, float, object], Graph]
    built_n: Optional[Callable[[int, float], int]] = None


#: The workload vocabulary of the CLI, the experiment sweeps and the
#: benchmarks, in listing order: family name -> :class:`Family`.
FAMILIES: dict[str, Family] = {
    # G(n, p) conditioned on connectivity
    "gnp": Family(lambda n, p, seed: connected_gnp_graph(n, p, seed=seed)),
    # degree ~ p*n, clamped feasible
    "regular": Family(
        lambda n, p, seed: random_regular_graph(
            n, regular_degree_for(n, p), seed=seed)),
    # preferential attachment ~ 10p
    "powerlaw": Family(
        lambda n, p, seed: power_law_graph(
            n, attachment=max(2, int(p * 10)), seed=seed)),
    # two n/2-cliques joined by an n/10 path (p ignored)
    "barbell": Family(
        lambda n, p, seed: barbell_graph(*_barbell_parts(n)),
        _barbell_built_n),
    # 2D lattice (p ignored)
    "grid": Family(lambda n, p, seed: grid_graph(n)),
    # wraparound grid (p ignored)
    "torus": Family(
        lambda n, p, seed: torus_graph(n),
        lambda n, p: math.prod(_torus_shape(n))),
    # 2^round(log2 n) vertices (p ignored)
    "hypercube": Family(
        lambda n, p, seed: hypercube_graph(n),
        lambda n, p: 1 << _hypercube_dimension(n)),
    # random d-regular lift of K_{d+1}, d ~ 16p clamped to [3, 8]
    "expander": Family(
        lambda n, p, seed: random_regular_lift(
            n, _expander_degree(p), seed=seed),
        _expander_built_n),
    # planted partition, p_in = p, p_out = p/8, up to 4 blocks
    "planted": Family(
        lambda n, p, seed: planted_partition_graph(
            n, p_in=p, p_out=p / 8, blocks=min(4, max(1, n // 8)),
            seed=seed)),
}


def family_built_n(family: str, n: int, p: float = 0.2) -> int:
    """The vertex count :func:`family_graph` builds for this request.

    Records must carry the *built* n (a wrong x-coordinate biases
    exponent fits), and failure records have no graph to read it from,
    so this asks the family's :attr:`Family.built_n` without building
    any edges.  An unknown family answers the request ``n``: a
    hand-built cell's failure record still needs one.
    """
    entry = FAMILIES.get(family)
    if entry is None or entry.built_n is None:
        return n
    return entry.built_n(n, p)


@collector_paused()
def family_graph(family: str, n: int, p: float = 0.2, seed=0) -> Graph:
    """Build a graph from a ``(family, n, density-knob, seed)`` spec.

    ``family`` names a :data:`FAMILIES` entry.  The build runs with the
    cyclic garbage collector paused
    (:func:`repro.util.collector.collector_paused`).
    """
    entry = FAMILIES.get(family)
    if entry is None:
        raise ReproError(f"unknown graph family {family!r}")
    return entry.build(n, p, seed)


def tiered_bipartite(t: int) -> tuple[Graph, dict[str, list[int]]]:
    """The lower-bound gadget G(X, Y, Z, E) of Section 2.2.

    |X| = |Y| = |Z| = t; G[X u Y] and G[Y u Z] are both K_{t,t}, so
    |E| = 2 t^2.  Returns the graph and the parts, with vertices numbered
    X = 0..t-1, Y = t..2t-1, Z = 2t..3t-1.
    """
    if t < 1:
        raise ReproError("t must be >= 1")
    xs = list(range(t))
    ys = list(range(t, 2 * t))
    zs = list(range(2 * t, 3 * t))
    edges = [(x, y) for x in xs for y in ys]
    edges.extend((y, z) for y in ys for z in zs)
    return Graph(3 * t, edges), {"X": xs, "Y": ys, "Z": zs}


def graph_from_networkx(g) -> Graph:
    """Convert a networkx graph with integer-convertible nodes."""
    mapping = {v: i for i, v in enumerate(sorted(g.nodes()))}
    return Graph(
        g.number_of_nodes(),
        [(mapping[u], mapping[v]) for u, v in g.edges()],
    )


def random_spanning_subgraph(g: Graph, keep: float, seed=0) -> Graph:
    """Keep each edge independently with probability ``keep`` (tests)."""
    rng = _rng_from(seed)
    return Graph(g.n, [e for e in g.edges() if rng.random() < keep])


def relabelled(g: Graph, permutation: Sequence[int]) -> Graph:
    """Apply a vertex permutation (tests of isomorphism invariance)."""
    if sorted(permutation) != list(range(g.n)):
        raise ReproError("not a permutation of the vertex set")
    return Graph(g.n, [(permutation[u], permutation[v]) for u, v in g.edges()])
