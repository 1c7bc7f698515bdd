"""Algorithm 3: comparison-based MIS in KT-2 CONGEST (Theorem 4.1).

Õ(n^1.5) messages, Õ(sqrt n) rounds.  Steps (paper Section 4):

1. **Sample** — every node privately joins S with probability c/sqrt(n)
   and draws a random rank.
2. **Randomized greedy on S** — the parallel rank-greedy (see
   :mod:`repro.mis.greedy`); equivalent to Θ(sqrt n) iterations of the
   sequential randomized greedy, which whp crushes the remnant maximum
   degree to Õ(sqrt n) (Konrad [21], Lemma 1).
3. **Inform 2-hop neighbors** — each joiner's 1-hop neighbors relay the
   join to exactly the 2-hop neighbors that chose them as relay, using
   KT-2 knowledge to build a local depth-2 BFS tree: node w relays
   joiner u to x ∈ N(w) \\ N[u] iff w is the minimum-ID common neighbor
   of u and x.  Pure ID comparisons — the algorithm stays
   comparison-based — and exactly one message reaches each 2-hop
   neighbor per joiner (link congestion, bounded by |S|, is what the
   Õ(sqrt n) round bound pays for).
4. **Prune** — with KT-2 plus the received joins, every node decides
   locally which neighbors are deactivated (joined or dominated): v
   knows N(u) for each neighbor u and knows every joiner within 2 hops,
   so domination of u is computable with zero messages.
5. **Finish** — run Luby on the remnant graph (max degree Õ(sqrt n), so
   Õ(n^1.5) messages again).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import compress
from typing import Optional

from repro.congest.node import Context, NodeAlgorithm
from repro.errors import ProtocolError
from repro.mis.greedy import ParallelGreedyMIS
from repro.mis.luby import LubyMIS


class InformTwoHop(NodeAlgorithm):
    """Step 3: relay joins to 2-hop neighborhoods via local BFS trees.

    Input: ``{"joined": bool, "joined_neighbors": frozenset}`` from the
    greedy stage.  Output: ``{"two_hop_joiners": frozenset}``.
    """

    passive_when_idle = True

    def setup(self, ctx: Context) -> None:
        state = ctx.input or {}
        self.joined_neighbors = state.get("joined_neighbors", frozenset())
        self.two_hop: set = set()

    def _publish(self, ctx: Context) -> None:
        ctx.done({"two_hop_joiners": frozenset(self.two_hop)})

    def _relay_targets(self, ctx: Context, joiner, neighborhoods) -> list:
        """The 2-hop neighbors of ``joiner`` that I must relay to, in
        ``neighbor_ids`` order (``neighborhoods`` holds each neighbor's
        neighbor-ID set in that order, looked up once per node).

        I relay to x iff x is my neighbor, x is not in N[joiner], and I am
        the minimum-ID common neighbor of joiner and x — all decidable
        from KT-2 knowledge by ID comparisons alone.  I am always a common
        neighbor of joiner and x, so I am the minimum iff no member of
        N(joiner) below me also neighbors x.  Those beaters are the prefix
        of joiner's ID-ordered neighbor tuple below my ID, found with one
        ``bisect_left`` (log-degree ID comparisons, so the
        comparison-based discipline holds).  The ``isdisjoint`` tests
        against the beaters run as one C-level ``map``; only the
        neighbors that pass cost a membership test.
        """
        knowledge = ctx.knowledge
        n_joiner = knowledge.neighborhood_of(joiner)
        ordered = knowledge.ordered_neighborhood_of(joiner)
        beaters = frozenset(ordered[:bisect_left(ordered, ctx.my_id)])
        return [
            x for x in compress(ctx.neighbor_ids,
                                map(beaters.isdisjoint, neighborhoods))
            if x not in n_joiner and x != joiner
        ]

    def on_round(self, ctx: Context, inbox) -> None:
        if ctx.round == 0 and self.joined_neighbors:
            neighborhoods = ctx.knowledge.neighbor_neighborhoods()
            for joiner in self.joined_neighbors:
                targets = self._relay_targets(ctx, joiner, neighborhoods)
                if targets:
                    ctx.broadcast(targets, "relay", joiner)
        for msg in inbox:
            (joiner,) = msg.fields
            self.two_hop.add(joiner)
        self._publish(ctx)


@dataclass
class Algorithm3Result:
    in_mis: list[bool]
    sampled: int
    greedy_joined: int
    luby_joined: int
    remnant_size: int
    remnant_max_degree_local: int
    messages: int
    rounds: int
    stage_messages: dict


def run_algorithm3(
    net,
    seed=0,
    sample_constant: float = 1.0,
    name_prefix: str = "alg3",
) -> Algorithm3Result:
    """Run Algorithm 3 on a KT-2 network (requires rho >= 2).

    The algorithm is comparison-based: it runs under a comparison_based
    network unchanged (and tests do exactly that to machine-check the
    discipline).
    """
    if net.rho < 2:
        raise ProtocolError("Algorithm 3 needs KT-2 knowledge (rho >= 2)")
    n = net.graph.n
    msgs_before = net.stats.messages
    rounds_before = net.stats.rounds

    # Steps 1-2: sample S with private coins and run parallel greedy.
    # Sampling and ranks are drawn inside the stage's per-node RNG via a
    # deterministic pre-pass here (same seeds the engine would hand out),
    # keeping the whole decision node-local.
    import random as _random

    prob = min(1.0, sample_constant / math.sqrt(max(n, 1)))
    in_s = []
    ranks = []
    for v in range(n):
        rng = _random.Random(f"{seed}-alg3-sample-{v}")
        in_s.append(rng.random() < prob)
        ranks.append(rng.randrange(max(n, 2) ** 3))
    greedy = net.run(
        ParallelGreedyMIS,
        inputs=[
            {"in_s": in_s[v], "rank": ranks[v]} for v in range(n)
        ],
        name=f"{name_prefix}-greedy",
    )
    joined = [bool(out["joined"]) for out in greedy.outputs]

    # Step 3: inform 2-hop neighborhoods.
    inform = net.run(
        InformTwoHop,
        inputs=[
            {
                "joined": joined[v],
                "joined_neighbors": greedy.outputs[v]["joined_neighbors"],
            }
            for v in range(n)
        ],
        name=f"{name_prefix}-inform",
    )

    # Step 4: local pruning.  For each node v decide, with v-local
    # information only (KT-2 + received joins), whether v and each of its
    # neighbors remain in the remnant.
    participate = []
    active_sets = []
    remnant_count = 0
    remnant_max_deg = 0
    for v in range(n):
        if joined[v] or greedy.outputs[v]["joined_neighbors"]:
            participate.append(False)
            active_sets.append(frozenset())
            continue
        # No neighbor of v joined, so every joiner v knows of is two hops
        # away.  A neighbor u is dominated iff some neighbor of u joined;
        # v knows N(u) (KT-2, read for all neighbors under one model
        # check) and every joiner within two hops of itself.
        knowledge = net.knowledge[v]
        joiners_2hop = frozenset(inform.outputs[v]["two_hop_joiners"])
        active = frozenset(compress(
            knowledge.neighbor_ids,
            map(joiners_2hop.isdisjoint, knowledge.neighbor_neighborhoods()),
        ))
        participate.append(True)
        active_sets.append(active)
        remnant_count += 1
        remnant_max_deg = max(remnant_max_deg, len(active))

    # Step 5: Luby on the remnant.
    luby = net.run(
        LubyMIS,
        inputs=[
            {"active": active_sets[v], "participate": participate[v]}
            for v in range(n)
        ],
        name=f"{name_prefix}-luby",
    )
    in_mis = []
    luby_joined = 0
    for v in range(n):
        if joined[v]:
            in_mis.append(True)
        elif participate[v] and luby.outputs[v]["in_mis"]:
            in_mis.append(True)
            luby_joined += 1
        else:
            in_mis.append(False)

    stage_messages = {
        "greedy": greedy.stats.messages,
        "inform": inform.stats.messages,
        "luby": luby.stats.messages,
    }
    return Algorithm3Result(
        in_mis=in_mis,
        sampled=sum(in_s),
        greedy_joined=sum(joined),
        luby_joined=luby_joined,
        remnant_size=remnant_count,
        remnant_max_degree_local=remnant_max_deg,
        messages=net.stats.messages - msgs_before,
        rounds=net.stats.rounds - rounds_before,
        stage_messages=stage_messages,
    )
