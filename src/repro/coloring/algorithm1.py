"""Algorithm 1: (Δ+1)-list-coloring in KT-1 CONGEST with Õ(n^1.5) messages.

Paper Section 3.1 / Theorem 3.3.  Pipeline (each step a protocol stage):

1. Build a danner with δ = 1/2, elect a leader, and have it broadcast a
   shared random string R of Θ(log² n) bits (Corollary 1.2).
2. Every node locally derives the level-0 hash functions (h_L, h, h_c)
   from R.  *The KT-1 trick*: a node evaluates the hashes on its
   neighbors' IDs too, so partition membership of every neighbor — and
   hence which incident edges are active — is known without any of Chang
   et al.'s state-exchange messages.
3. Color every B_i in parallel with Johansson's list coloring, talking
   only over E(G[B_i]) (Property (i): O(n) edges per part).
4. Check |E(G[L])| by upcast over the danner tree; if it is Õ(n), color
   G[L] directly with Johansson; otherwise recurse on L with the same
   parameter n (Lemma 3.2: O(1) levels whp).

Between levels, nodes that just got colored send their final color once
to each neighbor that remains in the remnant (again locally identified by
hashing) — the Õ(q·m) = o(m) list-maintenance term discussed in
DESIGN.md.  A node whose part-list goes empty (a whp-impossible failure
of Lemma 3.1's property (ii)) *defers*: it announces itself and is folded
into the remnant, keeping the algorithm always-correct.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Optional

from repro.congest.node import Context, NodeAlgorithm
from repro.coloring import partition as P
from repro.coloring.johansson import JohanssonListColoring
from repro.errors import ProtocolError, ReproError
from repro.substrates.danner import build_danner, share_random_bits
from repro.substrates.flooding import TreeAggregate


class NotifyStage(NodeAlgorithm):
    """Inter-level palette maintenance.

    Nodes colored at the level just finished send their color once to
    every remnant neighbor; nodes that deferred announce themselves to all
    neighbors (a rare event), and colored-this-level nodes answer such
    announcements with their color so no strike is missed.  The output,
    ``{"struck": [...], "extras": [...]}``, is published once: its two
    lists grow in place as colors and deferral notices arrive.
    """

    passive_when_idle = True

    def setup(self, ctx: Context) -> None:
        state = ctx.input or {}
        self.role = state.get("role", "idle")
        self.color = state.get("color")
        self.targets = state.get("targets", ())
        self.struck: list[int] = []
        self.extras: list = []

    def on_round(self, ctx: Context, inbox) -> None:
        if ctx.round == 0:
            if self.role == "colored":
                ctx.broadcast(self.targets, "color", self.color)
            elif self.role == "deferred":
                ctx.broadcast(ctx.neighbor_ids, "deferred")
        deferrers = len(self.extras)
        for msg in inbox:
            if msg.tag == "color":
                (c,) = msg.fields
                self.struck.append(c)
            elif msg.tag == "deferred":
                self.extras.append(msg.sender_id)
        if self.role == "colored" and len(self.extras) > deferrers:
            # One reply fan-out to this round's deferrers, in inbox order.
            ctx.broadcast(self.extras[deferrers:], "color", self.color)
        if not ctx.finished:
            ctx.done({"struck": self.struck, "extras": self.extras})


@dataclass
class LevelReport:
    """Diagnostics for one recursion level."""

    level: int
    remnant_size: int
    remnant_edges: int
    remnant_max_degree: int
    k: int
    q: float
    colored: int
    deferred: int
    base_case: bool


@dataclass
class Algorithm1Result:
    colors: list[Optional[int]]
    levels: list[LevelReport] = field(default_factory=list)
    deferred_total: int = 0
    messages: int = 0
    rounds: int = 0
    danner_edges: int = 0
    random_bits: int = 0

    @property
    def num_levels(self) -> int:
        return len(self.levels)


#: Sort key putting IDs in value order (the notify wave's target order).
_by_value = operator.attrgetter("_value")


def _tuple_combine(a, b):
    return (a[0] + b[0], max(a[1], b[1]))


def run_algorithm1(
    net,
    seed=0,
    delta: float = 0.5,
    base_edge_factor: Optional[float] = None,
    small_degree_threshold: Optional[int] = None,
    max_levels: int = 8,
    independence_constant: float = 1.0,
    name_prefix: str = "alg1",
) -> Algorithm1Result:
    """Run Algorithm 1 on a connected KT-1 network (non-comparison-based).

    Produces a proper coloring where vertex v's color lies in
    {0, ..., deg(v)} ⊆ {0, ..., Δ} — i.e. a (Δ+1)-coloring realized as
    (deg+1)-list-coloring, exactly the paper's setting.
    """
    if max_levels < 1:
        raise ReproError(
            f"max_levels must be at least 1 (got {max_levels!r}): "
            "Algorithm 1 needs a level to color anything"
        )
    if net.comparison_based:
        raise ProtocolError(
            "Algorithm 1 is non-comparison-based (it hashes IDs); "
            "run it on a network with comparison_based=False"
        )
    n = net.graph.n
    graph = net.graph
    id_space = net.assignment.space_bound()
    msgs_before = net.stats.messages
    rounds_before = net.stats.rounds
    log2n = max(n, 2).bit_length()
    if base_edge_factor is None:
        # Base case at |E(G[L])| = Õ(n) (Step 4 of Algorithm 1).
        base_edge_factor = float(max(2, log2n))
    if small_degree_threshold is None:
        # Partitioning pays off only for Delta = omega(log^2 n) (Lemma 3.1).
        small_degree_threshold = max(8, log2n * log2n)

    # Step 1: danner and leader.  The shared random string is broadcast
    # per recursion level (each level is a fresh invocation of Step 1's
    # broadcast in the paper's recursion), so only O(1) levels' worth of
    # bits ever crosses the wire (Lemma 3.2).
    danner = build_danner(net, delta=delta, seed=seed,
                          name_prefix=f"{name_prefix}-danner")
    bits_one_level = P.bits_per_level(n, id_space, independence_constant)
    total_bits = 0
    tree_inputs = danner.tree_inputs()

    # Per-node local state (driver-held, node-local information only).
    topology = net.topology
    ids = topology.id_of
    neighborhood = topology.neighborhood
    colors: list[Optional[int]] = [None] * n
    palettes: list[set[int]] = [
        set(range(graph.degree(v) + 1)) for v in range(n)
    ]
    deferred = [False] * n
    extras: list[set] = [set() for _ in range(n)]

    reports: list[LevelReport] = []
    deferred_total = 0

    # The KT-1 trick as set algebra.  A level's hashes are frozen once
    # the shared string R is drawn, so whether an ID is a remnant member
    # (or which part B_i it joins) is a pure function of the ID value
    # (Lemmas 3.1-3.2).  Every node can evaluate the shared hashes on any
    # ID it knows under KT-1 — its own and its neighbors' — at zero
    # message cost.  So the driver evaluates each hash once per ID per
    # level, keeps the answers as frozensets of IDs, and lets each node
    # intersect them with its own neighbor-ID set: the intersection is
    # exactly the filter the node would run over its neighbors, i.e.
    # still node-local computation.  remnant_ids[upto + 1] holds the IDs
    # that are L-members at every level <= upto (all IDs for upto = -1).
    # Memoizing a pure function changes no decision and no count.
    remnant_ids: list[frozenset] = [frozenset(ids)]

    def in_remnant(v: int, upto: int) -> bool:
        if colors[v] is not None:
            return False
        if deferred[v]:
            return True
        return ids[v] in remnant_ids[upto + 1]

    def remnant_neighbor_ids(v: int, upto: int) -> frozenset:
        """Neighbors of v that are remnant members (hash + learned extras)."""
        nbrs = neighborhood(v)
        found = nbrs & remnant_ids[upto + 1]
        if extras[v]:
            found |= nbrs & extras[v]
        return found

    for level in range(max_levels):
        upto_prev = level - 1
        # -- measure the remnant over the danner tree -----------------------
        measure_inputs = []
        for v in range(n):
            if in_remnant(v, upto_prev):
                rd = len(remnant_neighbor_ids(v, upto_prev))
                measure_inputs.append({**tree_inputs[v], "value": (rd, rd)})
            else:
                measure_inputs.append({**tree_inputs[v], "value": (0, 0)})
        measure = net.run(
            lambda: TreeAggregate(combine=_tuple_combine),
            inputs=measure_inputs,
            name=f"{name_prefix}-measure-{level}",
        )
        total_deg, max_deg = measure.outputs[danner.leader_vertex]
        rem_edges = total_deg // 2
        rem_vertices = [v for v in range(n) if in_remnant(v, upto_prev)]

        base_case = (
            rem_edges <= base_edge_factor * n
            or max_deg <= small_degree_threshold
            or level == max_levels - 1
        )
        if not rem_vertices:
            reports.append(LevelReport(level, 0, 0, 0, 0, 0.0, 0, 0, True))
            break

        if base_case:
            active = [
                remnant_neighbor_ids(v, upto_prev) if in_remnant(v, upto_prev)
                else frozenset()
                for v in range(n)
            ]
            stage = net.run(
                lambda: JohanssonListColoring(),
                inputs=[
                    {
                        "active": active[v],
                        "palette": frozenset(palettes[v]),
                        "participate": in_remnant(v, upto_prev),
                    }
                    for v in range(n)
                ],
                name=f"{name_prefix}-base-{level}",
            )
            colored_now = 0
            for v, out in enumerate(stage.outputs):
                if out and out.get("color") is not None:
                    colors[v] = out["color"]
                    colored_now += 1
                elif out and out.get("deferred"):
                    raise ProtocolError(
                        "deferral in the base case: (deg+1)-list invariant "
                        "broken"
                    )
            reports.append(LevelReport(
                level, len(rem_vertices), rem_edges, max_deg, 0, 0.0,
                colored_now, 0, True,
            ))
            break

        # -- partition level -------------------------------------------------
        q = P.level_q(n, max_deg)
        k = P.level_k(max_deg)
        bits = share_random_bits(
            net, danner, bits_one_level, name=f"{name_prefix}-bits-{level}"
        )
        total_bits += bits_one_level
        hashes = P.derive_level_hashes(
            bits, 0, n, id_space, independence_constant
        )

        # This level's hashes, once per remnant ID and once per color:
        # each ID's part (L or B_i), each B_i as an ID set, the next
        # level's remnant, and the color parts C_i over every palette.
        part_of = {
            u: P.member_part(hashes, u.value, q, k)
            for u in remnant_ids[level]
        }
        members: list[list] = [[] for _ in range(k)]
        next_remnant = []
        for u, part in part_of.items():
            if part == P.L_PART:
                next_remnant.append(u)
            else:
                members[part].append(u)
        part_ids = [frozenset(m) for m in members]
        remnant_ids.append(frozenset(next_remnant))
        color_parts = P.color_parts(hashes, graph.max_degree() + 1, k)

        participates = []
        active_sets = []
        part_palettes = []
        for v in range(n):
            part = (
                part_of[ids[v]]
                if (in_remnant(v, upto_prev) and not deferred[v])
                else P.L_PART
            )
            if part == P.L_PART:
                participates.append(False)
                active_sets.append(frozenset())
                part_palettes.append(frozenset())
                continue
            participates.append(True)
            active_sets.append((neighborhood(v) & part_ids[part]) - extras[v])
            part_palettes.append(color_parts[part].intersection(palettes[v]))
        stage = net.run(
            lambda: JohanssonListColoring(),
            inputs=[
                {
                    "active": active_sets[v],
                    "palette": part_palettes[v],
                    "participate": participates[v],
                }
                for v in range(n)
            ],
            name=f"{name_prefix}-color-{level}",
        )
        colored_now = 0
        deferred_now = 0
        notify_inputs = []
        for v, out in enumerate(stage.outputs):
            role = "idle"
            color = None
            targets: frozenset = frozenset()
            if out and out.get("color") is not None:
                colors[v] = out["color"]
                colored_now += 1
                role = "colored"
                color = colors[v]
                targets = remnant_neighbor_ids(v, level)
            elif out and out.get("deferred"):
                deferred[v] = True
                deferred_now += 1
                deferred_total += 1
                role = "deferred"
            notify_inputs.append({
                "role": role, "color": color,
                "targets": tuple(sorted(targets, key=_by_value)),
            })
        notify = net.run(
            NotifyStage,
            inputs=notify_inputs,
            name=f"{name_prefix}-notify-{level}",
        )
        for v, out in enumerate(notify.outputs):
            if colors[v] is None:
                for c in out["struck"]:
                    palettes[v].discard(c)
            for u_id in out["extras"]:
                extras[v].add(u_id)
        reports.append(LevelReport(
            level, len(rem_vertices), rem_edges, max_deg, k, q,
            colored_now, deferred_now, False,
        ))

    return Algorithm1Result(
        colors=colors,
        levels=reports,
        deferred_total=deferred_total,
        messages=net.stats.messages - msgs_before,
        rounds=net.stats.rounds - rounds_before,
        danner_edges=danner.edge_count(net),
        random_bits=total_bits,
    )
