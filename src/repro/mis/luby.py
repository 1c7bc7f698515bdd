"""Luby's MIS [26] — the Õ(m)-message KT-1 baseline of Figure 1.

Classic phase structure, implemented in the same count-based lockstep
style as the Johansson coloring so it tolerates link congestion and
asynchrony: in every phase each undecided node draws a random priority
and exchanges it with its undecided active neighbors (subphase A); local
maxima join the MIS and everyone reports joined/not (subphase B); nodes
adjacent to a joiner retire and everyone reports retired/alive (subphase
C).  Each phase kills a constant fraction of edges in expectation, so
O(log n) phases suffice whp — message complexity Θ(m log n), the Ω(m)
bound the paper's Algorithm 3 undercuts.

Priorities are random *ordinary* values and IDs are only compared for
tie-breaking, so the algorithm is comparison-based — matching Figure 1's
"(C)" classification of the Õ(m) KT-1 MIS upper bound.  It also serves
as the remnant-graph finisher inside Algorithm 3 (Step 5), where the
``active`` input restricts it to remnant edges.
"""

from __future__ import annotations

from typing import Optional

from repro.congest.columnar import PhaseKernel, int_words, int_words_scalar
from repro.congest.node import ColumnarStage, Context, NodeAlgorithm


class LubyMIS(ColumnarStage, NodeAlgorithm):
    """One Luby run inside an (optional) active subgraph.

    Input (or None for whole-graph defaults):
      ``{"active": frozenset of neighbor IDs, "participate": bool}``
    Output: ``{"in_mis": bool}`` (None for bystanders).
    """

    passive_when_idle = True

    def setup(self, ctx: Context) -> None:
        state = ctx.input or {}
        self.participate = state.get("participate", True)
        active = state.get("active")
        # Built in ``neighbor_ids`` order either way: the set's iteration
        # order is the order of every broadcast below.
        if active is None:
            self.undecided = set(ctx.neighbor_ids)
        elif active:
            self.undecided = set(filter(active.__contains__,
                                          ctx.neighbor_ids))
        else:
            self.undecided = set()
        self.phase = 0
        self.priority: Optional[int] = None
        self.state: Optional[str] = None      # None / "joined" / "out"
        self.prios: dict[int, dict] = {}
        self.joins: dict[int, dict] = {}
        self.fates: dict[int, dict] = {}

    def _publish(self, ctx: Context) -> None:
        if not self.participate:
            ctx.done(None)
        else:
            ctx.done({"in_mis": self.state == "joined"})

    # -- phase machinery -----------------------------------------------------

    def _begin_phase(self, ctx: Context) -> None:
        if not self.undecided:
            self.state = "joined"
            self._publish(ctx)
            return
        self.priority = ctx.rng.randrange(max(ctx.n, 2) ** 3)
        ctx.broadcast(self.undecided, "prio", self.phase, self.priority)
        self.sent_join = False
        self.sent_fate = False

    # The receive dicts may hold senders this node does not count as
    # undecided (asymmetric active sets), so each completeness test is a
    # length check plus set algebra against ``undecided`` (C-level, on
    # stored hashes), and each scan walks a dict and tests membership in
    # ``undecided`` only for the entries that could decide it.

    def _try_join(self, ctx: Context) -> bool:
        if self.sent_join:
            return False
        p = self.phase
        prios = self.prios.get(p, {})
        undecided = self.undecided
        if len(prios) < len(undecided) or undecided.difference(prios):
            return False
        mine = self.priority
        me = (mine, ctx.my_id)
        # A lower priority loses to me whatever its ID.
        wins = not any(
            pr >= mine and not me > (pr, u) and u in undecided
            for u, pr in prios.items()
        )
        self.sent_join = True
        self.joined_now = wins
        ctx.broadcast(self.undecided, "join", p, wins)
        return True

    def _try_fate(self, ctx: Context) -> bool:
        if self.sent_fate or not self.sent_join:
            return False
        p = self.phase
        joins = self.joins.get(p, {})
        undecided = self.undecided
        if len(joins) < len(undecided) or undecided.difference(joins):
            return False
        retired = any(j and u in undecided for u, j in joins.items())
        self.sent_fate = True
        if self.joined_now:
            self.state = "joined"
        elif retired:
            self.state = "out"
        ctx.broadcast(self.undecided, "fate", p, self.state is not None)
        if self.state is not None:
            self._publish(ctx)
        return True

    def _try_advance(self, ctx: Context) -> bool:
        if not self.sent_fate or self.state is not None:
            return False
        p = self.phase
        fates = self.fates.get(p, {})
        undecided = self.undecided
        if len(fates) < len(undecided) or undecided.difference(fates):
            return False
        # A same-order rebuild, as every earlier phase made it.
        self.undecided = {u for u in undecided if not fates[u]}
        for store in (self.prios, self.joins, self.fates):
            store.pop(p, None)
        self.phase = p + 1
        return True

    def _pump(self, ctx: Context) -> None:
        while self.state is None:
            if self._try_join(ctx):
                continue
            if self._try_fate(ctx):
                continue
            if self._try_advance(ctx):
                self._begin_phase(ctx)
                continue
            break

    def on_round(self, ctx: Context, inbox) -> None:
        if not self.participate:
            self._publish(ctx)
            return
        for msg in inbox:
            p = msg.fields[0]
            if msg.tag == "prio":
                self.prios.setdefault(p, {})[msg.sender_id] = msg.fields[1]
            elif msg.tag == "join":
                self.joins.setdefault(p, {})[msg.sender_id] = msg.fields[1]
            elif msg.tag == "fate":
                self.fates.setdefault(p, {})[msg.sender_id] = msg.fields[1]
        if ctx.round == 0:
            # Participants publish only on *decision* (_begin_phase's
            # trivial join, or _try_fate): an undecided node stays
            # engine-unfinished, so a silence cascade under faults shows
            # up as a starved casualty instead of a default output.
            self._begin_phase(ctx)
        if self.state is None:
            self._pump(ctx)

    # -- columnar engine (docs/columnar.md) ----------------------------------

    @classmethod
    def build_columnar_kernel(cls, net, algorithms, contexts):
        return _LubyKernel.build(net, algorithms, contexts)


class _LubyKernel(PhaseKernel):
    """Vectorized Luby phases over node-state columns.

    One Python loop per phase boundary (the per-node RNG draws — each
    node's private stream must advance exactly as the scalar code
    advances it); everything else is array operations.  The lexicographic
    winner test ``(priority, my_id) > (priority_u, u)`` collapses to one
    int64 comparison via the combined key ``priority * n + id_rank``
    (ranks are distinct, priorities < max(n,2)^3, so keys fit comfortably
    under the scheduler's n^2 <= 2^21 array gate).
    """

    class Bank:
        """Per-phase receive bank, indexed by the receiver's out-edge slot
        (the reverse-edge involution makes each receiver's block
        contiguous)."""

        __slots__ = ("cnt_prio", "cnt_join", "cnt_fate", "pval", "jval",
                     "kill")

        def __init__(self, np_, n: int, num_edges: int):
            self.cnt_prio = np_.zeros(n, dtype=np_.int64)
            self.cnt_join = np_.zeros(n, dtype=np_.int64)
            self.cnt_fate = np_.zeros(n, dtype=np_.int64)
            self.pval = np_.full(num_edges, -1, dtype=np_.int64)
            self.jval = np_.zeros(num_edges, dtype=np_.int64)
            self.kill = np_.zeros(num_edges, dtype=bool)

    def __init__(self, np_, net, graph, algorithms, contexts):
        super().__init__(np_, net, graph, algorithms, contexts)
        n = self.n
        self.space = max(contexts[0].n, 2) ** 3 if n else 8
        values = np_.asarray(net.topology.values, dtype=np_.int64)
        self.rank = np_.empty(n, dtype=np_.int64)
        self.rank[np_.argsort(values)] = np_.arange(n, dtype=np_.int64)
        self.key = np_.zeros(n, dtype=np_.int64)
        self.priority = np_.zeros(n, dtype=np_.int64)
        self.sent_join = np_.zeros(n, dtype=bool)
        self.sent_fate = np_.zeros(n, dtype=bool)
        self.joined_now = np_.zeros(n, dtype=bool)

    def _begin(self, p, nodes):
        """Scalar-identical phase entry: trivially-joined nodes decide
        (no draw), the rest draw a priority and broadcast it."""
        np_ = self.np
        needed = self.graph.needed
        contexts = self.contexts
        starters = []
        for v in nodes:
            if needed[v] == 0:
                contexts[v].done({"in_mis": True})
                self.live[v] = False
            else:
                self.priority[v] = contexts[v].rng.randrange(self.space)
                starters.append(v)
        if not starters:
            return []
        sa = np_.asarray(starters, dtype=np_.int64)
        self.key[sa] = self.priority[sa] * self.n + self.rank[sa]
        words = (
            int_words_scalar(p, self.word_bits)
            + int_words(np_, self.priority[sa], self.word_bits)
        )
        return [self._emit("prio", p, sa, self.key[sa], words)]

    def _file(self, bank, tag, slots, values, counts):
        if tag == "prio":
            bank.pval[slots] = values
            bank.cnt_prio += counts
        elif tag == "join":
            bank.jval[slots] = values
            bank.cnt_join += counts
        else:  # fate
            bank.kill[slots] = values.astype(bool)
            bank.cnt_fate += counts

    def _steps(self, p, bank, nodes, out):
        """Join -> fate -> kill, the scalar ``_try_join``/``_try_fate``/
        ``_try_advance`` in that order."""
        np_ = self.np
        needed = self.graph.needed
        words = int_words_scalar(p, self.word_bits) + 1
        # -- join: all priorities of this phase are in -----------------
        jn = nodes[
            ~self.sent_join[nodes] & (bank.cnt_prio[nodes] == needed[nodes])
        ]
        if jn.size:
            wins = self.key[jn] > self._block_max(bank.pval, jn)
            self.joined_now[jn] = wins
            self.sent_join[jn] = True
            out.append(self._emit("join", p, jn, wins.astype(np_.int64),
                                  words))
        # -- fate: all join votes are in -------------------------------
        fn = nodes[
            self.sent_join[nodes]
            & ~self.sent_fate[nodes]
            & (bank.cnt_join[nodes] == needed[nodes])
        ]
        if fn.size:
            retired = self._block_max(bank.jval, fn) > 0
            joined = self.joined_now[fn]
            decided = joined | retired
            self.sent_fate[fn] = True
            out.append(self._emit("fate", p, fn, decided.astype(np_.int64),
                                  words))
            for v, won in zip(fn[decided].tolist(),
                              joined[decided].tolist()):
                self.contexts[v].done({"in_mis": won})
            self.live[fn[decided]] = False
        # -- kill: all fates are in, decided neighbors leave -----------
        an = nodes[
            self.sent_fate[nodes]
            & self.live[nodes]
            & (bank.cnt_fate[nodes] == needed[nodes])
        ]
        if an.size:
            slots, owners = self._live_slots(an)
            self._retire(an, slots, owners, bank.kill[slots])
            self.sent_join[an] = False
            self.sent_fate[an] = False
        return an


def run_luby(net, active_sets=None, participate=None, name: str = "luby"):
    """Driver: run Luby to completion; returns (in_mis list, StageResult).

    Bystanders (participate=False) yield in_mis=False.
    """
    n = net.graph.n
    if active_sets is None:
        active_sets = [None] * n
    if participate is None:
        participate = [True] * n
    inputs = [
        {"active": active_sets[v], "participate": participate[v]}
        for v in range(n)
    ]
    stage = net.run(LubyMIS, inputs=inputs, name=name)
    in_mis = [
        bool(out and out.get("in_mis")) for out in stage.outputs
    ]
    return in_mis, stage
