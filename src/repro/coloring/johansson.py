"""Johansson's randomized (deg+1)-list coloring [40].

The workhorse of Algorithm 1 (Steps 3 and 5): every still-uncolored node
repeatedly trials a uniform color from its current list; a trial sticks
iff no *undecided active neighbor* trialed the same color in the same
phase; decided colors are struck from neighboring lists.  With lists of
size >= (active degree + 1) a constant fraction of nodes succeeds per
phase, so O(log n) phases suffice whp.

The implementation runs in *lockstep by counting*, not by round parity:
each phase has a trial subphase and a resolve subphase, and a node enters
the next phase only after hearing a resolve from every neighbor it still
considers undecided.  Neighbors therefore never drift more than one phase
apart, and the protocol is insensitive to message delays — the same class
runs unchanged under link congestion and under the asynchronous engine /
alpha-synchronizer (Theorem 3.4).

Inputs per node (all locally derivable in Algorithm 1 from KT-1 plus the
shared random string):

* ``active``  — frozenset of neighbor IDs in this node's active subgraph
  (e.g. the same-B_i neighbors);
* ``palette`` — the node's current color list;
* ``participate`` — False for bystanders (they output None immediately).

Output: ``{"color": int}`` or ``{"deferred": True}`` — deferral happens
only if a node's list runs empty while neighbors are undecided, which the
partition properties rule out whp (tests assert it never fires on valid
inputs; Algorithm 1 folds any deferred node into the next-level remnant).
"""

from __future__ import annotations

from typing import Optional

from repro.congest.columnar import PhaseKernel, int_words, int_words_scalar
from repro.congest.node import ColumnarStage, Context, NodeAlgorithm
from repro.errors import ProtocolError

#: Palette entries the columnar kernel accepts: plain non-negative ints
#: comfortably inside int64 columns.  Anything else (huge ints, bools
#: masquerading as colors, exotic numerics) declines to the scalar path.
_MAX_KERNEL_COLOR = 1 << 40


class JohanssonListColoring(ColumnarStage, NodeAlgorithm):
    """One run of list coloring inside an active subgraph."""

    passive_when_idle = True

    def setup(self, ctx: Context) -> None:
        state = ctx.input or {}
        self.participate = state.get("participate", True)
        self.palette: set[int] = set(state.get("palette", ()))
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
        self.trial: Optional[int] = None
        self.resolved = True        # no resolve owed for a not-yet-begun phase
        self.color: Optional[int] = None
        self.deferred = False
        self.trials_seen: dict[int, dict] = {}
        self.resolves_seen: dict[int, dict] = {}

    # -- local decisions ---------------------------------------------------

    def _publish(self, ctx: Context) -> None:
        if not self.participate:
            ctx.done(None)
        elif self.deferred:
            ctx.done({"deferred": True})
        elif self.color is not None:
            ctx.done({"color": self.color})
        else:
            ctx.done(None)

    def _decided(self) -> bool:
        return self.color is not None or self.deferred

    def _begin_phase(self, ctx: Context) -> None:
        """Enter the current phase: trial, decide locally, or defer."""
        if len(self.palette) <= len(self.undecided):
            # The (deg+1)-list invariant |list| >= undecided + 1 has been
            # violated upstream (a whp-impossible failure of Lemma 3.1's
            # property (ii)).  Without it, progress is no longer
            # guaranteed — e.g. two neighbors sharing one singleton list
            # would conflict forever — so defer to the caller's remnant.
            self.deferred = True
            ctx.broadcast(self.undecided, "rd", self.phase)
            self._publish(ctx)
            return
        if not self.undecided:
            self.color = min(self.palette)
            self._publish(ctx)
            return
        choices = sorted(self.palette)
        self.trial = choices[ctx.rng.randrange(len(choices))]
        self.resolved = False
        ctx.broadcast(self.undecided, "trial", self.phase, self.trial)

    def _try_resolve(self, ctx: Context) -> bool:
        """Send this phase's resolve once every expected trial arrived.

        A deferring neighbor sends a resolve instead of a trial; either
        counts toward completeness.  The receive dicts may also hold
        senders this node does not count as undecided, so the tests are
        set algebra against ``undecided`` (C-level, on stored hashes),
        never a length comparison alone.
        """
        if self.resolved or self.trial is None:
            return False
        p = self.phase
        trials = self.trials_seen.get(p, {})
        resolves = self.resolves_seen.get(p, {})
        undecided = self.undecided
        if (len(trials) + len(resolves) < len(undecided)
                or undecided.difference(trials).difference(resolves)):
            return False
        trial = self.trial
        conflict = any(
            c == trial and u in undecided for u, c in trials.items()
        )
        self.resolved = True
        if conflict:
            ctx.broadcast(self.undecided, "rf", p)
        else:
            self.color = self.trial
            ctx.broadcast(self.undecided, "rc", p, self.trial)
            self._publish(ctx)
        return True

    def _try_advance(self, ctx: Context) -> bool:
        """Move to the next phase once every neighbor's resolve arrived."""
        if not self.resolved or self._decided():
            return False
        p = self.phase
        resolves = self.resolves_seen.get(p, {})
        undecided = self.undecided
        if len(resolves) < len(undecided) or undecided.difference(resolves):
            return False
        # In-place discards keep the survivors' iteration order.
        for u, (kind, value) in resolves.items():
            if kind != "failed" and u in undecided:
                undecided.discard(u)
                if kind == "colored":
                    self.palette.discard(value)
        self.trials_seen.pop(p, None)
        self.resolves_seen.pop(p, None)
        self.phase = p + 1
        self.trial = None
        return True

    def _pump(self, ctx: Context) -> None:
        """Run the state machine to a fixed point on buffered messages."""
        while not self._decided():
            if self._try_resolve(ctx):
                continue
            if self._try_advance(ctx):
                self._begin_phase(ctx)
                continue
            break

    # -- protocol ------------------------------------------------------------

    def on_round(self, ctx: Context, inbox) -> None:
        if not self.participate:
            if inbox:
                raise ProtocolError("bystander received a coloring message")
            self._publish(ctx)
            return
        for msg in inbox:
            if msg.tag == "trial":
                p, c = msg.fields
                self.trials_seen.setdefault(p, {})[msg.sender_id] = c
            elif msg.tag == "rf":
                (p,) = msg.fields
                self.resolves_seen.setdefault(p, {})[msg.sender_id] = (
                    "failed", None,
                )
            elif msg.tag == "rc":
                p, c = msg.fields
                self.resolves_seen.setdefault(p, {})[msg.sender_id] = (
                    "colored", c,
                )
            elif msg.tag == "rd":
                (p,) = msg.fields
                self.resolves_seen.setdefault(p, {})[msg.sender_id] = (
                    "deferred", None,
                )
        if ctx.round == 0:
            # Participants publish only on *decision* (color or defer):
            # an undecided node stays engine-unfinished, so a silence
            # cascade under faults is a starved casualty, never a stale
            # default output.
            self._begin_phase(ctx)
        if not self._decided():
            self._pump(ctx)

    # -- columnar engine (docs/columnar.md) ----------------------------------

    @classmethod
    def build_columnar_kernel(cls, net, algorithms, contexts):
        for alg in algorithms:
            if alg.participate and any(
                type(c) is not int or c < 0 or c >= _MAX_KERNEL_COLOR
                for c in alg.palette
            ):
                return None
        return _JohanssonKernel.build(net, algorithms, contexts)


class _JohanssonKernel(PhaseKernel):
    """Vectorized Johansson phases over node-state columns.

    Palettes stay the algorithms' own Python sets (sorted-and-drawn in a
    per-node loop at phase boundaries, mirroring the scalar RNG use
    exactly); the per-round message grind — conflict detection and
    resolve bookkeeping over every active edge — runs as array ops.
    """

    class Bank:
        """Per-phase receive bank, slot-indexed like the Luby bank.

        ``cnt_any`` counts trial-or-defer arrivals (each undecided
        neighbor sends exactly one of the two per phase — the
        completeness test of ``_try_resolve``); ``cnt_res`` counts
        resolves (rf/rc/rd)."""

        __slots__ = ("cnt_any", "cnt_res", "got", "tval", "kind", "rval")

        def __init__(self, np_, n: int, num_edges: int):
            self.cnt_any = np_.zeros(n, dtype=np_.int64)
            self.cnt_res = np_.zeros(n, dtype=np_.int64)
            self.got = np_.zeros(num_edges, dtype=bool)
            self.tval = np_.zeros(num_edges, dtype=np_.int64)
            #: 0 = nothing, 1 = rf (failed), 2 = rc (colored), 3 = rd
            #: (deferred) — rc/rd remove the neighbor at advance, rf
            #: keeps it.
            self.kind = np_.zeros(num_edges, dtype=np_.int8)
            self.rval = np_.zeros(num_edges, dtype=np_.int64)

    def __init__(self, np_, net, graph, algorithms, contexts):
        super().__init__(np_, net, graph, algorithms, contexts)
        self.trial = np_.full(self.n, -1, dtype=np_.int64)
        self.resolved = np_.ones(self.n, dtype=bool)

    def _begin(self, p, nodes):
        """Scalar-identical phase entry, in the scalar's branch order:
        defer first (palette invariant broken), trivial color second
        (no undecided neighbors), otherwise draw and broadcast a trial."""
        np_ = self.np
        needed = self.graph.needed
        contexts = self.contexts
        deferred = []
        starters = []
        for v in nodes:
            palette = self.algorithms[v].palette
            if len(palette) <= needed[v]:
                deferred.append(v)
                contexts[v].done({"deferred": True})
                self.live[v] = False
            elif needed[v] == 0:
                contexts[v].done({"color": min(palette)})
                self.live[v] = False
            else:
                choices = sorted(palette)
                self.trial[v] = choices[
                    contexts[v].rng.randrange(len(choices))
                ]
                self.resolved[v] = False
                starters.append(v)
        batches = []
        pw = int_words_scalar(p, self.word_bits)
        if deferred:
            batch = self._emit(
                "rd", p, np_.asarray(deferred, dtype=np_.int64), 0, pw
            )
            if len(batch.eids):
                batches.append(batch)
        if starters:
            sa = np_.asarray(starters, dtype=np_.int64)
            words = pw + int_words(np_, self.trial[sa], self.word_bits)
            batches.append(self._emit("trial", p, sa, self.trial[sa], words))
        return batches

    def _file(self, bank, tag, slots, values, counts):
        if tag == "trial":
            bank.got[slots] = True
            bank.tval[slots] = values
            bank.cnt_any += counts
        elif tag == "rf":
            bank.kind[slots] = 1
            bank.cnt_res += counts
        elif tag == "rc":
            bank.kind[slots] = 2
            bank.rval[slots] = values
            bank.cnt_res += counts
        else:  # rd — a deferral counts as trial AND resolve
            bank.kind[slots] = 3
            bank.cnt_any += counts
            bank.cnt_res += counts

    def _steps(self, p, bank, nodes, out):
        """Resolve -> strike, the scalar ``_try_resolve``/``_try_advance``
        in that order."""
        np_ = self.np
        needed = self.graph.needed
        pw = int_words_scalar(p, self.word_bits)
        # -- resolve: every neighbor trialed or deferred -------------------
        rn = nodes[
            ~self.resolved[nodes] & (bank.cnt_any[nodes] == needed[nodes])
        ]
        if rn.size:
            slots, owners = self._live_slots(rn)
            hits = bank.got[slots] & (
                bank.tval[slots] == self.trial[rn][owners]
            )
            conflicted = np_.bincount(owners[hits], minlength=len(rn)) > 0
            self.resolved[rn] = True
            fails = rn[conflicted]
            colors = rn[~conflicted]
            if fails.size:
                out.append(self._emit("rf", p, fails, 0, pw))
            if colors.size:
                cvals = self.trial[colors]
                out.append(self._emit(
                    "rc", p, colors, cvals,
                    pw + int_words(np_, cvals, self.word_bits),
                ))
                for v, c in zip(colors.tolist(), cvals.tolist()):
                    self.contexts[v].done({"color": int(c)})
                self.live[colors] = False
        # -- strike: every neighbor's resolve arrived ----------------------
        an = nodes[
            self.resolved[nodes]
            & self.live[nodes]
            & (bank.cnt_res[nodes] == needed[nodes])
        ]
        if an.size:
            slots, owners = self._live_slots(an)
            kinds = bank.kind[slots]
            struck = kinds == 2
            if struck.any():
                algorithms = self.algorithms
                for v, c in zip(an[owners[struck]].tolist(),
                                bank.rval[slots[struck]].tolist()):
                    algorithms[v].palette.discard(c)
            self._retire(an, slots, owners, kinds >= 2)
            self.trial[an] = -1
        return an


def johansson_color(net, active_sets, palettes, participate=None,
                    name: str = "johansson"):
    """Driver: run one list-coloring stage.

    ``active_sets[v]`` / ``palettes[v]`` follow the class docstring;
    ``participate`` defaults to all-True.  Returns the StageResult.
    """
    n = net.graph.n
    if participate is None:
        participate = [True] * n
    inputs = [
        {
            "active": active_sets[v],
            "palette": frozenset(palettes[v]),
            "participate": participate[v],
        }
        for v in range(n)
    ]
    return net.run(JohanssonListColoring, inputs=inputs, name=name)
