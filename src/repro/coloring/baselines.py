"""Baseline coloring algorithms: the Ω(m)-message state of the art.

Two baselines, matching the two roles baselines play in the paper:

* :class:`FullExchangeTrialColoring` — the standard randomized
  (Δ+1)-coloring (Johansson over the whole graph, exchanging trial and
  resolution messages with *every* neighbor): Õ(m) messages.  This is
  the "all known algorithms use Ω(m) messages" row of Figure 1 and the
  comparator for the o(m) claims of Theorems 3.3/3.8.
* :class:`RankGreedyColoring` — a deterministic *comparison-based*
  coloring (IDs only compared): uncolored local ID-maxima pick the
  smallest free color and announce it.  Correct on every graph, utilizes
  every edge — the behavior Theorem 2.10 proves unavoidable for
  comparison-based algorithms.
"""

from __future__ import annotations

from typing import Optional

from repro.congest.node import Context, NodeAlgorithm
from repro.coloring.johansson import JohanssonListColoring


class FullExchangeTrialColoring(JohanssonListColoring):
    """Johansson on the full graph with palette {0..deg(v)}.

    Exactly the classical algorithm: active set = all neighbors, list =
    deg+1 colors; Õ(m) messages, O(log n) phases whp.
    """

    def setup(self, ctx: Context) -> None:
        ctx.input = {
            "active": None,     # the whole neighborhood
            "palette": frozenset(range(ctx.degree + 1)),
            "participate": True,
        }
        super().setup(ctx)


class RankGreedyColoring(NodeAlgorithm):
    """Deterministic comparison-based greedy coloring by ID rank.

    Round 0 every node announces itself implicitly; a node colors itself
    once every uncolored neighbor has a smaller ID, choosing the least
    color not announced by any neighbor, then announces the color to all
    neighbors.  Message cost: one announcement per edge direction = 2m,
    plus nothing else — Θ(m), and every edge is utilized.
    """

    passive_when_idle = True

    def setup(self, ctx: Context) -> None:
        self.uncolored_above = {
            u for u in ctx.neighbor_ids if u > ctx.my_id
        }
        self.taken: set[int] = set()
        self.color: Optional[int] = None

    def _try_color(self, ctx: Context) -> None:
        if self.color is not None or self.uncolored_above:
            return
        c = 0
        while c in self.taken:
            c += 1
        self.color = c
        ctx.broadcast(ctx.neighbor_ids, "colored", c)
        ctx.done({"color": c})

    def on_round(self, ctx: Context, inbox) -> None:
        for msg in inbox:
            (c,) = msg.fields
            self.taken.add(c)
            self.uncolored_above.discard(msg.sender_id)
        # done() fires only in _try_color (publish on decision): an
        # uncolored node stays engine-unfinished, so losing its wake-up
        # message under faults starves it instead of freezing a None.
        self._try_color(ctx)


#: The baseline node programs by kind.
_BASELINES = {"trial": FullExchangeTrialColoring,
              "rank-greedy": RankGreedyColoring}


def run_baseline_coloring(net, kind: str = "trial", name: str = "baseline"):
    """Driver for the baselines; returns (colors, StageResult)."""
    if kind not in _BASELINES:
        raise ValueError(f"unknown baseline {kind!r}")
    stage = net.run(_BASELINES[kind], name=name)
    colors = [
        out["color"] if out else None for out in stage.outputs
    ]
    return colors, stage
