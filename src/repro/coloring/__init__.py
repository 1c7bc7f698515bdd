"""Coloring algorithms: the paper's KT-1 upper bounds plus baselines.

* :mod:`repro.coloring.johansson` — Johansson's randomized (deg+1)-list
  coloring [40], run inside arbitrary active subgraphs (Steps 3/5 of
  Algorithm 1).
* :mod:`repro.coloring.partition` — the Chang et al. [7] vertex/palette
  partition driven by O(log n)-wise independent hash functions derived
  from the shared random string (Lemma 3.1).
* :mod:`repro.coloring.algorithm1` — **Algorithm 1**: (Δ+1)-list-coloring
  in KT-1 CONGEST with Õ(n^1.5) messages (Theorem 3.3).
* :mod:`repro.coloring.algorithm2` — **Algorithm 2**: (1+ε)Δ-coloring
  with Õ(n/ε²) messages (Theorem 3.8).
* :mod:`repro.coloring.baselines` — Ω(m)-message baselines: the standard
  full-exchange trial coloring and a comparison-based rank-greedy
  coloring (used by the lower-bound experiments).
* :mod:`repro.coloring.verify` — output verifiers.
"""

from repro.coloring.verify import (
    check_proper_coloring,
    check_color_bound,
    coloring_violations,
    count_colors,
)
from repro.coloring.johansson import JohanssonListColoring, johansson_color
from repro.coloring.partition import (
    PART_RANGE,
    LevelHashes,
    bits_per_level,
    derive_level_hashes,
    level_k,
    level_q,
    is_l_member,
    part_index,
    color_part,
    color_parts,
    compute_partition,
    partition_properties,
)
from repro.coloring.algorithm1 import Algorithm1Result, run_algorithm1
from repro.coloring.algorithm2 import Algorithm2Result, run_algorithm2
from repro.coloring.baselines import (
    FullExchangeTrialColoring,
    RankGreedyColoring,
    run_baseline_coloring,
)

__all__ = [
    "check_proper_coloring",
    "check_color_bound",
    "coloring_violations",
    "count_colors",
    "JohanssonListColoring",
    "johansson_color",
    "PART_RANGE",
    "LevelHashes",
    "bits_per_level",
    "derive_level_hashes",
    "level_k",
    "level_q",
    "is_l_member",
    "part_index",
    "color_part",
    "color_parts",
    "compute_partition",
    "partition_properties",
    "Algorithm1Result",
    "run_algorithm1",
    "Algorithm2Result",
    "run_algorithm2",
    "FullExchangeTrialColoring",
    "RankGreedyColoring",
    "run_baseline_coloring",
]
