"""repro — executable reproduction of PODC 2021's
"Can We Break Symmetry with o(m) Communication?"
(Pai, Pandurangan, Pemmaraju, Robinson; arXiv:2105.08917).

The package provides:

* a message-counting KT-rho CONGEST simulator (synchronous and
  asynchronous) with utilized-edge tracking and a machine-checked
  comparison-based discipline (:mod:`repro.congest`);
* the substrates the paper builds on — XOR-sketch spanning trees, the
  danner, leader election, broadcast (:mod:`repro.substrates`);
* the paper's three algorithms — Algorithm 1 (KT-1 (Δ+1)-coloring,
  Õ(n^1.5) messages), Algorithm 2 (KT-1 (1+ε)Δ-coloring, Õ(n/ε²)
  messages), Algorithm 3 (KT-2 MIS, Õ(n^1.5) messages) — plus the Ω(m)
  baselines (:mod:`repro.coloring`, :mod:`repro.mis`);
* the lower-bound constructions and experiments of Section 2
  (:mod:`repro.lowerbounds`);
* a one-call facade (:mod:`repro.api`);
* a parallel, resumable experiment-sweep subsystem for the scaling
  claims — declarative family x n x seed x method matrices, supervised
  warm child processes, JSON-lines result stores, and growth-exponent
  aggregation (:mod:`repro.experiments`; CLI: ``repro sweep``
  and ``repro report``).

Quickstart::

    from repro import api
    from repro.graphs import gnp_random_graph

    g = gnp_random_graph(500, 0.2, seed=1)
    coloring = api.color_graph(g, method="kt1-delta-plus-one", seed=2)
    mis = api.find_mis(g, method="kt2-sampled-greedy", seed=3)
"""

from repro import api
from repro.congest.async_network import AsyncNetwork
from repro.congest.network import SyncNetwork
from repro.errors import (
    ComparisonDisciplineError,
    ConvergenceError,
    ModelViolationError,
    ProtocolError,
    ReproError,
    VerificationError,
)
from repro.graphs.core import Graph

__version__ = "1.0.0"

__all__ = [
    "api",
    "AsyncNetwork",
    "SyncNetwork",
    "Graph",
    "ReproError",
    "ModelViolationError",
    "ComparisonDisciplineError",
    "ProtocolError",
    "VerificationError",
    "ConvergenceError",
    "__version__",
]
