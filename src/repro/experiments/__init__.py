"""Parallel experiment sweeps over the paper's algorithm matrix.

The paper's headline results are *scaling* claims — Algorithm 1 sends
Õ(n^1.5) messages while the Ω(m) baselines send ~m — so demonstrating
them takes multi-seed sweeps across graph families, not single runs.
This subsystem makes those sweeps declarative, parallel, and resumable:

* :class:`SweepSpec` — the experiment matrix (family x n x seed x
  method x engine), expanded to picklable :class:`Cell` units;
* :func:`run_cell` / :func:`run_sweep` — execute cells, optionally in
  supervised warm children (:mod:`repro.supervise`), in the engine's
  stats-lite mode by default
  (identical message/round counts, no utilized-edge bookkeeping);
* :class:`ResultStore` — append-only JSON-lines storage; completed cell
  keys are skipped on re-run, so interrupted sweeps resume for free;
* :func:`fit_exponent` / :func:`mean_ci` / :func:`growth_exponents` /
  :func:`summarize` — aggregation: mean ± CI per size and the empirical
  growth exponent per (family, method), last-record-wins per cell key;
* :class:`Coordinator` / :func:`run_worker` —
  distributed multi-host execution: the coordinator serves cells over a
  versioned TCP work queue (lease/heartbeat/requeue), workers pull and
  stream records back into the same resumable store
  (see :mod:`repro.experiments.distributed` and docs/distributed.md).

Surfaced on the command line as ``repro sweep`` (add ``--serve`` to
host a distributed run, ``--dry-run`` to print the plan),
``repro worker --connect HOST:PORT``, and ``repro report``:

    python -m repro sweep --families gnp regular --sizes 80 120 180 \\
        --seeds 0 1 2 --methods kt1-delta-plus-one luby \\
        --workers 4 --out results.jsonl
    python -m repro report --results results.jsonl

The package loads lazily (PEP 562): ``import repro.experiments`` runs
no submodule, and each name below imports only its own submodule on
first use.  So ``repro.serving`` (which needs :mod:`.spec`) and a cell
runner (:mod:`.runner`) never pay for :mod:`.distributed`'s wire and
socket stack.
"""

from importlib import import_module

_EXPORTS = {
    "distributed": (
        "DEFAULT_SWEEP", "PROTOCOL_VERSION", "Coordinator", "QueueJournal",
        "SweepState", "WorkQueue", "cancel_sweep", "fetch_status",
        "fetch_sweep", "list_sweeps", "run_worker", "submit_sweep",
    ),
    "report": ("bench_payload", "render_report", "summarize"),
    "runner": ("run_cell", "run_sweep"),
    "spec": (
        "ALL_METHODS", "COLORING_METHODS", "MIS_METHODS", "Cell",
        "SweepSpec",
    ),
    "stats": (
        "fit_exponent", "growth_exponents", "latest_per_key", "mean_ci",
        "ok_records",
    ),
    "store": ("ResultStore",),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name in _HOME:
        value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
