"""Run ``python -m repro ...`` with the benchmark's span wrappers installed.

Usage (the benchmark starts traced farm workers and servers this way)::

    PERFBENCH_TRACE_DIR=DIR PERFBENCH_TRACE_GROUPS=engine,server \\
        python3 perfbench/trace_boot.py serve 127.0.0.1:0

Everything after the script name is the ``repro`` command line.  The
process writes its spans to ``DIR/spans-<pid>.jsonl`` when it exits;
forked children write their own files (see :mod:`tracing`).
"""

import atexit
import os
import runpy
import sys

import tracing


def main() -> None:
    rec = tracing.Recorder(os.environ["PERFBENCH_TRACE_DIR"])
    tracing.install(rec, os.environ["PERFBENCH_TRACE_GROUPS"].split(","))
    atexit.register(rec.flush)
    sys.argv = ["repro", *sys.argv[1:]]
    runpy.run_module("repro", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main()
