"""Benchmark for the diobox solver and its ``diobox solve`` command.

Run from the root of a diobox checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from ``src/`` of the current directory; without it
the benchmark exits with status 2. Load is closed-loop with one caller: one
solve or one child process at a time, no threads. With ``--trace 0`` a run
prints the end-to-end metrics; with ``--trace 1`` it replays a fixed set of
instances stage by stage and prints the per-layer metrics. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. perfbench/README.md describes the workloads and
which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "diobox", "__init__.py")):
        print(f"error: {root} holds no src/diobox; run from the root of a diobox checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    for module in ("diobox", "diobox.cli", "diobox.gen", "diobox.io"):
        importlib.import_module(module)
    loaded = os.path.realpath(sys.modules["diobox"].__file__)
    if not loaded.startswith(os.path.realpath(src) + os.sep):
        print(f"error: imported diobox from {loaded}, not from {src}", file=sys.stderr)
        return 2

    import bench

    if args.workload not in bench.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}, expected one of {', '.join(bench.WORKLOADS)}")
    result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
