"""The repository benchmark.

    python3 perfbench/run.py --workload echo --seed 0 --seconds 10 --trace 0

Runs one workload for ``--seconds`` of rounds and prints every metric
by name and unit, then, as the last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (`bench.END_TO_END`).
With ``--trace 1`` the same untraced rounds run first, then two traced
passes and one allocation pass, and the metrics are the per-layer
ledger (`bench.PER_LAYER`).  Any failed correctness check prints
``"correct": false`` and exits with status 1.

Run it from the root of a checkout: it imports the program from
``src/`` and keeps its node sockets under ``.perfbench-tmp/``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: traced passes compare Python call counts exactly, and string hashing
#: reorders dicts and sets, so every run uses one hash seed
HASH_SEED = "0"
#: relative, so a node's Unix socket path stays short in a deep checkout
SOCKET_ROOT = ".perfbench-tmp"

def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("echo", "churn", "scale", "fleet"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program sources at {SRC}; run the benchmark "
              f"from a checkout of the repository", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable,
                  [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
                  env)
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    os.makedirs(SOCKET_ROOT, exist_ok=True)
    from bench import run_benchmark

    result = run_benchmark(args.workload, args.seed, args.seconds,
                           bool(args.trace), SRC, HERE, SOCKET_ROOT)
    for name in sorted(result["metrics"]):
        m = result["metrics"][name]
        print(f"{args.workload:6} {name:40} {m['value']:>16.6g} {m['unit']}")
    for line in result.pop("notes"):
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
