"""Quick-mode self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of ``BENCHMARK.json`` briefly, untraced and
traced, and checks that each run is correct and emits exactly the
metrics ``BENCHMARK.json`` names, each with its unit.  Then it copies
``BENCHMARK.json`` and the benchmark's files, without the program, to
a scratch directory and checks that the benchmark fails there without
printing a result.  Exits with status 1 on the first mismatch.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
QUICK_SECONDS = "0.5"


def _run(cwd: str, workload: str, trace: int):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", "0",
           "--seconds", QUICK_SECONDS, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    want = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = _run(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{label}: no JSON result\n{proc.stderr}")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if proc.returncode != 0 or not result["correct"]:
                problems.append(f"{label}: not correct\n{proc.stdout}")
            if sorted(result) != ["attempted", "correct", "failed",
                                  "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            if got != want[trace]:
                missing = sorted(set(want[trace]) - set(got))
                extra = sorted(set(got) - set(want[trace]))
                units = sorted(k for k in got
                               if k in want[trace] and got[k] != want[trace][k])
                problems.append(f"{label}: missing {missing}, unexpected "
                                f"{extra}, wrong units {units}")
            print(f"{label}: {len(got)} metrics, "
                  f"{result['attempted']} operations", flush=True)

    os.makedirs(os.path.join(ROOT, ".perfbench-tmp"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-",
                            dir=os.path.join(ROOT, ".perfbench-tmp"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path),
                            os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"without the program: exit {proc.returncode}, "
                            f"output {proc.stdout!r}")
        print(f"without the program: exit {proc.returncode}")
    finally:
        shutil.rmtree(bare)

    for p in problems:
        print("FAIL", p)
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
