#!/usr/bin/env python3
"""Self-tests of the benchmark.

    python3 perfbench/selftest.py

Run from the root of a source checkout.  Checks the calibration
arithmetic, the percentile rule and per-seed input generation
(selftest.exe), then runs every workload twice on one seed and checks
that the deterministic metrics, blocks_after and ok_share, repeat
exactly.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402


def result(workload, seed):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        stdout=subprocess.PIPE, text=True)
    last = proc.stdout.strip().splitlines()[-1]
    return proc.returncode, json.loads(last)


def main():
    env = run.program_env()
    run.build(env)
    subprocess.run(["dune", "build", "--root", ".", "--display", "quiet",
                    "./perfbench/selftest.exe"], env=env, check=True)
    failed = subprocess.run(["_build/default/perfbench/selftest.exe"]).returncode != 0
    for w in run.WORKLOADS:
        (rc1, a), (rc2, b) = result(w, 7), result(w, 7)
        for key in ["blocks_after", "ok_share"]:
            x, y = a["metrics"][key]["value"], b["metrics"][key]["value"]
            same = x == y
            print(f"{w}: {key} {x!r} / {y!r}: {'same' if same else 'DIFFERENT'}")
            failed |= not same
        if rc1 != 0 or rc2 != 0 or not (a["correct"] and b["correct"]):
            print(f"{w}: a run failed its output checks")
            failed = True
    print("selftest.py: " + ("FAILED" if failed else "all checks passed"))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
