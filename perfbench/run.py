#!/usr/bin/env python3
"""Run one workload of the end-to-end benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds the benchmark and the
`paredown` CLI with dune (the first build takes a few minutes), then
runs the benchmark executable, whose last stdout line is the JSON
result.  Exits non-zero on a failed output check or when the checkout
holds no program to build.  See perfbench/NOTES.md.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ["synth_verify", "serve_cold", "serve_warm", "reliability_sweep"]
TARGETS = ["./perfbench/bench.exe", "./bin/paredown.exe"]


def program_env():
    # The production defaults are measured: no PAREDOWN_* switch is
    # passed on, and dune's shared cache (outside the checkout) is off.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PAREDOWN_")}
    env["DUNE_CACHE"] = "disabled"
    return env


def build(env):
    for needed in ["dune-project", "lib", "bin/dune", "perfbench/dune"]:
        if not os.path.exists(needed):
            sys.exit(f"perfbench: no {needed} here; run from the root of a source checkout")
    dune = shutil.which("dune")
    if dune is None:
        sys.exit("perfbench: dune not found on PATH")
    proc = subprocess.run(
        [dune, "build", "--root", ".", "--display", "quiet", *TARGETS],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.exit("perfbench: build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        sys.exit("perfbench: --seed must be >= 0 and --seconds >= 1")
    env = program_env()
    build(env)
    cmd = ["_build/default/perfbench/bench.exe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--paredown", "_build/default/bin/paredown.exe"]
    # One CPU for the client, its reference kernel and the server child,
    # so the reference measures the CPU the program runs on.  The
    # client and the server never compute at the same time.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    # the benchmark's stdout passes straight through; it waits for (and
    # on failure kills) its own server child before exiting
    child = subprocess.Popen(cmd, env=env)

    def stop(signum, _frame):
        child.terminate()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    sys.exit(child.wait())


if __name__ == "__main__":
    main()
