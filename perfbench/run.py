#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload flood --seed 1 --seconds 20 --trace 0

Run from the root of a checkout of the repository. The OCaml program is
built with dune into .bench_build/ and run with the same arguments; its
standard output is passed through, and its last line is the JSON result.
Exits non-zero, without printing a result, when the build or the run
fails or overruns its time limit.
"""

import argparse
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/src/main.exe"
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not os.path.isfile("dune-project") or not os.path.isdir("lib"):
        fail("run from the root of a checkout (dune-project and lib/ not found)")
    # Dune's shared cache lives outside the checkout; build without it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--profile", "release",
             "--build-dir", BUILD_DIR, TARGET],
            stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S, env=env)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if build.returncode != 0:
        fail("build failed (dune exit %d)" % build.returncode)

    exe = os.path.join(BUILD_DIR, "default", "perfbench", "src", "main.exe")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("run failed: %s" % e)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write("\n".join(line for line in lines if not line.startswith("{")) + "\n")
        fail("run failed (exit %d)" % run.returncode)
    sys.stdout.write(run.stdout)


if __name__ == "__main__":
    main()
