#!/usr/bin/env python3
"""Build statsize and its benchmark from source, then run one workload.

    python3 statbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a statsize checkout. The last line of standard output
is the benchmark's JSON result; build output goes to standard error. Exits
non-zero without a result when the checkout holds no statsize sources or
the build fails.
"""

import argparse
import os
import signal
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_GRACE_S = 120
TARGETS = ["./statbench/statbench.exe", "./bin/statsize.exe"]
RUN_DIR = ".statbench"


def fail(msg):
    print(f"statbench: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    for needed in ("dune-project", "lib", "bin", "statbench/dune"):
        if not os.path.exists(needed):
            fail(f"{needed} not found: run from the root of a statsize checkout")

    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "-j", "2", *TARGETS],
            stdout=sys.stderr, stderr=sys.stderr, env=env,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build did not finish: {e}")
    if build.returncode != 0:
        fail(f"build failed (exit {build.returncode})")

    os.makedirs(RUN_DIR, exist_ok=True)
    cmd = [
        "_build/default/statbench/statbench.exe",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
        "--statsize", "_build/default/bin/statsize.exe", "--run-dir", RUN_DIR,
    ]
    # Its own process group, so a timeout also stops the daemons it spawned.
    proc = subprocess.Popen(cmd, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=args.seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail("benchmark did not finish in time")
    sys.exit(code)


if __name__ == "__main__":
    main()
