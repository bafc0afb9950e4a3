#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the root of an oclick checkout:

    python3 perfbench/run.py --workload fig8-churn --seed 1 --seconds 55 --trace 0

The build goes to dune's _build directory of the checkout, with dune's
shared cache off and temporary files under perfbench/out/tmp, so nothing
is written outside the checkout. Build output goes to stderr, so that the
benchmark's last line of stdout stays its JSON result. Exits non-zero,
without a result, when the checkout has no router sources to build.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def git_rev():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the root of an oclick checkout", file=sys.stderr)
        return 2
    tmp = os.path.join(os.getcwd(), "perfbench", "out", "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp, PERFBENCH_REV=git_rev())
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release", "./perfbench/perfbench.exe"],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    return subprocess.run([EXE] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
