#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune (the first run in a fresh checkout
compiles the tree) and runs it with the same arguments. Build output goes
to standard error; the last line of standard output is the result JSON.
Exits non-zero, printing no result, when the build fails.
"""

import os
import shutil
import subprocess
import sys


def main():
    dune = shutil.which("dune")
    cmd = [dune] if dune else ["opam", "exec", "--", "dune"]
    # The shared dune cache lives outside the checkout; keep every write
    # inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            cmd + ["build", "--root", ".", "perfbench/main.exe"],
            env=env,
            stdout=sys.stderr,
        )
    except FileNotFoundError:
        print("perfbench: dune not found", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
