#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload backfill --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --selftest

Build output goes to stderr, so the last line of stdout is the
benchmark's result object. Exits non-zero (without a result) when the
program cannot be built, e.g. outside a full checkout.
"""

import subprocess
import sys

EXE = "_build/default/perfbench/perfbench.exe"


def main():
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
            stdout=sys.stderr,
            stderr=sys.stderr,
        )
    except OSError as e:
        print(f"perfbench: cannot run dune: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    sys.stdout.flush()
    return subprocess.run([EXE] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
