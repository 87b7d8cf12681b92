#!/usr/bin/env python3
"""Build and run the OSR pipeline benchmark.

Usage, from the root of a source checkout:

    python3 osrbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds osrbench/main.exe with dune, then runs it with the same arguments.
The dune cache is disabled, so the build writes only under the checkout's
_build directory.  Build output goes to standard error; the last line of
standard output is the benchmark's JSON result.  With --trace 1 the
recorded spans are written to osrbench/out/trace-<workload>.json.
"""

import os
import subprocess
import sys


def main() -> int:
    args = sys.argv[1:]
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./osrbench/main.exe"],
            stdout=sys.stderr,
            stderr=sys.stderr,
            env=env,
            timeout=900,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"osrbench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("osrbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join("_build", "default", "osrbench", "main.exe")
    extra = []
    if "--workload" in args and args.index("--workload") + 1 < len(args):
        workload = args[args.index("--workload") + 1]
        out_dir = os.path.join("osrbench", "out")
        os.makedirs(out_dir, exist_ok=True)
        extra = ["--trace-file", os.path.join(out_dir, f"trace-{workload}.json")]
    try:
        run = subprocess.run([exe] + args + extra, env=env, timeout=170)
    except subprocess.TimeoutExpired:
        print("osrbench: run timed out", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
