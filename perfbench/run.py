#!/usr/bin/env python3
"""Entry point of ECO's benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout.  Builds perfbench/perfbench.exe from
source with dune (the first run in a fresh checkout builds everything it
needs), then runs it with the same arguments; its last output line is the
result JSON.  Exits non-zero without a result when the checkout holds no
ECO sources to build.
"""

import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("perfbench: no ECO sources here (dune-project and lib/ missing); "
                         "run from the root of a checkout\n")
        return 2
    # Keep every build product inside the checkout: no shared dune cache.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "perfbench/perfbench.exe"],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return build.returncode or 1
    # One CPU for the benchmark and every process it starts: the serve
    # daemon then runs where the client's host-speed calibration runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    return subprocess.run([EXE] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
