#!/usr/bin/env python3
"""Build the IPDS tree with the benchmark and run one workload.

    python3 perfbench/run.py --workload compile|campaign|replay|serve \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --quick

Run from the root of a checkout. The first run configures and builds
the benchmark package (perfbench/CMakeLists.txt, which builds the
repository one directory up) under .bench_build/perfbench; later runs
only check that the build is current. Build output goes to stderr, so
the benchmark's JSON result is the last line of stdout. See README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        sys.exit("perfbench: no IPDS source tree beside perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "perfbench",
                    "-j", "4"], stdout=sys.stderr, check=True)
    return os.path.join(BUILD, "perfbench")


def main():
    args = sys.argv[1:]
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench: build failed: %s" % e)
    extra = []
    if "--quick" not in args and "--trace" in args:
        i = args.index("--trace")
        if i + 1 < len(args) and args[i + 1] == "1" and "--workload" in args:
            wl = args[args.index("--workload") + 1]
            extra = ["--spans", os.path.join(BUILD, "spans-%s.json" % wl)]
    scratch = os.path.relpath(BUILD, os.getcwd())
    sys.stdout.flush()
    proc = subprocess.run([binary] + args + extra + ["--scratch", scratch])
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
