#!/usr/bin/env python3
"""Build the benchmark driver and ampserve from source, then run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload paperscale|serve-miss \
        --seed N --seconds S --trace 0|1

Everything the build and the run write stays under .bench_build/ in the
repository root: the Go build cache, the binaries, server state and the
traced run's spans. The last line of standard output is the driver's
JSON result; build output goes to standard error.
"""

import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "mod"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    bindir = os.path.join(BUILD, "bin")
    for out, pkg in (("perfbench", "."), ("ampserve", "ampsched/cmd/ampserve")):
        build = subprocess.run(
            ["go", "build", "-o", os.path.join(bindir, out), pkg],
            cwd=BENCH, env=env, stdout=sys.stderr, stderr=sys.stderr,
        )
        if build.returncode != 0:
            sys.exit("perfbench: building %s failed" % pkg)
    driver = os.path.join(bindir, "perfbench")
    args = [driver] + sys.argv[1:] + [
        "--ampserve", os.path.join(bindir, "ampserve"),
        "--workdir", os.path.join(BUILD, "work"),
    ]
    sys.stdout.flush()
    os.execv(driver, args)


if __name__ == "__main__":
    main()
