#!/usr/bin/env python3
"""Build and run the crawl benchmark.

Run from the root of a checkout:

    python3 crawlbench/run.py --workload sim --seed 1 --seconds 45 --trace 0

The Go build cache, the binary, scratch directories and span dumps all
live under .bench_build in the checkout, so nothing is written outside
it. Arguments are passed to the benchmark binary unchanged; the binary's
last line of standard output is the JSON result.
"""

import os
import subprocess
import sys

# A run must end within 180 s; the first run in a checkout also builds.
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 840


def main():
    root = os.getcwd()
    bench = os.path.dirname(os.path.abspath(__file__))
    out = os.path.join(root, ".bench_build")
    binary = os.path.join(out, "crawlbench")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(out, "gocache"),
        GOMODCACHE=os.path.join(out, "gomodcache"),
        GOPATH=os.path.join(out, "gopath"),
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        CGO_ENABLED="0",
        TMPDIR=os.path.join(out, "tmp"),
    )
    os.makedirs(env["TMPDIR"], exist_ok=True)
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=bench, env=env, timeout=BUILD_TIMEOUT_S,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        sys.stderr.write("crawlbench: build failed\n")
        return 1
    try:
        proc = subprocess.run(
            [binary, "--out", out] + sys.argv[1:],
            cwd=root, env=env, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        sys.stderr.write("crawlbench: run timed out\n")
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
