#!/usr/bin/env python3
"""Build the hostbench program from source and run one benchmark workload.

Run from the root of an isolbench checkout:

    python3 hostbench/run.py --workload paper-cells --seed 1 --seconds 30 --trace 0

Arguments are passed to hostbench unchanged. The Go build cache, the
hostbench binary and anything else the go command writes stay under the
build directory: $CARGO_TARGET_DIR when set, else .bench_build, inside
the checkout. hostbench's exit code is returned; a failed build exits
with 1 and prints no result.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOMODCACHE=os.path.join(build, "gopath", "pkg", "mod"),
        GOTMPDIR=os.path.join(build, "tmp"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOENV="off",
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    binary = os.path.join(build, "hostbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=bench_dir, env=env)
    if built.returncode != 0:
        print("hostbench: build failed", file=sys.stderr)
        return 1
    # The traced run hands its CPU profile to `go tool pprof` through
    # a temporary file, which TMPDIR keeps inside the build directory.
    env["TMPDIR"] = env["GOTMPDIR"]
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
