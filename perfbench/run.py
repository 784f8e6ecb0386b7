#!/usr/bin/env python3
"""Build and run the loggpsim benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload fig7 --seed 1 --seconds 15 --trace 0

The Go program in this directory is built against the repository's own
source with every Go cache and config directory kept under the build
directory ($CARGO_TARGET_DIR, default .bench_build), then run with the
given arguments from the repository root. Its exit code is passed on.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    gohome = os.path.join(build, "go")
    env = dict(
        os.environ,
        CARGO_TARGET_DIR=build,
        GOCACHE=os.path.join(gohome, "cache"),
        GOPATH=os.path.join(gohome, "path"),
        GOMODCACHE=os.path.join(gohome, "path", "pkg", "mod"),
        HOME=gohome,
        XDG_CONFIG_HOME=os.path.join(gohome, "config"),
        GOENV="off",
        GOFLAGS="",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        CGO_ENABLED="0",
    )
    binary = os.path.join(build, "perfbench", "perfbench")
    os.makedirs(os.path.dirname(binary), exist_ok=True)
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
