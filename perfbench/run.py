#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload kv-write --seed 1 --seconds 20 --trace 0

The Go program in this directory is built from source into .perfbench/
(with its build cache, temporary files and trace files beside it, so the
benchmark writes nothing outside the checkout) and then run with the
arguments given. Its last line of output is the result JSON. A failed
build, a crash or a run past the time limit exits non-zero without a
result.
"""

import os
import subprocess
import sys

TIME_LIMIT_S = 170


def main():
    root = os.getcwd()
    src = os.path.dirname(os.path.abspath(__file__))
    state = os.path.join(root, ".perfbench")
    dirs = {name: os.path.join(state, name) for name in ("gocache", "tmp", "gopath", "config")}
    for d in dirs.values():
        os.makedirs(d, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=dirs["gocache"],
        GOTMPDIR=dirs["tmp"],
        GOPATH=dirs["gopath"],
        GOMODCACHE=os.path.join(dirs["gopath"], "pkg", "mod"),
        XDG_CONFIG_HOME=dirs["config"],
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOTELEMETRY="off",
        CGO_ENABLED="0",
        # The commit is read with git; keep it from searching above the checkout.
        GIT_CEILING_DIRECTORIES=os.path.dirname(root),
    )
    binary = os.path.join(state, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=src, env=env)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    try:
        done = subprocess.run([binary] + sys.argv[1:] + ["--out", state], cwd=root, env=env,
                              timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark exceeded %d s" % TIME_LIMIT_S, file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
