#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload svc-write --seed 1 --seconds 10 --trace 0

Builds the Go program in perfbench/ (a module of its own that replaces
`ivmeps` with the repository root) into the build directory, then runs it
with the given arguments. The build directory is $CARGO_TARGET_DIR if set,
else .bench_build; the Go build cache, temp files (WAL directories) and the
span dump of a traced run all stay inside it. The last line of standard
output is the JSON result; the exit code is the program's.
"""

import os
import shutil
import subprocess
import sys

RUN_TIMEOUT_S = 170


def main():
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    go = shutil.which("go")
    if go is None:
        print("run.py: the go toolchain is not on PATH", file=sys.stderr)
        return 1
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOMODCACHE=os.path.join(build, "gomodcache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOSUMDB="off",
        GOTELEMETRY="off",
        TMPDIR=tmp,
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        [go, "build", "-o", binary, "."],
        cwd=bench_dir,
        env=env,
        stdout=sys.stderr,
        timeout=RUN_TIMEOUT_S,
    )
    if built.returncode != 0:
        print("run.py: building the benchmark failed", file=sys.stderr)
        return 1
    try:
        ran = subprocess.run(
            [binary, "--out", build] + sys.argv[1:], env=env, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print("run.py: the benchmark did not finish in time", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
