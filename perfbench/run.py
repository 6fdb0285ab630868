#!/usr/bin/env python3
"""Build and run the springfs benchmark.

Run from the root of a springfs checkout:

    python3 perfbench/run.py --workload hot-posix --seed 1 --seconds 10 --trace 0

The script builds the Go program in perfbench/ from source into the build
directory ($CARGO_TARGET_DIR, else .bench_build at the checkout root), keeping
the Go build cache there as well, then runs it with the arguments given. The
program prints its result as the last line of standard output; the script
passes that through along with the exit code. See perfbench/README.md.
"""

import os
import subprocess
import sys

# The program measures for --seconds (at most 60) plus its set-up; past this
# it is killed so the run still ends with a failure inside three minutes.
RUN_TIMEOUT_S = 170
# The first build in a fresh checkout compiles the standard library too.
BUILD_TIMEOUT_S = 850


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "go.mod")):
        sys.stderr.write("run.py: no springfs module at %s (go.mod missing)\n" % root)
        return 2
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(root, build)  # a relative path is taken from the checkout root
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOTMPDIR=os.path.join(build, "tmp"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
    )
    for d in ("gocache", "tmp", "gopath", "config"):
        os.makedirs(os.path.join(build, d), exist_ok=True)
    binary = os.path.join(build, "perfbench")
    try:
        subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                       check=True, timeout=BUILD_TIMEOUT_S, stdout=sys.stderr)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        sys.stderr.write("run.py: build failed: %s\n" % e)
        return 1
    try:
        # subprocess.run kills the program and waits for it on timeout.
        return subprocess.run([binary] + sys.argv[1:], cwd=root, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("run.py: benchmark exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1


if __name__ == "__main__":
    sys.exit(main())
