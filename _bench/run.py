#!/usr/bin/env python3
"""Build and run routerwatch's scenario benchmark.

Run from the repository root:

    python3 _bench/run.py --workload isp-excise --seed 1 --seconds 10 --trace 0

The benchmark is its own Go module (_bench/go.mod) that imports the
repository's packages through a relative replace directive, so it builds
only inside a full checkout. Everything the build and the run write stays
under .bench_build/ at the repository root: the compiled binary, the Go
build cache and temporary files (the replay workload's recorded trace).
The last line of standard output is the benchmark's JSON result; a failed
build exits non-zero without printing one.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    out = os.path.join(root, ".bench_build")
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOPATH=os.path.join(out, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOWORK="off",
    )
    binary = os.path.join(out, "bench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("bench: build failed", file=sys.stderr)
        return build.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
