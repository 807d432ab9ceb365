#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from anywhere in a checkout:

    python3 perfbench/run.py --workload roundtrip|ingest|read_mix \
        --seed N --seconds S --trace 0|1

Everything the build and the run write stays inside the checkout, under
the build directory ($CARGO_TARGET_DIR when set, else .bench_build): the
Go build cache, the benchmark binary, the durable deployments' data
directories (removed when a run ends) and the span files of traced runs.
The exit code is the benchmark's; a failed build exits non-zero without
printing a result.
"""
import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(root, build)
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "go-cache"),
        GOPATH=os.path.join(build, "go-path"),
        GOMODCACHE=os.path.join(build, "go-path", "mod"),
        GOENV="off",
        GOFLAGS="",
        GOWORK="off",
        GOTOOLCHAIN="local",
        CGO_ENABLED="0",
        GOTMPDIR=tmp,
        TMPDIR=tmp,
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode
    args = sys.argv[1:] + ["--work-dir", os.path.join(build, "work")]
    return subprocess.run([binary] + args, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
