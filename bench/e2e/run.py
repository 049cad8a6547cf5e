#!/usr/bin/env python3
"""Builds bench_e2e from this checkout, then runs it.

Run from the repository root:

    python3 bench/e2e/run.py --workload heat --seed 1 --seconds 20 --trace 0

Every argument is passed to bench_e2e (see README.md in this directory),
together with the path of the repository's BENCHMARK.json. The build goes
to $CARGO_TARGET_DIR/e2e (default .bench_build/e2e) and its output to
stderr, so the last line on stdout stays bench_e2e's result line.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def build(build_dir):
    """Configures (quick once cached) and rebuilds what changed."""
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
        return False
    jobs = str(os.cpu_count() or 1)
    compile_ = ["cmake", "--build", build_dir, "--target", "bench_e2e",
                "-j", jobs]
    return subprocess.run(compile_, stdout=sys.stderr).returncode == 0


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(target, "e2e")
    if not build(build_dir):
        print("run.py: building bench_e2e failed", file=sys.stderr)
        return 1
    exe = os.path.join(build_dir, "bench_e2e")
    spec = "--benchmark-json=" + os.path.join(ROOT, "BENCHMARK.json")
    return subprocess.run([exe, *sys.argv[1:], spec]).returncode


if __name__ == "__main__":
    sys.exit(main())
