#!/usr/bin/env python3
"""Build kosha_bench from this checkout, then run it with the given arguments.

Run from the repository root:

    python3 bench/kosha_bench/run.py --workload homes --seed 42 --seconds 15 --trace 0

The benchmark project in this directory is configured once (Release,
-DKOSHA_WERROR=ON) into $CARGO_TARGET_DIR/kosha_bench, or
.bench_build/kosha_bench when the variable is unset, and rebuilt
incrementally on every call. Build output goes to standard error, so the
last line of standard output is the benchmark's own JSON result. The exit
code is the benchmark's, or 1 when the build fails.
"""

import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# Compile jobs: enough to build in well under a minute, few enough to keep
# memory use modest on a shared machine.
MAX_JOBS = 4


def build(build_dir):
    """Configure (first time only) and build the benchmark; True on success."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release", "-DKOSHA_WERROR=ON"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(min(MAX_JOBS, os.cpu_count() or 1))
    step = ["cmake", "--build", build_dir, "--target", "kosha_bench", "--parallel", jobs]
    return subprocess.run(step, stdout=sys.stderr).returncode == 0


def main():
    # A terminated runner still stops and reaps the benchmark (see finally).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "kosha_bench")
    if not build(build_dir):
        print("kosha_bench: build failed", file=sys.stderr)
        return 1
    child = subprocess.Popen([os.path.join(build_dir, "kosha_bench")] + sys.argv[1:])
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
