#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload once.

    python3 perfbench/run.py --workload steady_reads --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --test        # build and run the benchmark's own tests

Run from the repository root (any directory works; paths resolve from this
file). The build lives in .bench_build/ (or $CARGO_TARGET_DIR) under the
root; build output goes to stderr, so the last stdout line is always the
benchmark's result object. Exits non-zero, printing no result, when the
build or the run fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def build(target):
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", out, "--target", target, "-j4"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(out, target)


def main(argv):
    if argv == ["--test"]:
        return subprocess.run([build("perfbench_test")], cwd=ROOT).returncode
    binary = build("pmw_perfbench")
    scratch = os.path.relpath(os.path.join(build_dir(), "run"), ROOT)
    os.makedirs(os.path.join(ROOT, scratch), exist_ok=True)
    # Relative paths from the root keep Unix socket paths short.
    cmd = [binary] + argv + ["--socket-dir", scratch, "--spans-dir", scratch]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (subprocess.CalledProcessError, OSError) as err:
        print("perfbench: %s" % err, file=sys.stderr)
        sys.exit(1)
