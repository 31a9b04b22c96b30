#!/usr/bin/env python3
"""Builds the logical-clock benchmark in Release mode and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload point_hot --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR when set, else to .bench_build, both
relative to the repository root. Build output goes to standard error, so the
last line of standard output is the benchmark's JSON result. The exit code
is the benchmark's: non-zero when the build fails or any check fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "apc_perfbench", "-j", jobs],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "apc_perfbench")


def main():
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"benchmark build failed: {err}", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if "--trace" in args and args[args.index("--trace") + 1 :][:1] == ["1"]:
        trace_dir = os.path.join(build_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        args += ["--trace-dir", trace_dir]
    sys.stdout.flush()
    return subprocess.run([binary] + args, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
