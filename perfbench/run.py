#!/usr/bin/env python3
"""Build and run the issr_sim benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload cc_fig4 --seed 1 --seconds 10 --trace 0

Builds perfbench/ (which compiles the simulator library from ../src with
the repository's own CMake rules, Release + LTO) into .bench_build/perfbench
on first use, then runs one workload in one process. The last line of
stdout is the result JSON; build output and progress go to stderr. With
--trace 1 the run also writes a Chrome trace-event file of every span to
.bench_build/perfbench/<workload>.trace.json.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
EXE = os.path.join(BUILD, "issr_perfbench")


def build():
    for need in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, need)):
            sys.exit(f"perfbench: {need} not found next to perfbench/; "
                     "run from a full checkout of the repository")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   stdout=sys.stderr, check=True)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", choices=("0", "1"), default="0")
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be non-negative")

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit(f"perfbench: build failed: {e}")

    env = dict(os.environ)
    # Let the provenance stamp's `git describe` see this checkout only,
    # never a repository above it.
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(ROOT)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--trace-out", os.path.join(BUILD, f"{args.workload}.trace.json")]
    sys.stdout.flush()
    return subprocess.run(cmd, env=env, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
