#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload live_sweep [--seed 42]
                             [--seconds 12] [--trace 0|1]
    python3 perfbench/run.py --self-test

The benchmark is its own CMake project (perfbench/CMakeLists.txt) that
compiles the simulator from the sources next to this directory, into
$CARGO_TARGET_DIR/perfbench (default: .bench_build/perfbench under the
repository root). The last line a run prints is its JSON result.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("live_sweep", "oracle_paper_scale", "replay_study")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(target):
    """Configure once, then build `target`; build logs go to stderr."""
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "--target", target,
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(out, target)


def source_id():
    """The checkout's git commit, or a digest of the benchmarked
    sources when the checkout is not a git repository."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        got = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if got.returncode == 0:
            return got.stdout.strip()
    digest = hashlib.sha256()
    for top in ("src", "bench", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="build and run the benchmark's unit tests")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    for part in ("src", "bench"):
        if not os.path.isfile(os.path.join(ROOT, part, "CMakeLists.txt")):
            print("perfbench: no simulator sources at "
                  + os.path.join(ROOT, part), file=sys.stderr)
            return 2
    try:
        binary = build("perfbench_tests" if args.self_test else "perfbench")
    except (subprocess.CalledProcessError, OSError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 2
    if args.self_test:
        return subprocess.run([binary]).returncode

    out = build_dir()
    cmd = [binary,
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--work-dir", os.path.join(out, "work"),
           "--spans-out", os.path.join(out, "spans-%s.bin" % args.workload),
           "--commit", source_id(),
           # Same clock as the benchmark's steady_clock: setup_s starts
           # when the benchmark process is launched.
           "--launch-ns", str(time.monotonic_ns())]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
