#!/usr/bin/env python3
"""Build and run the in-process benchmark for one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload search|search-par|sweep \
        [--seed N] [--seconds N] [--trace 0|1]
    python3 perfbench/run.py --self-test

The benchmark binary (perfbench/src, linked against the repository's libimx) is built
with CMake into .bench_build/perfbench on first use; later runs rebuild
incrementally. Build output goes to stderr, so the last line of stdout is
the binary's JSON result. Exits nonzero, without a result, when the build or
the run fails.
"""
import argparse
import platform
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BUILD_JOBS = "2"
RUN_TIMEOUT_S = 175


def run_quiet(cmd, timeout):
    """Run a build step with its output sent to stderr."""
    return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=timeout).returncode == 0


def build(target):
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        if not run_quiet(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"], timeout=300):
            return False
    return run_quiet(["cmake", "--build", str(BUILD_DIR), "--target", target,
                      "-j", BUILD_JOBS], timeout=840)


def without_aslr(cmd):
    """Prefix `cmd` with setarch -R where the host allows it: a fixed address
    layout removes the process-to-process alignment noise that otherwise
    splits millisecond timings into modes."""
    setarch = shutil.which("setarch")
    if setarch is None:
        return cmd
    prefix = [setarch, platform.machine(), "-R"]
    probe = subprocess.run(prefix + ["true"], capture_output=True)
    return prefix + cmd if probe.returncode == 0 else cmd


def commit():
    """The checked-out commit, or "unknown" outside a git work tree."""
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unknown"
    result = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                            cwd=ROOT, capture_output=True, text=True)
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["search", "search-par", "sweep"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    target = "perfbench_selftest" if args.self_test else "perfbench"
    try:
        if not build(target):
            print("perfbench: build failed", file=sys.stderr)
            return 1
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 1

    if args.self_test:
        cmd = [str(BUILD_DIR / "perfbench_selftest")]
    else:
        cmd = [str(BUILD_DIR / "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--commit", commit(), "--scratch-dir", str(BUILD_DIR)]
    # The binary's stdout is passed through untouched; its last line is the
    # result. The child is always waited for, also on timeout.
    with subprocess.Popen(without_aslr(cmd), cwd=ROOT) as child:
        try:
            return child.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            print("perfbench: run timed out", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
