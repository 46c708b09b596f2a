#!/usr/bin/env python3
"""Builds the rtdls benchmark from source and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The build lives in $CARGO_TARGET_DIR when that
is a relative path, else in .bench_build; each run's scratch files (trace CSV,
daemon socket, sample spools) live in .perfbench_out/run-<pid> and are removed
when the run ends, whatever its outcome. Build output goes to stderr so that
the last line of stdout is the benchmark's JSON result.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    configured = os.environ.get("CARGO_TARGET_DIR", "")
    if configured and not os.path.isabs(configured):
        return os.path.join(ROOT, configured)
    return os.path.join(ROOT, ".bench_build")


def build(target):
    out = build_dir()
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            return None
    if subprocess.run(["cmake", "--build", out, "--target", target, "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, target)


def run_child(argv):
    """Runs argv, forwarding SIGTERM/SIGINT to it, and waits until it ends."""
    child = subprocess.Popen(argv)

    def forward(signum, _frame):
        child.send_signal(signum)

    previous = {s: signal.signal(s, forward) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        return child.wait()
    finally:
        if child.poll() is None:
            child.kill()
            child.wait()
        for s, handler in previous.items():
            signal.signal(s, handler)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the output checks' own tests")
    args = parser.parse_args()

    if args.self_test:
        binary = build("perfbench_check_test")
        if binary is None:
            print("perfbench: build failed", file=sys.stderr)
            return 1
        return run_child([binary])

    if args.workload is None:
        parser.error("--workload is required")
    binary = build("perfbench")
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    workdir = os.path.join(ROOT, ".perfbench_out", "run-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        # The workdir is passed relative to the root, which keeps the daemon's
        # Unix socket path short however deep the checkout sits.
        return run_child([binary, "--workload", args.workload, "--seed", str(args.seed),
                          "--seconds", str(args.seconds), "--trace", str(args.trace),
                          "--workdir", os.path.relpath(workdir, ROOT)])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    os.chdir(ROOT)
    sys.exit(main())
