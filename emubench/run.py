#!/usr/bin/env python3
"""Build and run the emulator benchmark.

    python3 emubench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 emubench/run.py --selftest

Run from the root of a checkout. The benchmark package (emubench/) is built
with CMake into the build directory ($CARGO_TARGET_DIR if set, else
.bench_build), compiling the emulator from src/. The last line of standard
output is the run's JSON result; build output goes to standard error. Exits
non-zero, without a result, when the build or the run fails.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("bulk_s2", "probe_base", "probe_s1", "probe_s2", "ring_zc")


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(d)


def build(out_dir):
    """Configure (once) and build; serialised by a lock on the build dir."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out_dir])
        steps.append(["cmake", "--build", out_dir, "-j", "4"])
        for cmd in steps:
            r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if r.returncode != 0:
                # A failed configure leaves a cache behind; drop it so the
                # next run configures again.
                cache = os.path.join(out_dir, "CMakeCache.txt")
                if os.path.exists(cache):
                    os.remove(cache)
                return False
    return True


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--selftest", action="store_true",
                   help="check that every output check rejects its fault")
    a = p.parse_args()
    if not a.selftest and (a.workload is None or a.seed is None or
                           a.seconds is None or a.trace is None):
        p.error("--workload, --seed, --seconds and --trace are required")

    out_dir = build_dir()
    if not build(out_dir):
        print("emubench: build failed", file=sys.stderr)
        return 1
    if a.selftest:
        return subprocess.run([os.path.join(out_dir, "emubench_selftest")]
                              ).returncode
    cmd = [os.path.join(out_dir, "emubench"),
           "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--trace-dir", os.path.join(out_dir, "traces")]
    r = subprocess.run(cmd)
    return 0 if r.returncode == 0 else max(r.returncode, 1)


if __name__ == "__main__":
    sys.exit(main())
