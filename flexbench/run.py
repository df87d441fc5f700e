#!/usr/bin/env python3
"""Build the flexnet simulator from this checkout and run one benchmark workload.

    python3 flexbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The simulator and the benchmark driver are
compiled from source into .bench_build (or $CARGO_TARGET_DIR) on every call;
after the first call that build is a no-op check. The last line of standard
output is the JSON result: {"correct", "attempted", "failed", "metrics"}.
Extra arguments (--smoke, --record, --set key=value) are passed through to
the driver; see flexbench/README.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DRIVER_TIMEOUT_S = 170


def log(msg):
    print("flexbench: " + msg, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configures (once) and builds the driver; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "sim", "network.cpp")):
        log("no simulator sources under %s/src; run from a full checkout" % ROOT)
        return None
    cache = os.path.join(out, "CMakeCache.txt")
    steps = []
    if not os.path.isfile(cache):
        cfg = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        steps.append(cfg)
    steps.append(["cmake", "--build", out, "--parallel", str(os.cpu_count() or 1)])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("build step failed: " + " ".join(cmd))
            return None
    return os.path.join(out, "flexbench_driver")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args, extra = ap.parse_known_args()

    driver = build(build_dir())
    if driver is None:
        return 1
    # The simulator reads FLEXNET_* variables (scale, seeds, workers,
    # counters); a benchmark run must not inherit them from the caller.
    env = {k: v for k, v in os.environ.items() if not k.startswith("FLEXNET_")}
    cmd = [driver, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--root", ROOT,
           "--out", os.path.join(build_dir(), "runs", args.workload)] + extra
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              timeout=DRIVER_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log("driver exceeded %d s" % DRIVER_TIMEOUT_S)
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0:
        log("driver exited with %d" % done.returncode)
        return done.returncode
    if "--record" in extra:
        return 0
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        log("driver printed no result line")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
