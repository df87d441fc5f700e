#!/usr/bin/env python3
"""Self-tests of the flexbench benchmark.

    python3 flexbench/selftest.py

Run from the root of a checkout; takes well under a minute. Checks that:
  1. every metric the benchmark prints is named in BENCHMARK.json with the
     same unit, and every metric BENCHMARK.json names is printed;
  2. a perturbed seed or config key trips the digest check;
  3. a tiny-horizon smoke of each workload completes with no failed job,
     traced and untraced;
  4. per-layer counts repeat exactly between two traced runs;
  5. the benchmark fails, without printing a result, in a directory that
     holds only BENCHMARK.json and the benchmark's own files.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def bench(workload, seed, trace, *extra, cwd=ROOT):
    """Runs one smoke-horizon benchmark; returns (exit code, stdout, result)."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--smoke"] + list(extra)
    done = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=300)
    result = None
    lines = done.stdout.strip().splitlines()
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return done.returncode, done.stdout, result


def printed_metric_rows(stdout):
    """(name, unit) of each row of the printed metric table."""
    rows = []
    in_table = False
    for line in stdout.splitlines():
        if line.startswith("metric "):
            in_table = True
            continue
        if in_table:
            if line.startswith("jobs:"):
                break
            parts = line.split()
            rows.append((parts[0], parts[2]))
    return rows


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
             1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    workloads = [w["name"] for w in spec["workloads"]]

    for w in workloads:
        for trace in (0, 1):
            code, out, res = bench(w, 1, trace)
            tag = "%s trace=%d" % (w, trace)
            check(code == 0 and res is not None, tag + ": exits 0 with a result line")
            if res is None:
                continue
            check(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                  tag + ": smoke completes with no failed job")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            check(got == names[trace], tag + ": result metrics match BENCHMARK.json")
            rows = printed_metric_rows(out)
            check(rows and all(names[trace].get(n) == u for n, u in rows)
                  and len(rows) == len(names[trace]),
                  tag + ": printed metric table matches BENCHMARK.json")

    for extra in (["--set", "seed=2"], ["--set", "packet_size=4"]):
        code, _, res = bench("toy_load_ramp", 1, 0, *extra)
        check(code == 0 and res is not None and not res["correct"]
              and res["failed"] == res["attempted"],
              "perturbed %s trips the digest check" % extra[1])

    counts = [n for n, u in names[1].items() if u == "count" or n in (
        "alloc.grant_ratio", "alloc.re_requests_per_grant",
        "alloc.grants_per_consumed", "net.alloc_routers_frac",
        "net.active_links_frac", "net.live_packets_mean", "flow.stall_frac")]
    runs = [bench("fig9_reactive", 7, 1)[2] for _ in range(2)]
    check(all(r is not None and r["correct"] for r in runs),
          "traced runs at a non-reference seed match their untraced digests")
    if all(r is not None for r in runs):
        same = all(runs[0]["metrics"][n]["value"] == runs[1]["metrics"][n]["value"]
                   for n in counts)
        check(same, "per-layer counts repeat exactly between two traced runs")

    bare = os.path.join(ROOT, ".bench_build", "selftest", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for path in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path))
    env_run = [sys.executable, os.path.join(bare, "flexbench", "run.py"),
               "--workload", workloads[0], "--seed", "1", "--seconds", "1",
               "--trace", "0"]
    done = subprocess.run(env_run, cwd=bare, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=300,
                          env=dict(os.environ, CARGO_TARGET_DIR=".bench_build"))
    check(done.returncode != 0 and '"correct"' not in done.stdout,
          "fails without a result in a directory holding only the benchmark")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d failure(s)" % len(failures))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
