#!/usr/bin/env python3
"""A/A self-check: the benchmark's own noise floor.

    python3 perfbench/aa_check.py [--out perfbench/noise.json]

Runs two interleaved sets (A and B) of 5 untraced runs of the same build
on every workload of BENCHMARK.json, each run run_seconds long with its
own seed, alternating which set goes first. For every workload and
end-to-end metric it records:

  spread  (Q3 - Q1) / median over all 10 values - the noise floor;
  drift   how much worse set B's median is than set A's, or A's than
          B's, whichever is larger, as a share of the other;

next to the bound in BENCHMARK.json they justify. A metric is steady
when its spread stays below a third of its bound and its drift stays
within the bound. The results go to perfbench/noise.json,
which run.py reads to judge its layer-sum checks.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

RUNS_PER_SET = 5


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          stderr=subprocess.DEVNULL, timeout=seconds + 170)
    if proc.returncode:
        sys.exit("aa_check: %s seed %d exited %d" % (workload, seed,
                                                      proc.returncode))
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit("aa_check: %s seed %d failed its checks" % (workload, seed))
    return {k: m["value"] for k, m in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", default=os.path.join(HERE, "noise.json"))
    args = ap.parse_args()

    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    values = {w: {"A": [], "B": []} for w in workloads}
    seed = 1000
    for i in range(RUNS_PER_SET):
        for w in workloads:
            for s in ("AB" if i % 2 == 0 else "BA"):
                values[w][s].append(run_once(w, seed, seconds))
                seed += 1
        print("aa_check: round %d of %d done" % (i + 1, RUNS_PER_SET),
              file=sys.stderr)

    out = {
        "generated": time.strftime("%Y-%m-%d", time.gmtime()),
        "host": "%s, %d CPUs" % (platform.processor() or platform.machine(),
                                 os.cpu_count() or 0),
        "runs_per_set": RUNS_PER_SET,
        "seconds": seconds,
        "workloads": {},
    }
    steady = True
    print("%-15s %-13s %8s %8s %8s %6s" % ("workload", "metric", "spread",
                                           "drift", "bound", "ok"))
    for w in workloads:
        rows = {}
        for m in metrics:
            name = m["name"]
            a = [v[name] for v in values[w]["A"]]
            b = [v[name] for v in values[w]["B"]]
            spread = stats.quartile_spread(a + b)
            drift = max(stats.median_shift(a, b, m["better"]),
                        stats.median_shift(b, a, m["better"]))
            ok = drift <= m["bound"] and spread <= m["bound"] / 3
            steady = steady and ok
            rows[name] = {"spread": spread, "drift": drift,
                          "bound": m["bound"], "ok": ok, "A": a, "B": b}
            print("%-15s %-13s %8.4f %8.4f %8.3f %6s" % (
                w, name, spread, drift, m["bound"], "yes" if ok else "NO"))
        out["workloads"][w] = rows
    with open(args.out, "w") as f:
        json.dump(out, f, indent=1)
        f.write("\n")
    print("aa_check: %s" % ("steady" if steady else "NOT steady"))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
