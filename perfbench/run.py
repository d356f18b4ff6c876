#!/usr/bin/env python3
"""The typeflex benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run builds the perfbench
binary from the checkout's sources (perfbench/CMakeLists.txt) under
.bench_build/perfbench; later runs reuse it. A run
executes one workload for S seconds, checks its outputs against the
workload's oracle, prints a human-readable report and, as the last line
of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer metrics (and writes a Chrome trace next to the binary).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402

# Where each per-layer number comes from: host clock, computed bytes
# over host time, an exact count, or simulated (virtual) time.
KIND = {
    "swm.rhs_gbps": "computed",
    "kernels.triad_gbps": "computed",
    "swm.rhs_bw_frac": "computed",
    "fp.f16_subnormals": "exact",
    "fp.f16_flushes": "exact",
    "fp.f16_overflows": "exact",
    "ensemble.tile_members": "exact",
    "ensemble.rejects": "exact",
    "ensemble.repairs": "exact",
    "swm.halo_messages": "exact",
    "swm.halo_bytes": "exact",
    "des.messages": "exact",
    "des.contended_hops": "exact",
    "des.link_wait_s": "simulated",
}


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then (incrementally) build the perfbench binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources under %s/src: run from a full checkout"
             % ROOT, 2)
    bdir = os.path.join(ROOT, ".bench_build", "perfbench")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=Release"] + gen
        if subprocess.run(cmd, stdout=sys.stderr, timeout=300).returncode:
            fail("configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, timeout=840).returncode:
        fail("build failed")
    return bdir, os.path.join(bdir, "perfbench")


def end_to_end(raw):
    ops = raw["op_s"]
    return {
        "setup_s": stats.median(raw["setup_s"]),
        "work_per_s": stats.windowed_rate(ops, raw["work"] / len(ops)),
        "op_p50_ms": stats.percentile(ops, 50) * 1e3,
        "peak_rss_mib": raw["peak_rss_mib"],
    }


def per_layer(raw):
    def span(name):
        return raw["spans"][name]["dur"]

    def value(name):
        return raw["values"][name]

    med = stats.median
    rhs_gbps = value("size.swm.rhs_bytes")[0] / med(span("swm.rhs")) / 1e9
    triad_gbps = (value("size.kernels.triad_bytes")[0]
                  / med(span("kernels.triad")) / 1e9)
    untraced = med(raw["op_s"])
    return {
        "bench.op_p50_ms": untraced * 1e3,
        "bench.op_p90_ms": stats.percentile(raw["op_s"], 90) * 1e3,
        "swm.stages_ms": med(span("swm.stages")) * 1e3,
        "swm.apply_ms": med(span("swm.apply")) * 1e3,
        "swm.rhs_ms": med(span("swm.rhs")) * 1e3,
        "swm.rhs_gbps": rhs_gbps,
        "kernels.triad_gbps": triad_gbps,
        "swm.rhs_bw_frac": rhs_gbps / triad_gbps,
        "fp.f16_step_ms": med(span("fp.f16_step")) * 1e3,
        "fp.f16_over_f32": med(span("fp.f16_step")) / med(span("fp.f32_step")),
        "fp.f16_subnormals": med(value("fp.f16_subnormals")),
        "fp.f16_flushes": med(value("fp.f16_flushes")),
        "fp.f16_overflows": med(value("fp.f16_overflows")),
        "ensemble.submit_us": med(span("ensemble.submit")) * 1e6,
        "ensemble.job_p50_ms": med(value("ensemble.job_s")) * 1e3,
        "ensemble.tile_members": med(value("ensemble.tile_members")),
        "ensemble.rejects": sum(value("ensemble.rejects"))
                            / len(value("ensemble.rejects")),
        "ensemble.repairs": sum(value("ensemble.repairs"))
                            / len(value("ensemble.repairs")),
        "core.pool_wake_us": med(span("core.pool_region")) * 1e6,
        "mpisim.p2p_halo_us": med(value("mpisim.p2p_halo_s")) * 1e6,
        "mpisim.allreduce_us": med(value("mpisim.allreduce_s")) * 1e6,
        "mpisim.world_setup_ms": med(value("mpisim.world_setup_s")) * 1e3,
        "swm.halo_messages": med(value("swm.halo_messages")),
        "swm.halo_bytes": med(value("swm.halo_bytes")),
        "des.build_ms": med(value("des.build_pass_s")) * 1e3,
        "des.simulate_ms": med(value("des.simulate_pass_s")) * 1e3,
        "des.host_ns_per_msg": med(value("des.simulate_pass_s"))
                               / med(value("des.messages")) * 1e9,
        "des.messages": med(value("des.messages")),
        "des.contended_hops": med(value("des.contended_hops")),
        "des.link_wait_s": med(value("des.link_wait_s")),
        "obs.trace_overhead_frac": med(raw["traced_op_s"]) / untraced - 1,
        "obs.layer_sum_frac": med(raw["spans"]["bench.op"]["covered"])
                              / untraced,
    }


def noise_floor(workload):
    """The A/A spread of op_p50_ms that aa_check.py recorded."""
    with open(os.path.join(HERE, "noise.json")) as f:
        return json.load(f)["workloads"][workload]["op_p50_ms"]["spread"]


def layer_sum_check(workload, raw, floor):
    """The traced layer spans of one op against the untraced op_p50, on
    the two workloads whose op is covered by two layer calls: None where
    there is no check, else (label, ratio, within the noise floor)."""
    med = stats.median
    parts = {
        "swm_f64_large": ("swm.stages_ms + swm.apply_ms",
                          lambda: med(raw["spans"]["swm.stages"]["dur"])
                          + med(raw["spans"]["swm.apply"]["dur"])),
        "des_fig3": ("des.build_ms + des.simulate_ms",
                     lambda: med(raw["values"]["des.build_pass_s"])
                     + med(raw["values"]["des.simulate_pass_s"])),
    }
    if workload not in parts:
        return None
    label, total = parts[workload]
    ratio = total() / med(raw["op_s"])
    return label, ratio, abs(ratio - 1) <= floor


def report(args, raw, metrics, units):
    ops = len(raw["op_s"])
    print("perfbench %s  seed %d  %gs  %s" % (
        args.workload, args.seed, args.seconds,
        "traced" if args.trace else "untraced"))
    print("  work unit: %s" % raw["work_unit"])
    print("  %d set-ups, %d untraced + %d traced ops, %d failed" % (
        len(raw["setup_s"]), ops, len(raw["traced_op_s"]), raw["failed"]))
    for why in raw["failures"]:
        print("  FAILED: " + why)
    if not args.trace:
        notes = {
            "setup_s": "median of %d set-ups" % len(raw["setup_s"]),
            "work_per_s": "%s per host second, median of 1 s windows "
                          "(whole run: %.6g)" % (raw["work_unit"],
                                                 raw["work"] / sum(raw["op_s"])),
            "op_p50_ms": "%d samples" % ops,
            "peak_rss_mib": "VmHWM of the run",
        }
        for name, v in metrics.items():
            print("  %-14s %14.6g %-7s %s" % (name, v, units[name],
                                              notes[name]))
        print("  %-14s %14.6g %-7s %d of %d ops" % (
            "fail_frac", raw["failed"] / raw["attempted"], "1",
            raw["failed"], raw["attempted"]))
        return
    print("  span table (host time, this process):")
    print("    %-22s %7s %12s %12s" % ("span", "count", "incl_ms", "self_ms"))
    for name, s in sorted(raw["spans"].items()):
        incl = sum(s["dur"])
        self_ = incl - sum(s["covered"])
        print("    %-22s %7d %12.3f %12.3f" % (name, len(s["dur"]),
                                              incl * 1e3, self_ * 1e3))
    print("  per-layer metrics:")
    for name, v in metrics.items():
        print("    %-24s %14.6g %-9s %s" % (name, v, units[name],
                                            KIND.get(name, "host")))
    print("  stated sizes (bytes; rhs/triad bytes are computed, not measured):")
    for name, v in sorted(raw["values"].items()):
        if name.startswith("size."):
            print("    %-40s %14.6g" % (name[5:], v[0]))
    print("  modeled A64FX numbers (perf model / DES virtual time, not host):")
    for name, v in sorted(raw["values"].items()):
        if name.startswith("modeled."):
            print("    %-52s %12.6g" % (name[8:], v[0]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    units = {m["name"]: m["unit"]
             for m in bench["per_layer" if args.trace else "end_to_end"]}

    bdir, exe = build()
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--chrome", os.path.join(
            bdir, "trace_%s_%d.json" % (args.workload, args.seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=args.seconds + 120)
    if proc.returncode:
        fail("%s exited with %d" % (args.workload, proc.returncode))
    raw = json.loads(proc.stdout)

    computed = per_layer(raw) if args.trace else end_to_end(raw)
    if set(computed) != set(units):
        fail("metrics %s do not match BENCHMARK.json %s"
             % (sorted(computed), sorted(units)))
    metrics = {name: computed[name] for name in units}
    report(args, raw, metrics, units)
    correct = raw["failed"] == 0
    if args.trace:
        floor = noise_floor(args.workload)
        check = layer_sum_check(args.workload, raw, floor)
        if check:
            label, ratio, within = check
            print("  check: %s = %.3f x untraced op_p50_ms, noise floor "
                  "%.3f: %s" % (label, ratio, floor,
                                "within" if within else
                                "OUTSIDE, the run fails"))
            correct = correct and within
    result = {
        "correct": correct,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {n: {"value": v, "unit": units[n]}
                    for n, v in metrics.items()},
    }
    errors = stats.check_result(result, units)
    if errors:
        fail("result fails its schema: " + "; ".join(errors))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
