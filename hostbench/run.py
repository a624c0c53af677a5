#!/usr/bin/env python3
"""Host-performance benchmark of cmpmem: build, run, check, report.

Run from the root of a cmpmem checkout:

    python3 hostbench/run.py --workload cc_congested --seed 1 \\
        --seconds 30 --trace 0

Builds the library and the two drivers (hostbench/CMakeLists.txt) into
.bench_build/hostbench, runs the driver for one workload and prints
every metric by name with its unit. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json from the
plain driver, at the reference host speed: the plain driver times a
fixed reference burst on its own thread every 20 ms of CPU time, and
each pass's times are scaled by REF_NOMINAL_S over the mean burst time
of that pass (hostbench/README.md, "Host-speed reference"). --trace 1 reports the per-layer metrics: it runs the
plain driver and then the traced one for half of --seconds each,
checks that both give every job the same stats digest, and takes the
tracing overhead as the difference of their pass_s medians.

Exit status 0 when every job passed every check; 1 when a job failed
(the result line is still printed, with "correct": false); 2 when the
benchmark could not be built or run.

--scale and --inject-hang are for hostbench/test_hostbench.py: the
first sets WorkloadParams.scale, the second adds a job that hangs and
must be caught by its watchdog.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "hostbench")

# Per-run time limit, with room left for reporting.
RUN_LIMIT_S = 170
# The first run in a checkout also builds the library.
BUILD_LIMIT_S = 800

# The mean time of one reference burst (driver.cc, hostref) on the
# reference host, a 4-vCPU Xeon VM. Timed figures are scaled to it.
REF_NOMINAL_S = 600e-6

LAYERS = ["mem.resource", "mem.l1", "mem.l2", "mem.dram", "stream.dma",
          "stream.local_store"]


def fail(msg):
    """Stop without a result line: the benchmark itself could not run."""
    print("hostbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no cmpmem sources next to hostbench/ (expected src/)")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-G", "Ninja",
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4"])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                r = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                   timeout=BUILD_LIMIT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step %s failed: %s" % (cmd[:2], e))
            if r.returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed, see " + log_path)


def run_driver(binary, args, seconds, deadline):
    """Run one driver; return (exit code, its summary JSON)."""
    cmd = [os.path.join(BUILD, binary)] + args + ["--seconds", str(seconds)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                           timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("%s did not finish in time" % binary)
    lines = r.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if r.returncode not in (0, 1) or not lines:
        fail("%s exited with %d" % (binary, r.returncode))
    try:
        return r.returncode, json.loads(lines[-1])
    except ValueError:
        fail("%s printed no summary" % binary)


def median(xs):
    return statistics.median(xs)


def describe(name, xs, unit):
    """The human-readable line for a sampled timing metric."""
    n = len(xs)
    line = "%s: median %.6g %s over %d samples" % (name, median(xs), unit, n)
    # A tail percentile only where at least ten samples lie beyond it.
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100.0 >= 10:
            q = statistics.quantiles(xs, n=100, method="inclusive")[p - 1]
            line += ", p%d %.6g %s" % (p, q, unit)
            break
    print(line)


def mean_burst(total_s, bursts):
    return total_s / bursts if bursts else None


def host_speed(s):
    """Per pass, the reference's nominal over its measured burst time
    (wall, CPU), and the same over the whole run. A figure with no
    burst to go by (tiny test runs) is taken at face value."""
    run = s["run_ref"]
    run_wall = mean_burst(run["wall_s"], run["bursts"])
    run_cpu = mean_burst(run["cpu_s"], run["bursts"])

    def speed(mean, fallback):
        mean = mean or fallback
        return REF_NOMINAL_S / mean if mean else 1.0

    passes = [(speed(mean_burst(w, n), run_wall),
               speed(mean_burst(c, n), run_cpu))
              for w, c, n in zip(s["ref_wall_s"], s["ref_cpu_s"],
                                 s["ref_bursts"])]
    return passes, speed(run_wall, None)


def end_to_end(s):
    """The end-to-end metrics at the reference host speed: each pass's
    times are scaled by the host speed its reference bursts measured
    during that pass, and set-up rounds by the whole run's."""
    instr = s["sim"]["instructions"]
    passes, run_speed = host_speed(s)
    pass_s = [t * w for t, (w, _) in zip(s["pass_s"], passes)]
    minst = [instr / (cpu * c) / 1e6
             for cpu, (_, c) in zip(s["sim_cpu_s"], passes)]
    setup = [t * run_speed for t in s["setup_s"]]
    describe("pass_s", pass_s, "s")
    describe("sim_minst_per_s", minst, "Minst/s")
    describe("setup_s", setup, "s")
    run = s["run_ref"]
    print("as measured: pass_s median %.6g s, sim_minst_per_s median "
          "%.6g Minst/s, setup_s median %.6g s; reference burst mean "
          "%.6g us over %d bursts (nominal %.6g us)"
          % (median(s["pass_s"]),
             median([instr / cpu / 1e6 for cpu in s["sim_cpu_s"]]),
             median(s["setup_s"]),
             1e6 * (mean_burst(run["wall_s"], run["bursts"]) or 0),
             run["bursts"], 1e6 * REF_NOMINAL_S))
    return {
        "pass_s": (median(pass_s), "s"),
        "sim_minst_per_s": (median(minst), "Minst/s"),
        "setup_s": (median(setup), "s"),
        "peak_rss_mb": (s["peak_rss_mb"], "MB"),
    }


def per_layer(traced, plain):
    lay = traced["layers"]
    sim = traced["sim"]
    sim_s = median(traced["sim_wall_s"])
    m = {}

    def ratio(a, b):
        return a / b if b else 0.0

    def layer(name, with_calls=True):
        self_s = median(lay[name]["self_s"])
        calls = median(lay[name]["calls"])
        if with_calls:
            m[name + ".calls"] = (calls, "count")
            m[name + ".ns_per_call"] = (ratio(self_s * 1e9, calls), "ns")
        m[name + ".self_s"] = (self_s, "s")
        m[name + ".share"] = (ratio(self_s, sim_s), "ratio")
        return calls, self_s

    for name in LAYERS:
        layer(name)
    _, core_s = layer("sim_core", with_calls=False)

    res_calls = median(lay["mem.resource"]["calls"])
    m["mem.resource.sim_wait_ns_per_call"] = (
        ratio(median(traced["resource_wait_ticks"]) / 1000.0, res_calls),
        "ns")
    m["mem.l1.hit_ratio"] = (ratio(sim["l1_hits"], sim["l1_accesses"]),
                             "ratio")
    m["mem.l1.fastpath_ratio"] = (
        ratio(sim["l1_fastpath_hits"], sim["l1_accesses"]), "ratio")
    m["mem.miss_path_allocs"] = (sim["miss_path_allocs"], "count")
    m["mem.l2.hit_ratio"] = (ratio(sim["l2_hits"], sim["l2_accesses"]),
                             "ratio")
    m["mem.dram.bytes"] = (sim["dram_bytes"], "bytes")
    m["mem.dram.util"] = (sim["dram_util_max"], "ratio")
    m["stream.dma.accesses"] = (sim["dma_accesses"], "count")
    m["stream.dma.bytes"] = (sim["dma_bytes"], "bytes")
    m["sim.events"] = (sim["events"], "count")
    m["sim.ns_per_event"] = (ratio(core_s * 1e9, sim["events"]), "ns")
    m["core.stall_share"] = (ratio(sim["stall_ticks"], sim["core_ticks"]),
                             "ratio")
    m["workloads.setup_s"] = (median(traced["workload_setup_s"]), "s")
    m["workloads.verify_s"] = (median(traced["verify_s"]), "s")
    m["system.build_s"] = (median(traced["build_s"]), "s")
    m["system.collect_s"] = (median(traced["collect_s"]), "s")
    m["trace.overhead_s"] = (
        median(traced["pass_s"]) - median(plain["pass_s"]), "s")
    run = plain["run_ref"]
    m["host.ref_burst_us"] = (
        1e6 * (mean_burst(run["wall_s"], run["bursts"]) or 0), "us")
    m["host.pass_raw_s"] = (median(plain["pass_s"]), "s")

    # Where simulate() went: the shares above plus simulate()'s own
    # remainder outside the event loop add up to 1 by construction.
    outside = median(lay["simulate"]["self_s"])
    print("simulate() %.6g s per pass: %s, outside the event loop %.4f"
          % (sim_s, ", ".join("%s %.4f" % (n, m[n + ".share"][0])
                              for n in LAYERS + ["sim_core"]),
             ratio(outside, sim_s)))
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=int, default=1)
    ap.add_argument("--inject-hang", action="store_true")
    a = ap.parse_args()

    build()
    deadline = time.monotonic() + RUN_LIMIT_S
    args = ["--workload", a.workload, "--seed", str(a.seed),
            "--scale", str(a.scale)]
    if a.inject_hang:
        args.append("--inject-hang")

    problems = []
    if a.trace == 0:
        code, s = run_driver("hostbench", args, a.seconds, deadline)
        runs = [(code, s)]
        metrics = end_to_end(s)
    else:
        half = a.seconds / 2.0
        plain = run_driver("hostbench", args, half, deadline)
        traced = run_driver("hostbench_traced", args, half, deadline)
        runs = [plain, traced]
        for job, rec in plain[1]["jobs"].items():
            other = traced[1]["jobs"].get(job, {}).get("digest")
            if other != rec["digest"]:
                problems.append("%s: traced digest %s, untraced %s"
                                % (job, other, rec["digest"]))
        metrics = per_layer(traced[1], plain[1])

    attempted = sum(s["attempted"] for _, s in runs)
    failed = sum(s["failed"] for _, s in runs) + len(problems)
    for p in problems:
        print("FAILED: " + p)
    print("failed_frac: %.6g ratio (%d of %d jobs)"
          % (failed / float(attempted), failed, attempted))
    for name, (value, unit) in metrics.items():
        print("%s: %.9g %s" % (name, value, unit))
    correct = failed == 0 and all(code == 0 for code, _ in runs)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
