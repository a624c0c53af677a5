/**
 * @file
 * Reproduces Figure 9: "The effect of stream programming
 * optimizations on the off-chip bandwidth and performance of MPEG-2
 * at 800 MHz" — the original kernel-per-frame code versus the
 * restructured per-macroblock (blocked + fused) code, both on the
 * cache-based model.
 *
 * Expected shape (Section 6): "the improved producer-consumer
 * locality reduced write-backs from L1 caches by 60%" and the
 * restructured code is significantly faster at every core count,
 * while "instruction cache misses are notably increased in the
 * streaming-optimized code".
 */

#include <cstdio>

#include "cmpmem.hh"

using namespace cmpmem;

int
main(int argc, char **argv)
{
    parseBenchArgs(argc, argv);
    std::printf("Figure 9: stream-programming optimizations, "
                "cache-based MPEG-2 @ 800 MHz\n\n");

    WorkloadParams orig = benchParams();
    orig.streamOptimized = false;
    WorkloadParams opt = benchParams();

    // The variant (workload-parameter) axis rides the cross-product
    // alongside the core-count axis.
    SweepSpec spec("fig9_stream_opt_mpeg2");
    spec.base(makeConfig(16, MemModel::CC))
        .workloads({"mpeg2"})
        .axis("cores", {2, 4, 8, 16},
              [](SystemConfig &cfg, double v) { cfg.cores = int(v); },
              0)
        .axis("variant",
              {{"orig", [orig](SweepJob &j) { j.params = orig; }},
               {"opt", [opt](SweepJob &j) { j.params = opt; }}});
    spec.point({"mpeg2/base", "mpeg2", makeConfig(1, MemModel::CC), opt,
                {{"workload", "mpeg2"}, {"role", "baseline"}}});
    SweepResult res = runSweep(spec);

    const RunResult &base = res.runOf("mpeg2/base");
    TextTable table({"CPUs", "variant", "exec", "read", "write",
                     "L1 wb", "I$ misses", "verified"});
    double denom_traffic =
        double(base.stats.dramReadBytes + base.stats.dramWriteBytes);

    double wb_orig_16 = 0, wb_opt_16 = 0;
    for (int cores : {2, 4, 8, 16}) {
        for (bool optimized : {false, true}) {
            const RunResult &r = res.runOf(
                fmt("mpeg2/cores=%d/variant=%s", cores,
                    optimized ? "opt" : "orig"));
            if (cores == 16) {
                (optimized ? wb_opt_16 : wb_orig_16) =
                    double(r.stats.l1Total.writebacks);
            }
            table.addRow(
                {fmt("%d", cores), optimized ? "CC-optimized" : "CC-orig",
                 fmtF(double(r.stats.execTicks) /
                          double(base.stats.execTicks),
                      3),
                 fmtF(r.stats.dramReadBytes / denom_traffic, 3),
                 fmtF(r.stats.dramWriteBytes / denom_traffic, 3),
                 fmt("%llu",
                     (unsigned long long)r.stats.l1Total.writebacks),
                 fmt("%llu", (unsigned long long)r.stats.icacheMisses),
                 r.verified ? "yes" : "NO"});
        }
    }
    std::printf("%s\n", table.format().c_str());
    if (wb_orig_16 > 0) {
        std::printf("L1 write-backs reduced %.0f%% by the "
                    "stream-programming restructure (paper: 60%%)\n",
                    100.0 * (1.0 - wb_opt_16 / wb_orig_16));
    }
    return finishBench(res);
}
