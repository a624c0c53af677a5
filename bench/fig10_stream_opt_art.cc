/**
 * @file
 * Reproduces Figure 10: "The effect of stream programming
 * optimizations on the performance of 179.art at 800 MHz" — the
 * SPEC-like AoS layout with one pass per vector operation versus
 * the SoA + fused-loop restructure, both on the cache-based model.
 *
 * Expected shape (Section 6): "the impact on performance is
 * dramatic, even at small core counts (7x speedup)" — the
 * restructure removes the sparse stride-32 access pattern and the
 * large temporary vectors.
 */

#include <cstdio>

#include "cmpmem.hh"

using namespace cmpmem;

int
main(int argc, char **argv)
{
    parseBenchArgs(argc, argv);
    std::printf("Figure 10: stream-programming optimizations, "
                "cache-based 179.art @ 800 MHz\n\n");

    WorkloadParams orig = benchParams();
    orig.streamOptimized = false;
    WorkloadParams opt = benchParams();

    SweepSpec spec("fig10_stream_opt_art");
    spec.base(makeConfig(16, MemModel::CC))
        .workloads({"art"})
        .axis("cores", {2, 4, 8, 16},
              [](SystemConfig &cfg, double v) { cfg.cores = int(v); },
              0)
        .axis("variant",
              {{"orig", [orig](SweepJob &j) { j.params = orig; }},
               {"opt", [opt](SweepJob &j) { j.params = opt; }}});
    spec.point({"art/base", "art", makeConfig(1, MemModel::CC), opt,
                {{"workload", "art"}, {"role", "baseline"}}});
    SweepResult res = runSweep(spec);

    const RunResult &base = res.runOf("art/base");
    TextTable table({"CPUs", "variant", "total", "useful", "sync",
                     "load", "store", "speedup", "verified"});
    for (int cores : {2, 4, 8, 16}) {
        double orig_total = 0;
        for (bool optimized : {false, true}) {
            const RunResult &r = res.runOf(
                fmt("art/cores=%d/variant=%s", cores,
                    optimized ? "opt" : "orig"));
            NormBreakdown b =
                normalizedBreakdown(r.stats, base.stats.execTicks);
            if (!optimized)
                orig_total = b.total();
            table.addRow(
                {fmt("%d", cores), optimized ? "CC-optimized" : "CC-orig",
                 fmtF(b.total(), 3), fmtF(b.useful, 3),
                 fmtF(b.sync, 3), fmtF(b.load, 3), fmtF(b.store, 3),
                 optimized ? fmt("%.1fx", orig_total / b.total())
                           : std::string("-"),
                 r.verified ? "yes" : "NO"});
        }
    }
    std::printf("%s", table.format().c_str());
    return finishBench(res);
}
