/**
 * @file
 * Reproduces Figure 2: "Execution times for the two memory models as
 * the number of cores is increased, normalized to a single caching
 * core" — the paper's headline comparison. For every application it
 * prints, per core count and model, the normalized execution time
 * broken into Useful / Sync / Load / Store.
 *
 * Expected shapes (Section 5.1): the seven compute-bound apps are
 * nearly identical across models; 179.art, FIR, MergeSort show CC
 * load stalls that STR double-buffering removes; BitonicSort STR
 * loses at 16 cores; H.264 and MergeSort grow Sync components.
 *
 * Execution goes through the sweep engine: per workload, one 1-core
 * CC baseline job plus the {cores} x {model} points, all run on the
 * worker pool; the points are normalized once the sweep returns.
 */

#include <cstdio>

#include "cmpmem.hh"

using namespace cmpmem;

int
main(int argc, char **argv)
{
    parseBenchArgs(argc, argv);
    std::printf("Figure 2: normalized execution time breakdown "
                "(800 MHz, no prefetching)\n\n");

    SweepSpec spec("fig2_scaling");
    for (const auto &name : workloadNames()) {
        const std::string base_id = name + "/base";
        spec.point({base_id, name, makeConfig(1, MemModel::CC),
                    benchParams(),
                    {{"workload", name}, {"role", "baseline"}}});
        for (int cores : {2, 4, 8, 16}) {
            for (MemModel m : {MemModel::CC, MemModel::STR}) {
                spec.point({fmt("%s/cores=%d/model=%s", name.c_str(),
                                cores, to_string(m)),
                            name, makeConfig(cores, m), benchParams(),
                            {{"workload", name},
                             {"cores", fmt("%d", cores)},
                             {"model", to_string(m)}}});
            }
        }
    }
    SweepResult res = runSweep(spec);

    for (const auto &name : workloadNames()) {
        const RunResult &base = res.runOf(name + "/base");
        std::printf("%s (baseline 1-core CC: %.3f ms)%s\n",
                    name.c_str(), base.stats.execSeconds() * 1e3,
                    base.verified ? "" : " [VERIFY FAILED]");

        TextTable table({"CPUs", "model", "total", "useful", "sync",
                         "load", "store", "verified"});
        for (int cores : {2, 4, 8, 16}) {
            for (MemModel m : {MemModel::CC, MemModel::STR}) {
                const RunResult &r = res.runOf(
                    fmt("%s/cores=%d/model=%s", name.c_str(), cores,
                        to_string(m)));
                NormBreakdown b = normalizedBreakdown(
                    r.stats, base.stats.execTicks);
                table.addRow({fmt("%d", cores), to_string(m),
                              fmtF(b.total(), 3), fmtF(b.useful, 3),
                              fmtF(b.sync, 3), fmtF(b.load, 3),
                              fmtF(b.store, 3),
                              r.verified ? "yes" : "NO"});
            }
        }
        std::printf("%s\n", table.format().c_str());
    }
    return finishBench(res);
}
