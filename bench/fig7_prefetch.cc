/**
 * @file
 * Reproduces Figure 7: "The effect of hardware prefetching on
 * performance. P4 refers to the prefetch depth of 4. Measured on 2
 * cores at 3.2 GHz with a 12.8 GB/s memory channel" — MergeSort and
 * 179.art as CC, CC+P4, and STR.
 *
 * Expected shape (Section 5.4): "hardware prefetching significantly
 * improves the latency tolerance of the cache-based systems; data
 * stalls are virtually eliminated ... a small degree of prefetching
 * is sufficient to hide over 200 cycles of memory latency."
 */

#include <cstdio>

#include "cmpmem.hh"

using namespace cmpmem;

int
main(int argc, char **argv)
{
    parseBenchArgs(argc, argv);
    std::printf("Figure 7: hardware prefetching, 2 cores @ 3.2 GHz, "
                "12.8 GB/s\n\n");

    SweepSpec spec("fig7_prefetch");
    for (const char *name : {"merge", "art"}) {
        const std::string base_id = std::string(name) + "/base";
        spec.point({base_id, name,
                    makeConfig(1, MemModel::CC, 0.8, 12.8),
                    benchParams(),
                    {{"workload", name}, {"role", "baseline"}}});

        SystemConfig cc = makeConfig(2, MemModel::CC, 3.2, 12.8);
        SystemConfig p4 = cc;
        p4.hwPrefetch = true;
        p4.prefetchDepth = 4;
        SystemConfig str = makeConfig(2, MemModel::STR, 3.2, 12.8);
        spec.point({std::string(name) + "/CC", name, cc, benchParams(),
                    {{"workload", name}, {"config", "CC"}}});
        spec.point({std::string(name) + "/CC+P4", name, p4,
                    benchParams(),
                    {{"workload", name}, {"config", "CC+P4"}}});
        spec.point({std::string(name) + "/STR", name, str,
                    benchParams(),
                    {{"workload", name}, {"config", "STR"}}});
    }
    SweepResult res = runSweep(spec);

    TextTable table({"Application", "config", "total", "useful",
                     "sync", "load", "store", "pf issued",
                     "pf useful"});
    for (const char *name : {"merge", "art"}) {
        const RunResult &base =
            res.runOf(std::string(name) + "/base");
        for (const char *label : {"CC", "CC+P4", "STR"}) {
            const RunResult &r =
                res.runOf(std::string(name) + "/" + label);
            NormBreakdown b =
                normalizedBreakdown(r.stats, base.stats.execTicks);
            table.addRow(
                {name, label, fmtF(b.total(), 4), fmtF(b.useful, 4),
                 fmtF(b.sync, 4), fmtF(b.load, 4), fmtF(b.store, 4),
                 fmt("%llu", (unsigned long long)
                                 r.stats.l1Total.prefetchesIssued),
                 fmt("%llu", (unsigned long long)
                                 r.stats.l1Total.prefetchesUseful)});
        }
    }

    std::printf("%s", table.format().c_str());
    return finishBench(res);
}
