/**
 * @file
 * Reproduces Figure 6: "The effect of increased off-chip bandwidth
 * on FIR performance. Measured on 16 cores at 3.2 GHz" — channel
 * bandwidth swept 1.6 to 12.8 GB/s for both models, plus the
 * hardware-prefetching point at 12.8 GB/s.
 *
 * Expected shape (Section 5.4): with more bandwidth the effect of
 * superfluous refills shrinks and the cache-based system approaches
 * the streaming one; "when hardware prefetching is introduced at
 * 12.8 GB/s, load stalls are reduced to 3% of the total execution
 * time".
 */

#include <cstdio>

#include "cmpmem.hh"

using namespace cmpmem;

int
main(int argc, char **argv)
{
    parseBenchArgs(argc, argv);
    std::printf("Figure 6: FIR vs off-chip bandwidth, 16 cores @ "
                "3.2 GHz\n\n");

    // Bandwidth x model cross-product over the declared axes, with
    // the 1-core baseline and the two prefetch remedies as explicit
    // points ("the introduction of techniques such as hardware
    // prefetching and non-allocating stores to the cache-based model
    // eliminates the streaming advantage" -- Abstract).
    SweepSpec spec("fig6_bandwidth");
    spec.base(makeConfig(16, MemModel::CC, 3.2))
        .baseParams(benchParams())
        .workloads({"fir"})
        .axis("gbps", {1.6, 3.2, 6.4, 12.8},
              [](SystemConfig &cfg, double v) {
                  cfg.dram.bandwidthGBps = v;
              })
        .modelAxis();
    spec.point({"fir/base", "fir", makeConfig(1, MemModel::CC, 0.8),
                benchParams(), {{"workload", "fir"}, {"role", "baseline"}}});
    for (bool pfs : {false, true}) {
        SystemConfig pf = makeConfig(16, MemModel::CC, 3.2, 12.8);
        pf.hwPrefetch = true;
        pf.prefetchDepth = 8;
        pf.pfsEnabled = pfs;
        spec.point({pfs ? "fir/pref+pfs" : "fir/pref", "fir", pf,
                    benchParams(),
                    {{"workload", "fir"},
                     {"config", pfs ? "CC+pref+PFS" : "CC+pref"}}});
    }
    SweepResult res = runSweep(spec);

    const RunResult &base = res.runOf("fir/base");
    TextTable table({"GB/s", "config", "total", "useful", "sync",
                     "load", "store", "load frac"});
    auto addRow = [&](const std::string &id, const std::string &gbps,
                      const std::string &label) {
        const RunResult &r = res.runOf(id);
        NormBreakdown b =
            normalizedBreakdown(r.stats, base.stats.execTicks);
        table.addRow({gbps, label, fmtF(b.total(), 4),
                      fmtF(b.useful, 4), fmtF(b.sync, 4),
                      fmtF(b.load, 4), fmtF(b.store, 4),
                      fmtPct(b.load / b.total())});
    };
    for (double gbps : {1.6, 3.2, 6.4, 12.8}) {
        for (MemModel m : {MemModel::CC, MemModel::STR}) {
            addRow(fmt("fir/gbps=%.1f/model=%s", gbps, to_string(m)),
                   fmtF(gbps, 1), to_string(m));
        }
    }
    addRow("fir/pref", "12.8", "CC+pref");
    addRow("fir/pref+pfs", "12.8", "CC+pref+PFS");

    std::printf("%s", table.format().c_str());
    return finishBench(res);
}
