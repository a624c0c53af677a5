/**
 * @file
 * Reproduces Figure 8: "The effect of 'Prepare for Store' (PFS)
 * instructions on the off-chip traffic for the cache-based system,
 * normalized to a single caching core. Also shown is energy
 * consumption for FIR with 16 cores at 800 MHz."
 *
 * Expected shape (Section 5.5): eliminating superfluous refills
 * "brings the memory traffic and energy consumption of the
 * cache-based model into parity with the streaming model. For
 * MPEG-2, the memory traffic due to write misses was reduced 56%."
 *
 * One sweep serves both tables: the FIR energy rows reuse the same
 * job results as the FIR traffic rows (the pre-engine version of
 * this bench simulated those points twice).
 */

#include <cstdio>

#include "cmpmem.hh"

using namespace cmpmem;

int
main(int argc, char **argv)
{
    parseBenchArgs(argc, argv);
    std::printf("Figure 8: PFS (non-allocating stores), 16 cores @ "
                "800 MHz\n\n");

    SweepSpec spec("fig8_pfs");
    for (const char *name : {"fir", "merge", "mpeg2"}) {
        const std::string base_id = std::string(name) + "/base";
        spec.point({base_id, name, makeConfig(1, MemModel::CC),
                    benchParams(),
                    {{"workload", name}, {"role", "baseline"}}});

        SystemConfig pfs = makeConfig(16, MemModel::CC);
        pfs.pfsEnabled = true;
        spec.point({std::string(name) + "/CC", name,
                    makeConfig(16, MemModel::CC), benchParams(),
                    {{"workload", name}, {"config", "CC"}}});
        spec.point({std::string(name) + "/CC+PFS", name, pfs,
                    benchParams(),
                    {{"workload", name}, {"config", "CC+PFS"}}});
        spec.point({std::string(name) + "/STR", name,
                    makeConfig(16, MemModel::STR), benchParams(),
                    {{"workload", name}, {"config", "STR"}}});
    }
    SweepResult res = runSweep(spec);

    TextTable traffic({"Application", "config", "read", "write",
                       "total", "pfs stores"});
    double mpeg2_read_cc = 0, mpeg2_read_pfs = 0;
    for (const char *name : {"fir", "merge", "mpeg2"}) {
        const RunResult &base =
            res.runOf(std::string(name) + "/base");
        double denom =
            double(base.stats.dramReadBytes + base.stats.dramWriteBytes);
        for (const char *label : {"CC", "CC+PFS", "STR"}) {
            const RunResult &r =
                res.runOf(std::string(name) + "/" + label);
            if (name == std::string("mpeg2")) {
                if (label == std::string("CC"))
                    mpeg2_read_cc = double(r.stats.dramReadBytes);
                else if (label == std::string("CC+PFS"))
                    mpeg2_read_pfs = double(r.stats.dramReadBytes);
            }
            traffic.addRow(
                {name, label, fmtF(r.stats.dramReadBytes / denom, 3),
                 fmtF(r.stats.dramWriteBytes / denom, 3),
                 fmtF((r.stats.dramReadBytes + r.stats.dramWriteBytes) /
                          denom,
                      3),
                 fmt("%llu", (unsigned long long)
                                 r.stats.l1Total.pfsStores)});
        }
    }
    std::printf("%s\n", traffic.format().c_str());

    if (mpeg2_read_cc > 0) {
        std::printf("MPEG-2 read traffic reduced %.0f%% by PFS "
                    "(paper: write-miss traffic -56%%)\n\n",
                    100.0 * (1.0 - mpeg2_read_pfs / mpeg2_read_cc));
    }

    // FIR energy with and without PFS, from the same job results.
    TextTable energy({"FIR config", "core", "I$", "D$/LMem", "net",
                      "L2", "DRAM", "total"});
    double denom = res.runOf("fir/base").energy.totalMj();
    for (const char *label : {"CC", "CC+PFS", "STR"}) {
        const EnergyBreakdown &e =
            res.runOf(std::string("fir/") + label).energy;
        energy.addRow({label, fmtF(e.coreMj / denom, 3),
                       fmtF(e.icacheMj / denom, 3),
                       fmtF(e.dstoreMj / denom, 3),
                       fmtF(e.networkMj / denom, 3),
                       fmtF(e.l2Mj / denom, 3),
                       fmtF(e.dramMj / denom, 3),
                       fmtF(e.totalMj() / denom, 3)});
    }
    std::printf("%s", energy.format().c_str());
    return finishBench(res);
}
