/**
 * @file
 * Reproduces Figure 4: "Energy consumption for the cache-based and
 * streaming systems with 16 CPUs, normalized to a single caching
 * core" — per-component breakdown (core, I-cache, D-cache/local
 * memory, network, L2, DRAM) for FEM, MPEG-2, FIR and BitonicSort.
 *
 * Expected shape (Section 5.2): where streaming eliminates
 * superfluous refills it saves 10-25% energy, "the energy
 * differential in nearly every case comes from the DRAM system";
 * the D-cache-vs-local-store difference is insignificant because
 * per-access energy is dominated by off-chip accesses.
 */

#include <cstdio>

#include "cmpmem.hh"

using namespace cmpmem;

int
main(int argc, char **argv)
{
    parseBenchArgs(argc, argv);
    std::printf("Figure 4: energy breakdown, 16 CPUs @ 800 MHz, "
                "normalized to one caching core\n\n");

    SweepSpec spec("fig4_energy");
    for (const char *name : {"fem", "mpeg2", "fir", "bitonic"}) {
        const std::string base_id = std::string(name) + "/base";
        spec.point({base_id, name, makeConfig(1, MemModel::CC),
                    benchParams(),
                    {{"workload", name}, {"role", "baseline"}}});
        for (MemModel m : {MemModel::CC, MemModel::STR}) {
            spec.point({fmt("%s/model=%s", name, to_string(m)), name,
                        makeConfig(16, m), benchParams(),
                        {{"workload", name}, {"model", to_string(m)}}});
        }
    }
    SweepResult res = runSweep(spec);

    TextTable table({"Application", "model", "core", "I$", "D$/LMem",
                     "net", "L2", "DRAM", "total", "verified"});
    for (const char *name : {"fem", "mpeg2", "fir", "bitonic"}) {
        double denom =
            res.runOf(std::string(name) + "/base").energy.totalMj();
        for (MemModel m : {MemModel::CC, MemModel::STR}) {
            const RunResult &r =
                res.runOf(fmt("%s/model=%s", name, to_string(m)));
            const EnergyBreakdown &e = r.energy;
            table.addRow(
                {name, to_string(m), fmtF(e.coreMj / denom, 3),
                 fmtF(e.icacheMj / denom, 3),
                 fmtF(e.dstoreMj / denom, 3),
                 fmtF(e.networkMj / denom, 3), fmtF(e.l2Mj / denom, 3),
                 fmtF(e.dramMj / denom, 3),
                 fmtF(e.totalMj() / denom, 3),
                 r.verified ? "yes" : "NO"});
        }
    }
    std::printf("%s", table.format().c_str());
    return finishBench(res);
}
