/**
 * @file
 * Reproduces Figure 3: "Off-chip traffic for the cache-based and
 * streaming systems with 16 CPUs, normalized to a single caching
 * core", split into reads and writes, for FEM, MPEG-2, FIR and
 * BitonicSort.
 *
 * Expected shape (Section 5.1): streaming moves fewer bytes for
 * MPEG-2 and FIR (no write-allocate refills on output streams),
 * about the same for FEM, and *more* for BitonicSort (it writes
 * whole blocks back even when no elements were swapped, while the
 * cache keeps clean lines from writing back).
 */

#include <cstdio>

#include "cmpmem.hh"

using namespace cmpmem;

int
main(int argc, char **argv)
{
    parseBenchArgs(argc, argv);
    std::printf("Figure 3: off-chip traffic, 16 CPUs @ 800 MHz, "
                "normalized to one caching core\n\n");

    SweepSpec spec("fig3_traffic");
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

    TextTable table({"Application", "model", "read", "write", "total",
                     "verified"});
    for (const char *name : {"fem", "mpeg2", "fir", "bitonic"}) {
        const RunResult &base =
            res.runOf(std::string(name) + "/base");
        double denom =
            double(base.stats.dramReadBytes + base.stats.dramWriteBytes);
        for (MemModel m : {MemModel::CC, MemModel::STR}) {
            const RunResult &r =
                res.runOf(fmt("%s/model=%s", name, to_string(m)));
            table.addRow({name, to_string(m),
                          fmtF(r.stats.dramReadBytes / denom, 3),
                          fmtF(r.stats.dramWriteBytes / denom, 3),
                          fmtF((r.stats.dramReadBytes +
                                r.stats.dramWriteBytes) /
                                   denom,
                               3),
                          r.verified ? "yes" : "NO"});
        }
    }
    std::printf("%s", table.format().c_str());
    return finishBench(res);
}
