/**
 * @file
 * Reproduces Figure 5: "Normalized execution time as the computation
 * rate of processor cores is increased (16 cores)" — MPEG-2, FIR and
 * BitonicSort at 0.8/1.6/3.2/6.4 GHz with the on-chip network, L2
 * and memory system held constant.
 *
 * Expected shape (Section 5.3): latency-sensitive MPEG-2 lets the
 * streaming version pull ahead (~9% at 6.4 GHz in the paper);
 * bandwidth-sensitive FIR saturates the channel — CC first, due to
 * superfluous refills (streaming ~36% faster at the top); Bitonic
 * saturates the *streaming* version first because it writes more
 * (CC ~19% faster).
 */

#include <cstdio>

#include "cmpmem.hh"

using namespace cmpmem;

int
main(int argc, char **argv)
{
    parseBenchArgs(argc, argv);
    std::printf("Figure 5: computational-throughput scaling, 16 cores"
                "\n\n");

    SweepSpec spec("fig5_comp_throughput");
    for (const char *name : {"mpeg2", "fir", "bitonic"}) {
        const std::string base_id = std::string(name) + "/base";
        spec.point({base_id, name, makeConfig(1, MemModel::CC, 0.8),
                    benchParams(),
                    {{"workload", name}, {"role", "baseline"}}});
        for (double ghz : {0.8, 1.6, 3.2, 6.4}) {
            for (MemModel m : {MemModel::CC, MemModel::STR}) {
                spec.point({fmt("%s/ghz=%.1f/model=%s", name, ghz,
                                to_string(m)),
                            name, makeConfig(16, m, ghz),
                            benchParams(),
                            {{"workload", name},
                             {"ghz", fmtF(ghz, 1)},
                             {"model", to_string(m)}}});
            }
        }
    }
    SweepResult res = runSweep(spec);

    for (const char *name : {"mpeg2", "fir", "bitonic"}) {
        const RunResult &base =
            res.runOf(std::string(name) + "/base");
        std::printf("%s (baseline 1-core CC @ 0.8 GHz)\n", name);

        TextTable table({"GHz", "model", "total", "useful", "sync",
                         "load", "store", "STR/CC"});
        for (double ghz : {0.8, 1.6, 3.2, 6.4}) {
            double cc_total = 0;
            for (MemModel m : {MemModel::CC, MemModel::STR}) {
                const RunResult &r =
                    res.runOf(fmt("%s/ghz=%.1f/model=%s", name, ghz,
                                  to_string(m)));
                NormBreakdown b = normalizedBreakdown(
                    r.stats, base.stats.execTicks);
                if (m == MemModel::CC)
                    cc_total = b.total();
                table.addRow(
                    {fmtF(ghz, 1), to_string(m), fmtF(b.total(), 4),
                     fmtF(b.useful, 4), fmtF(b.sync, 4),
                     fmtF(b.load, 4), fmtF(b.store, 4),
                     m == MemModel::STR
                         ? fmtF(b.total() / cc_total, 3)
                         : std::string("-")});
            }
        }
        std::printf("%s\n", table.format().c_str());
    }
    return finishBench(res);
}
