/**
 * @file
 * Reproduces Table 3: "Memory characteristics of the applications
 * measured on the cache-based model using 16 cores running at
 * 800 MHz."
 *
 * Columns: L1 D-miss rate, L2 D-miss rate, instructions per L1
 * D-miss, core cycles per L2 D-miss (execution cycles divided by L2
 * misses, per core), and off-chip bandwidth. Absolute values depend
 * on the scaled inputs (see EXPERIMENTS.md); the cross-application
 * ordering is the reproduction target: compute-bound codecs at the
 * top, the data-bound FIR/sort/art group with high bandwidth and
 * low instructions-per-miss at the bottom.
 */

#include <cstdio>

#include "cmpmem.hh"

using namespace cmpmem;

int
main(int argc, char **argv)
{
    parseBenchArgs(argc, argv);
    std::printf("Table 3: memory characteristics, CC model, 16 cores "
                "@ 800 MHz\n\n");

    SweepSpec spec("table3");
    spec.base(makeConfig(16, MemModel::CC))
        .baseParams(benchParams())
        .workloads(workloadNames());
    SweepResult res = runSweep(spec);

    TextTable table({"Application", "L1 D-miss", "L2 D-miss",
                     "Instr/L1-miss", "Cycles/L2-miss", "Off-chip B/W",
                     "verified"});
    SystemConfig cfg = makeConfig(16, MemModel::CC);
    for (const auto &name : workloadNames()) {
        const RunResult &r = res.runOf(name);
        const RunStats &s = r.stats;

        double instr_per_miss =
            s.l1Total.demandMisses()
                ? double(s.coreTotal.instructions()) /
                      double(s.l1Total.demandMisses())
                : 0.0;
        double cycles = double(s.execTicks) /
                        double(cfg.coreClock().period());
        double cyc_per_l2 =
            s.l2Misses ? cycles * cfg.cores / double(s.l2Misses) : 0.0;

        table.addRow({name, fmtPct(s.l1MissRate()),
                      fmtPct(s.l2MissRate()), fmtF(instr_per_miss, 1),
                      fmtF(cyc_per_l2, 1),
                      fmt("%.1f MB/s", s.offChipBytesPerSec() / 1e6),
                      r.verified ? "yes" : "NO"});
    }

    std::printf("%s\n", table.format().c_str());
    std::printf("Paper reference rows (Table 3): MPEG-2 0.58%%/85.3%%/"
                "324.8/135.4/292 MB/s ... FIR 0.63%%/99.8%%/14.6/20.4/"
                "1839 MB/s; see EXPERIMENTS.md for the full "
                "comparison.\n");
    return finishBench(res);
}
