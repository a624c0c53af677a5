/**
 * @file
 * Ablation of the DRAM model: the paper (following DRAMsim) uses a
 * flat 70 ns random-access channel; this sweep adds the optional
 * bank/open-row model and shows how row locality shifts absolute
 * numbers while leaving the CC-vs-STR comparison intact — evidence
 * that the paper's flat-latency simplification is safe for its
 * conclusions.
 *
 * Row-hit statistics come straight from RunStats (the pre-engine
 * version hand-built a third CmpSystem just to read the channel
 * counters).
 */

#include <cstdio>

#include "cmpmem.hh"

using namespace cmpmem;

int
main(int argc, char **argv)
{
    parseBenchArgs(argc, argv);
    std::printf("Ablation: flat vs bank/open-row DRAM model "
                "(16 cores @ 800 MHz)\n\n");

    SweepSpec spec("ablation_dram");
    spec.base(makeConfig(16, MemModel::CC))
        .baseParams(benchParams())
        .workloads({"fir", "merge"})
        .axis("dram",
              {{"flat", [](SweepJob &j) { j.cfg.dram.bankModel = false; }},
               {"banked", [](SweepJob &j) { j.cfg.dram.bankModel = true; }}})
        .modelAxis();
    SweepResult res = runSweep(spec);

    TextTable table({"workload", "dram model", "CC exec (ms)",
                     "STR exec (ms)", "STR/CC", "row hit rate"});
    for (const char *name : {"fir", "merge"}) {
        for (const char *dram : {"flat", "banked"}) {
            const RunResult &cc = res.runOf(
                fmt("%s/dram=%s/model=CC", name, dram));
            const RunResult &str = res.runOf(
                fmt("%s/dram=%s/model=STR", name, dram));
            double cc_ms = cc.stats.execSeconds() * 1e3;
            double str_ms = str.stats.execSeconds() * 1e3;
            double row_hits = double(cc.stats.dramRowHits);
            double row_total =
                row_hits + double(cc.stats.dramRowMisses);
            table.addRow(
                {name,
                 dram == std::string("banked") ? "bank/open-row"
                                               : "flat 70ns",
                 fmtF(cc_ms, 3), fmtF(str_ms, 3),
                 fmtF(str_ms / cc_ms, 3),
                 row_total > 0 ? fmtPct(row_hits / row_total)
                               : std::string("-")});
        }
    }
    std::printf("%s", table.format().c_str());
    return finishBench(res);
}
