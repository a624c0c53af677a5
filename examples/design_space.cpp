/**
 * @file
 * Design-space exploration with the public API: sweep core count and
 * memory-channel bandwidth for a chosen workload on both models and
 * print a scaling matrix — the kind of study Section 5.3/5.4 of the
 * paper runs, available as a one-command tool.
 *
 * The whole study is one declarative SweepSpec: three named axes
 * (cores, gbps, model) cross-multiplied over the workload and
 * executed on the engine's worker pool (CMPMEM_JOBS to override).
 *
 *   ./design_space [workload]
 */

#include <cstdio>

#include "cmpmem.hh"

using namespace cmpmem;

int
main(int argc, char **argv)
{
    const std::string workload = argc > 1 ? argv[1] : "merge";

    std::printf("design-space sweep: %s (800 MHz cores)\n\n",
                workload.c_str());

    SweepSpec spec("design_space");
    spec.base(makeConfig(16, MemModel::CC))
        .workloads({workload})
        .axis("cores", {2, 4, 8, 16},
              [](SystemConfig &cfg, double v) { cfg.cores = int(v); },
              0)
        .axis("gbps", {1.6, 3.2, 6.4},
              [](SystemConfig &cfg, double v) {
                  cfg.dram.bandwidthGBps = v;
              })
        .modelAxis();
    spec.point({workload + "/base", workload, makeConfig(1, MemModel::CC),
                {}, {{"workload", workload}, {"role", "baseline"}}});
    SweepResult res = runSweep(spec);

    const RunResult &base = res.runOf(workload + "/base");
    std::printf("baseline: 1 caching core, 3.2 GB/s -> %.3f ms\n\n",
                base.stats.execSeconds() * 1e3);

    TextTable table({"cores", "GB/s", "CC speedup", "STR speedup",
                     "CC dram busy", "STR dram busy"});
    for (int cores : {2, 4, 8, 16}) {
        for (double gbps : {1.6, 3.2, 6.4}) {
            double speedup[2] = {0, 0};
            double busy[2] = {0, 0};
            int i = 0;
            for (MemModel m : {MemModel::CC, MemModel::STR}) {
                const RunResult &r = res.runOf(
                    fmt("%s/cores=%d/gbps=%.1f/model=%s",
                        workload.c_str(), cores, gbps, to_string(m)));
                speedup[i] = double(base.stats.execTicks) /
                             double(r.stats.execTicks);
                busy[i] = double(r.stats.dramBusyTicks) /
                          double(r.stats.execTicks);
                ++i;
            }
            table.addRow({fmt("%d", cores), fmtF(gbps, 1),
                          fmt("%.2fx", speedup[0]),
                          fmt("%.2fx", speedup[1]), fmtPct(busy[0]),
                          fmtPct(busy[1])});
        }
    }
    std::printf("%s", table.format().c_str());
    std::printf("\n%s\n", res.summary().c_str());
    return res.allRan() ? 0 : 1;
}
