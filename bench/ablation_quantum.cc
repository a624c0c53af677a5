/**
 * @file
 * Ablation for DESIGN.md decision #3: the lazy-local-time quantum.
 * Sweeps the core time-quantum and shows that reported execution
 * times are stable (the quantum is a simulation-speed knob, not a
 * hardware parameter) while the host cost of simulation varies.
 */

#include <cstdio>

#include "cmpmem.hh"

using namespace cmpmem;

int
main(int argc, char **argv)
{
    parseBenchArgs(argc, argv);
    std::printf("Ablation: core time-quantum sweep (FIR and merge, "
                "16 cores CC)\n\n");

    // The q=100 point doubles as the reference row (the pre-engine
    // version simulated it twice).
    SweepSpec spec("ablation_quantum");
    spec.base(makeConfig(16, MemModel::CC))
        .baseParams(benchParams())
        .workloads({"fir", "merge"})
        .axis("q", {10, 50, 100, 400, 1600},
              [](SystemConfig &cfg, double v) {
                  cfg.quantumCycles = Cycles(v);
              },
              0);
    SweepResult res = runSweep(spec);

    TextTable table({"workload", "quantum (cycles)", "exec (ms)",
                     "vs q=100", "host (s)", "verified"});
    for (const char *name : {"fir", "merge"}) {
        double ref = res.runOf(fmt("%s/q=100", name))
                         .stats.execSeconds() *
                     1e3;
        for (int q : {10, 50, 100, 400, 1600}) {
            const RunResult &r = res.runOf(fmt("%s/q=%d", name, q));
            double ms = r.stats.execSeconds() * 1e3;
            table.addRow({name, fmt("%d", q), fmtF(ms, 4),
                          fmt("%+.2f%%", 100.0 * (ms - ref) / ref),
                          fmtF(r.hostSeconds, 2),
                          r.verified ? "yes" : "NO"});
        }
    }
    std::printf("%s", table.format().c_str());
    std::printf("\n(small |%%| deltas everywhere are the expected "
                "result)\n");
    return finishBench(res);
}
