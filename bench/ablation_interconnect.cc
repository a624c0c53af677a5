/**
 * @file
 * Ablation for DESIGN.md decision #2: interconnect provisioning.
 * Sweeps the cluster-bus width and the crossbar port width to show
 * that the paper's Table 2 configuration leaves the hierarchical
 * interconnect un-bottlenecked (the comparison is about the memory
 * models, not about starving the network), and to show where an
 * under-provisioned network would start to distort results.
 */

#include <cstdio>

#include "cmpmem.hh"

using namespace cmpmem;

int
main(int argc, char **argv)
{
    parseBenchArgs(argc, argv);
    std::printf("Ablation: interconnect width sweep (16 cores CC @ "
                "3.2 GHz, bandwidth-hungry FIR)\n\n");

    SweepSpec spec("ablation_interconnect");
    spec.base(makeConfig(16, MemModel::CC, 3.2))
        .baseParams(benchParams())
        .workloads({"fir"})
        .axis("bus", {8, 16, 32, 64},
              [](SystemConfig &cfg, double v) {
                  cfg.net.busWidthBytes = std::uint32_t(v);
              },
              0)
        .axis("xbar", {8, 16},
              [](SystemConfig &cfg, double v) {
                  cfg.net.xbarWidthBytes = std::uint32_t(v);
              },
              0);
    SweepResult res = runSweep(spec);

    TextTable table({"bus bytes", "xbar bytes", "exec (ms)",
                     "bus busy frac", "verified"});
    for (std::uint32_t bus : {8u, 16u, 32u, 64u}) {
        for (std::uint32_t xbar : {8u, 16u}) {
            const RunResult &r =
                res.runOf(fmt("fir/bus=%u/xbar=%u", bus, xbar));
            SystemConfig cfg = makeConfig(16, MemModel::CC, 3.2);
            // Bus utilization from aggregate bytes and beat time.
            double busy =
                double(r.stats.busBytes / bus) *
                double(cfg.net.busBeat) /
                (double(r.stats.execTicks) * cfg.clusters());
            table.addRow({fmt("%u", bus), fmt("%u", xbar),
                          fmtF(r.stats.execSeconds() * 1e3, 4),
                          fmtPct(busy),
                          r.verified ? "yes" : "NO"});
        }
    }
    std::printf("%s", table.format().c_str());
    return finishBench(res);
}
