/**
 * @file
 * Ablation for the paper's Section 7 hybrid proposal: "bulk transfer
 * primitives for cache-based systems could enable more efficient
 * macroscopic prefetching."
 *
 * A streaming-style copy-transform loop runs three ways on 2 cores
 * at 3.2 GHz with a 12.8 GB/s channel (a latency-dominated point):
 * plain cache-based (reactive, blocking misses),
 * cache-based with software bulk prefetch of the next block
 * (macroscopic prefetching on cache hardware), and the streaming
 * model (DMA double-buffering). The hybrid should recover most of
 * the streaming latency tolerance without abandoning caches.
 *
 * The three points are custom-run sweep jobs (they bind hand-written
 * kernels rather than a registry workload), so they still execute on
 * the engine's pool and land in the JSON artifact.
 */

#include <cstdio>

#include "cmpmem.hh"
#include "sim/log.hh"

using namespace cmpmem;

namespace
{

constexpr std::uint32_t kElems = 1u << 16;
constexpr std::uint32_t kBlock = 256;

KernelTask
kernCc(Context &ctx, Addr in, Addr out, Barrier &bar, bool hybrid)
{
    Range r = splitRange(kElems, ctx.tid(), ctx.nthreads());
    for (auto base = r.begin; base < r.end; base += kBlock) {
        auto count =
            std::uint32_t(std::min<std::uint64_t>(kBlock, r.end - base));
        if (hybrid && base + kBlock < r.end) {
            // Macroscopic prefetch of the next block, input and
            // output (the output lines still need ownership).
            co_await ctx.prefetchBlock(in + (base + kBlock) * 4,
                                       kBlock * 4);
        }
        for (std::uint32_t i = 0; i < count; ++i) {
            auto v = co_await ctx.load<std::uint32_t>(
                in + (base + i) * 4);
            co_await ctx.compute(2);
            co_await ctx.storeNA<std::uint32_t>(out + (base + i) * 4,
                                                v * 3 + 1);
        }
    }
    co_await ctx.barrier(bar);
}

KernelTask
kernStr(Context &ctx, Addr in, Addr out, Barrier &bar)
{
    Range r = splitRange(kElems, ctx.tid(), ctx.nthreads());
    const std::uint32_t lsIn[2] = {0, kBlock * 4};
    const std::uint32_t lsOut = 2 * kBlock * 4;
    Context::Ticket get[2] = {0, 0};
    int buf = 0;
    if (r.begin < r.end) {
        get[0] = co_await ctx.dmaGet(in + r.begin * 4, lsIn[0],
                                     kBlock * 4);
    }
    for (auto base = r.begin; base < r.end; base += kBlock, buf ^= 1) {
        auto count =
            std::uint32_t(std::min<std::uint64_t>(kBlock, r.end - base));
        if (base + kBlock < r.end) {
            get[buf ^ 1] = co_await ctx.dmaGet(
                in + (base + kBlock) * 4, lsIn[buf ^ 1], kBlock * 4);
        }
        co_await ctx.dmaWait(get[buf]);
        for (std::uint32_t i = 0; i < count; ++i) {
            auto v = co_await ctx.lsRead<std::uint32_t>(lsIn[buf] +
                                                        i * 4);
            co_await ctx.compute(2);
            co_await ctx.lsWrite<std::uint32_t>(lsOut + i * 4,
                                                v * 3 + 1);
        }
        auto put = co_await ctx.dmaPut(out + base * 4, lsOut,
                                       count * 4);
        co_await ctx.dmaWait(put);
    }
    co_await ctx.barrier(bar);
}

RunResult
run(MemModel model, bool hybrid)
{
    // Latency-dominated point (2 cores, ample bandwidth), where
    // macroscopic prefetching has room to act -- at channel
    // saturation no prefetch scheme can help (see fig6).
    SystemConfig cfg = makeConfig(2, model, 3.2, 12.8);
    CmpSystem sys(cfg);
    Addr in = sys.mem().alloc(kElems * 4);
    Addr out = sys.mem().alloc(kElems * 4);
    for (std::uint32_t i = 0; i < kElems; ++i)
        sys.mem().write<std::uint32_t>(in + Addr(i) * 4, i);
    Barrier bar(sys.cores());
    for (int i = 0; i < sys.cores(); ++i) {
        if (model == MemModel::STR)
            sys.bindKernel(i, kernStr(sys.context(i), in, out, bar));
        else
            sys.bindKernel(i,
                           kernCc(sys.context(i), in, out, bar, hybrid));
    }
    sys.simulate();

    RunResult result;
    result.stats = sys.collectStats();
    result.stats.workload = "copy_transform";
    result.stats.variant = hybrid ? "hybrid" : "base";
    result.energy = EnergyModel(cfg.energy).compute(result.stats);
    result.verified = true;
    for (std::uint32_t i = 0; i < kElems; ++i) {
        if (sys.mem().read<std::uint32_t>(out + Addr(i) * 4) !=
            i * 3 + 1) {
            warn("hybrid ablation kernel produced wrong data");
            result.verified = false;
            break;
        }
    }
    return result;
}

SweepJob
job(const char *id, MemModel model, bool hybrid)
{
    SweepJob j;
    j.id = id;
    j.cfg = makeConfig(2, model, 3.2, 12.8);
    j.tags = {{"config", id}};
    j.run = [model, hybrid] { return run(model, hybrid); };
    return j;
}

} // namespace

int
main(int argc, char **argv)
{
    parseBenchArgs(argc, argv);
    std::printf("Ablation: Section 7 hybrid bulk-prefetch primitive "
                "(copy-transform, 2 cores @ 3.2 GHz, 12.8 GB/s)\n\n");

    SweepSpec spec("ablation_hybrid");
    spec.point(job("CC", MemModel::CC, false));
    spec.point(job("CC+bulk", MemModel::CC, true));
    spec.point(job("STR", MemModel::STR, false));
    SweepResult res = runSweep(spec);

    auto us = [&](const char *id) {
        return double(res.runOf(id).stats.execTicks) /
               double(ticksPerUs);
    };
    double cc = us("CC");
    double hybrid = us("CC+bulk");
    double str = us("STR");

    TextTable table({"config", "exec (us)", "vs CC"});
    table.addRow({"CC (reactive)", fmtF(cc, 2), "1.00x"});
    table.addRow({"CC + bulk prefetch", fmtF(hybrid, 2),
                  fmt("%.2fx", cc / hybrid)});
    table.addRow({"STR (DMA double-buffer)", fmtF(str, 2),
                  fmt("%.2fx", cc / str)});
    std::printf("%s", table.format().c_str());
    return finishBench(res);
}
