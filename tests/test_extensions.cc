/**
 * @file
 * Tests for the modelled-hardware extensions: the Section 7 hybrid
 * bulk-prefetch primitive, the optional bank/open-row DRAM model,
 * and the stats export formats.
 */

#include <gtest/gtest.h>

#include "cmpmem.hh"

namespace cmpmem
{
namespace
{

//
// Hybrid bulk prefetch.
//

KernelTask
prefetchedScan(Context &ctx, Addr base, int lines, Tick *stall_out)
{
    co_await ctx.prefetchBlock(base, std::uint32_t(lines) * 32);
    // Give the prefetches time to land.
    co_await ctx.compute(1000);
    for (int i = 0; i < lines; ++i)
        co_await ctx.load<std::uint32_t>(base + Addr(i) * 32);
    *stall_out = ctx.core().stats().loadStallTicks;
}

KernelTask
coldScan(Context &ctx, Addr base, int lines, Tick *stall_out)
{
    co_await ctx.compute(1000);
    for (int i = 0; i < lines; ++i)
        co_await ctx.load<std::uint32_t>(base + Addr(i) * 32);
    *stall_out = ctx.core().stats().loadStallTicks;
}

TEST(HybridPrefetch, BulkPrefetchHidesScanLatency)
{
    Tick stall_pf = 0, stall_cold = 0;
    {
        SystemConfig cfg = makeConfig(1, MemModel::CC);
        CmpSystem sys(cfg);
        Addr a = sys.mem().alloc(64 * 32);
        sys.bindKernel(0, prefetchedScan(sys.context(0), a, 64,
                                         &stall_pf));
        sys.simulate();
        EXPECT_GT(sys.collectStats().l1Total.prefetchesIssued, 0u);
    }
    {
        SystemConfig cfg = makeConfig(1, MemModel::CC);
        CmpSystem sys(cfg);
        Addr a = sys.mem().alloc(64 * 32);
        sys.bindKernel(0, coldScan(sys.context(0), a, 64,
                                   &stall_cold));
        sys.simulate();
    }
    EXPECT_LT(stall_pf, stall_cold / 4);
}

//
// Bank/open-row DRAM model.
//

TEST(DramBankModel, RowHitsAreFaster)
{
    DramConfig cfg;
    cfg.bankModel = true;
    DramChannel d(cfg);
    Tick miss = d.read(0, 0x0, 32) - d.occupancyFor(32);
    EXPECT_EQ(miss, cfg.accessLatency);
    // Same row, adjacent line: open-row hit.
    Tick t1 = d.nextFreeHint();
    Tick hit = d.read(t1, 0x20, 32) - t1 - d.occupancyFor(32);
    EXPECT_EQ(hit, cfg.rowHitLatency);
    EXPECT_EQ(d.rowHits(), 1u);
    EXPECT_EQ(d.rowMisses(), 1u);
}

TEST(DramBankModel, BankConflictReopensRow)
{
    DramConfig cfg;
    cfg.bankModel = true;
    DramChannel d(cfg);
    Addr row_span = Addr(cfg.rowBytes) * cfg.banks;
    d.read(0, 0x0, 32);
    d.read(0, row_span, 32); // same bank, different row
    d.read(0, 0x0, 32);      // original row was closed
    EXPECT_EQ(d.rowHits(), 0u);
    EXPECT_EQ(d.rowMisses(), 3u);
}

TEST(DramBankModel, FlatModelUnaffected)
{
    DramChannel d(DramConfig{});
    d.read(0, 0x0, 32);
    d.read(0, 0x20, 32);
    EXPECT_EQ(d.rowHits(), 0u);
    EXPECT_EQ(d.rowMisses(), 0u);
}

TEST(DramBankModel, DrainChargesTheDrainedLinesRow)
{
    DramConfig cfg;
    cfg.bankModel = true;
    DramChannel d(cfg);
    L2Cache l2(L2Config{}, d);

    // Dirty lines in distinct rows of DRAM bank 0: draining them must
    // open each line's own row, not one shared row.
    constexpr int kLines = 8;
    const Addr row_span = Addr(cfg.rowBytes) * cfg.banks;
    for (int i = 0; i < kLines; ++i)
        l2.writeLine(0, Addr(i) * row_span, 32, true);
    ASSERT_EQ(d.rowHits() + d.rowMisses(), 0u);

    EXPECT_EQ(l2.drainDirty(), std::uint64_t(kLines));
    EXPECT_EQ(d.rowMisses(), std::uint64_t(kLines));
    EXPECT_EQ(d.rowHits(), 0u);
}

TEST(DramBankModel, WorkloadStillVerifies)
{
    SystemConfig cfg = makeConfig(1, MemModel::CC);
    cfg.dram.bankModel = true;
    WorkloadParams p;
    p.scale = 0;

    // Run manually so the channel's row statistics are observable.
    CmpSystem sys(cfg);
    auto w = createWorkload("fir", p);
    w->setup(sys);
    sys.bindKernel(0, w->kernel(sys.context(0)));
    Tick banked = sys.simulate();
    EXPECT_TRUE(w->verify(sys));
    // Every access, the end-of-run drain included, opens or hits a
    // row. FIR's input and output streams land in the same banks (the
    // arrays are a multiple of the bank span apart) and ping-pong
    // rows, so open-row hits are rare -- real DRAM behaviour the flat
    // model cannot show.
    const DramChannel &dram = sys.dram();
    EXPECT_EQ(dram.rowHits() + dram.rowMisses(),
              dram.readAccesses() + dram.writeAccesses());
    EXPECT_EQ(dram.rowHits(), 66u);
    EXPECT_EQ(dram.rowMisses(), 6078u);

    RunResult flat =
        runWorkload("fir", makeConfig(1, MemModel::CC), p);
    EXPECT_LT(banked, flat.stats.execTicks);
}

//
// Stats export.
//

TEST(StatsExport, JsonAndCsvShapes)
{
    StatSet s;
    s.set("alpha", 1.5);
    s.set("beta", 2);
    EXPECT_EQ(s.toJson(), "{\"alpha\": 1.5, \"beta\": 2}");
    EXPECT_EQ(s.toCsv(), "alpha,beta\n1.5,2\n");
}

} // namespace
} // namespace cmpmem
