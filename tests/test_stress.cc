/**
 * @file
 * Runtime MESI checker + randomized coherence stress harness tests.
 *
 * Two halves:
 *
 *  - a configuration matrix running the hidden "stress" workload
 *    under the attached checker (core counts 1/4/16, CC and STR,
 *    prefetch and PFS variants, different sharing degrees) and
 *    requiring zero violations with real event coverage;
 *
 *  - checker self-validation on a hand-built cache stack: clean
 *    traffic stays clean, while forged illegal states (M+S, dual-M),
 *    data corrupted behind the checker's back, and duplicate
 *    MSHR/store-buffer entries must each be detected and reported
 *    with timestamp, core id, line address, and a transition trace.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "check/coherence_checker.hh"
#include "cmpmem.hh"
#include "mem/dram.hh"
#include "mem/l1_controller.hh"
#include "mem/l2_cache.hh"
#include "sim/event_queue.hh"

namespace cmpmem
{
namespace
{

//
// Configuration matrix: the stress generator must verify and run
// violation-free under the checker in every memory model.
//

struct StressCase
{
    const char *tag;
    int cores;
    MemModel model;
    bool prefetch;
    bool pfs;
    std::uint64_t seed;
    int sharingDegree;
};

std::string
stressName(const testing::TestParamInfo<StressCase> &info)
{
    return info.param.tag;
}

class StressMatrix : public testing::TestWithParam<StressCase>
{
};

TEST_P(StressMatrix, RunsCleanUnderChecker)
{
    const StressCase &c = GetParam();
    SystemConfig cfg = makeConfig(c.cores, c.model);
    cfg.checkCoherence = true;
    cfg.hwPrefetch = c.prefetch;
    cfg.pfsEnabled = c.pfs;

    WorkloadParams p;
    p.scale = 0;
    p.seed = c.seed;
    p.sharingDegree = c.sharingDegree;

    RunResult r = runWorkload("stress", cfg, p);
    EXPECT_TRUE(r.verified) << c.tag;
    EXPECT_EQ(r.stats.checkerViolations, 0u) << c.tag;
    // The checker really watched the run, it was not a no-op attach.
    EXPECT_GT(r.stats.checkerEvents, 0u) << c.tag;
}

constexpr StressCase kStressCases[] = {
    {"cc1", 1, MemModel::CC, false, false, 11, 4},
    {"cc4", 4, MemModel::CC, false, false, 12, 4},
    {"cc16", 16, MemModel::CC, false, false, 13, 8},
    {"str1", 1, MemModel::STR, false, false, 14, 4},
    {"str4", 4, MemModel::STR, false, false, 15, 4},
    {"str16", 16, MemModel::STR, false, false, 16, 8},
    {"cc4_prefetch", 4, MemModel::CC, true, false, 17, 2},
    {"cc4_pfs", 4, MemModel::CC, false, true, 18, 4},
    // Sharing-degree extremes: fully private groups vs one hot pool.
    {"cc8_degree1", 8, MemModel::CC, false, false, 19, 1},
    {"cc8_degree8", 8, MemModel::CC, false, false, 20, 8},
};

INSTANTIATE_TEST_SUITE_P(Matrix, StressMatrix,
                         testing::ValuesIn(kStressCases), stressName);

/** A longer soak at scale 1 to reach deeper interleavings. */
TEST(StressSoak, Scale1FourCoresClean)
{
    SystemConfig cfg = makeConfig(4, MemModel::CC);
    cfg.checkCoherence = true;
    WorkloadParams p;
    p.seed = 99;
    RunResult r = runWorkload("stress", cfg, p);
    EXPECT_TRUE(r.verified);
    EXPECT_EQ(r.stats.checkerViolations, 0u);
}

/** Off by default: no checker object, no events, nothing counted. */
TEST(StressHarness, CheckerOffByDefault)
{
    SystemConfig cfg = makeConfig(4, MemModel::CC);
    ASSERT_FALSE(cfg.checkCoherence);
    CmpSystem sys(cfg);
    EXPECT_EQ(sys.checker(), nullptr);

    RunResult r = runWorkload("stress", cfg, {});
    EXPECT_TRUE(r.verified);
    EXPECT_EQ(r.stats.checkerEvents, 0u);
    EXPECT_EQ(r.stats.checkerViolations, 0u);
}

/**
 * "stress" is not a paper application: creatable by name, invisible
 * to the sweeps that iterate workloadNames().
 */
TEST(StressHarness, HiddenFromWorkloadSweeps)
{
    auto names = workloadNames();
    EXPECT_EQ(std::count(names.begin(), names.end(), "stress"), 0);
    auto w = createWorkload("stress", {});
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(w->name(), "stress");
}

//
// Snoop presence filter (DESIGN.md §21): after a checked run its
// per-bucket counts must equal the valid lines in every L1's tags.
//

void
runAndAuditPresence(const char *workload, int cores, WorkloadParams p,
                    bool prefetch = false, bool pfs = false)
{
    SCOPED_TRACE(workload);
    SystemConfig cfg = makeConfig(cores, MemModel::CC);
    cfg.checkCoherence = true;
    cfg.hwPrefetch = prefetch;
    cfg.pfsEnabled = pfs;
    CmpSystem sys(cfg);
    auto w = createWorkload(workload, p);
    w->setup(sys);
    for (int i = 0; i < sys.cores(); ++i)
        sys.bindKernel(i, w->kernel(sys.context(i)));
    sys.simulate();
    EXPECT_TRUE(w->verify(sys));
    EXPECT_EQ(sys.checker()->violations(), 0u);

    const CoherenceFabric &fab = sys.fabric();
    const std::size_t buckets = fab.presenceBuckets();
    ASSERT_GT(buckets, 0u);
    std::size_t valid = 0;
    std::size_t mismatches = 0;
    for (int c = 0; c < sys.cores(); ++c) {
        std::vector<unsigned> want(buckets, 0);
        sys.core(c).dcache()->tags().forEachValid(
            [&](const CacheArray::Line &l) {
                ++want[fab.presenceBucket(l.tag)];
                ++valid;
            });
        for (std::size_t b = 0; b < buckets; ++b) {
            if (fab.presenceCount(b, c) != want[b] && mismatches++ == 0)
                ADD_FAILURE() << "core " << c << " bucket " << b
                              << ": filter " << fab.presenceCount(b, c)
                              << ", tags " << want[b];
        }
    }
    EXPECT_EQ(mismatches, 0u);
    EXPECT_GT(valid, 0u); // the audit was not vacuous
}

TEST(SnoopFilter, MatchesTagArrays)
{
    WorkloadParams p;
    p.scale = 0;
    p.seed = 13;
    p.sharingDegree = 8;
    runAndAuditPresence("stress", 16, p);
    p.seed = 17;
    p.sharingDegree = 2;
    runAndAuditPresence("stress", 4, p, /*prefetch=*/true, /*pfs=*/true);
    WorkloadParams fem;
    fem.scale = 0;
    runAndAuditPresence("fem", 16, fem);
}

TEST(SnoopFilter, OnlyCoherentCachesAllocateIt)
{
    CmpSystem cc(makeConfig(16, MemModel::CC));
    EXPECT_GT(cc.fabric().presenceBuckets(), 0u);
    CmpSystem str(makeConfig(16, MemModel::STR));
    EXPECT_EQ(str.fabric().presenceBuckets(), 0u);
}

//
// Checker self-validation on a hand-built stack. Traffic here is
// sequential (eq.run() after every operation), so there are no
// issue-time-snoop overlaps: any violation the checker reports in
// these tests is one we forged on purpose.
//

class CheckerFixture : public testing::Test
{
  protected:
    void
    build(int cores)
    {
        checker = std::make_unique<CoherenceChecker>(fmem, 32);
        dram = std::make_unique<DramChannel>(DramConfig{});
        l2 = std::make_unique<L2Cache>(L2Config{}, *dram);
        fabric = std::make_unique<CoherenceFabric>(
            InterconnectConfig{}, cores, 4, *l2, *dram);
        l2->setObserver(checker.get());
        fabric->attachChecker(checker.get());
        for (int i = 0; i < cores; ++i) {
            l1s.push_back(std::make_unique<L1Controller>(
                i, L1Config{}, eq, *fabric));
            l1s.back()->attachChecker(checker.get());
        }
    }

    void
    load(int core, Addr a)
    {
        l1s[core]->load(eq.now(), a, [](Tick) {});
        eq.run();
    }

    void
    store(int core, Addr a, bool pfs = false)
    {
        // Mirror the Context contract: the functional value lands in
        // memory at issue, before the timing store is posted (the
        // checker snapshots its golden copy from this).
        fmem.write<std::uint32_t>(a, std::uint32_t(a) ^ 0xc0ffee);
        if (checker)
            checker->onStoreData(eq.now(), core, Addr(a & ~Addr(31)));
        l1s[core]->store(eq.now(), a, pfs, [](Tick) {});
        eq.run();
    }

    EventQueue eq;
    FunctionalMemory fmem;
    std::unique_ptr<CoherenceChecker> checker;
    std::unique_ptr<DramChannel> dram;
    std::unique_ptr<L2Cache> l2;
    std::unique_ptr<CoherenceFabric> fabric;
    std::vector<std::unique_ptr<L1Controller>> l1s;
};

TEST_F(CheckerFixture, CleanTrafficReportsNothing)
{
    build(4);
    load(0, 0x1000);
    load(1, 0x1000); // downgrade to shared
    store(2, 0x1000); // invalidate both, take ownership
    store(2, 0x1000);
    load(3, 0x1000); // dirty supply + writeback
    store(0, 0x2000, true); // PFS allocate
    load(1, 0x3000);
    EXPECT_EQ(checker->audit(eq.now()), 0u);
    EXPECT_EQ(checker->violations(), 0u);
    EXPECT_EQ(checker->overlapsExcused(), 0u);
    EXPECT_GT(checker->eventsObserved(), 0u);
    EXPECT_TRUE(checker->report().empty());
}

/**
 * Satellite: forge an illegal M+S pair behind the checker's back and
 * require the audit to catch it (shadow disagreement + real-tag SWMR)
 * and to format a debuggable report.
 */
TEST_F(CheckerFixture, ForgedSharedBesideModifiedIsCaught)
{
    build(4);
    store(0, 0x1000); // core 0 legitimately holds M
    ASSERT_EQ(checker->violations(), 0u);

    l1s[1]->forgeStateForTest(0x1000, MesiState::Shared);
    EXPECT_GT(checker->audit(eq.now()), 0u);
    EXPECT_GT(checker->violations(), 0u);

    const std::string &rep = checker->report();
    // Timestamp, core id, line address, and the transition trace all
    // appear in the formatted report.
    EXPECT_NE(rep.find("coherence violation @"), std::string::npos);
    EXPECT_NE(rep.find("core 1"), std::string::npos);
    EXPECT_NE(rep.find("0x1000"), std::string::npos);
    EXPECT_NE(rep.find("last transitions for 0x1000"),
              std::string::npos);
    EXPECT_NE(rep.find("Shared copies"), std::string::npos);
    // The per-line ring buffer remembers how core 0 got to M.
    EXPECT_NE(checker->traceFor(0x1000).find("-> M"),
              std::string::npos);
}

TEST_F(CheckerFixture, ForgedSecondOwnerIsCaught)
{
    build(4);
    store(0, 0x1000);
    l1s[2]->forgeStateForTest(0x1000, MesiState::Modified);
    EXPECT_GT(checker->audit(eq.now()), 0u);
    EXPECT_NE(checker->report().find("single-writer violated"),
              std::string::npos);
}

/**
 * Satellite: data-value integrity. Mutate functional memory without
 * an onStoreData() observation; the golden differential must flag it.
 */
TEST_F(CheckerFixture, UnobservedDataMutationIsCaught)
{
    build(2);
    store(0, 0x2000); // golden copy captured here
    ASSERT_EQ(checker->violations(), 0u);

    fmem.write<std::uint32_t>(0x2004, 0xdeadbeef); // behind its back
    EXPECT_GT(checker->audit(eq.now()), 0u);
    EXPECT_NE(checker->report().find("data differential failed"),
              std::string::npos);
    EXPECT_NE(checker->report().find("byte offset 4"),
              std::string::npos);
}

TEST_F(CheckerFixture, DuplicateMshrAllocationIsCaught)
{
    build(2);
    checker->onMshrAllocate(10, 0, 0x4000);
    EXPECT_EQ(checker->violations(), 0u);
    checker->onMshrAllocate(20, 0, 0x4000);
    EXPECT_EQ(checker->violations(), 1u);
    EXPECT_NE(checker->report().find("duplicate MSHR allocation"),
              std::string::npos);
    // Completion drains the entry; a second completion is an error.
    checker->onMshrComplete(30, 0, 0x4000);
    checker->onMshrComplete(40, 0, 0x4000);
    EXPECT_EQ(checker->violations(), 2u);
}

TEST_F(CheckerFixture, DuplicateStoreBufferEntryIsCaught)
{
    build(2);
    checker->onSbInsert(10, 1, 0x5000);
    checker->onSbInsert(20, 1, 0x5000);
    EXPECT_EQ(checker->violations(), 1u);
    EXPECT_NE(checker->report().find("duplicate store-buffer entry"),
              std::string::npos);
}

/** Real traffic never trips the MSHR/store-buffer duplicate checks:
 *  same-line requests merge instead of re-allocating. */
TEST_F(CheckerFixture, MergedRequestsDoNotFalsePositive)
{
    build(1);
    l1s[0]->load(0, 0x6000, [](Tick) {});
    l1s[0]->load(0, 0x6008, [](Tick) {}); // merges into the MSHR
    l1s[0]->store(0, 0x7000, false, [](Tick) {});
    l1s[0]->store(0, 0x7004, false, [](Tick) {}); // coalesces in SB
    eq.run();
    EXPECT_EQ(checker->audit(eq.now()), 0u);
    EXPECT_EQ(checker->violations(), 0u);
}

} // namespace
} // namespace cmpmem
