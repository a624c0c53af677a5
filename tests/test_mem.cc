/**
 * @file
 * Unit tests for the memory substrates: functional memory, cache
 * tag arrays, MSHRs, store buffer, resources, DRAM channel, L2, and
 * interconnect timing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <iterator>
#include <map>
#include <vector>

#include "check/coherence_checker.hh"
#include "sim/rng.hh"
#include "mem/cache_array.hh"
#include "mem/dram.hh"
#include "mem/functional_memory.hh"
#include "mem/interconnect.hh"
#include "mem/l2_cache.hh"
#include "mem/l1_controller.hh"
#include "mem/mshr.hh"
#include "mem/resource.hh"
#include "mem/store_buffer.hh"
#include "sim/event_queue.hh"
#include "sim/sim_error.hh"

namespace cmpmem
{
namespace
{

//
// FunctionalMemory.
//

TEST(FunctionalMemory, ReadWriteRoundTrip)
{
    FunctionalMemory mem;
    mem.write<std::uint32_t>(0x1000, 0xdeadbeef);
    EXPECT_EQ(mem.read<std::uint32_t>(0x1000), 0xdeadbeefu);
    mem.write<double>(0x2000, 3.25);
    EXPECT_DOUBLE_EQ(mem.read<double>(0x2000), 3.25);
}

TEST(FunctionalMemory, UntouchedMemoryReadsZero)
{
    FunctionalMemory mem;
    EXPECT_EQ(mem.read<std::uint64_t>(0x123456789), 0u);
    EXPECT_EQ(mem.pageCount(), 0u); // reads don't materialize pages
}

TEST(FunctionalMemory, CrossPageAccesses)
{
    FunctionalMemory mem;
    Addr boundary = FunctionalMemory::pageBytes;
    std::uint8_t out[8] = {};
    std::uint8_t in[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    mem.write(boundary - 4, in, 8);
    mem.read(boundary - 4, out, 8);
    EXPECT_EQ(std::memcmp(in, out, 8), 0);
    EXPECT_EQ(mem.pageCount(), 2u);
}

TEST(FunctionalMemory, AllocatorAlignsAndAdvances)
{
    FunctionalMemory mem;
    Addr a = mem.alloc(10, 64);
    Addr b = mem.alloc(10, 64);
    EXPECT_EQ(a % 64, 0u);
    EXPECT_EQ(b % 64, 0u);
    EXPECT_GE(b, a + 10);
    EXPECT_NE(a, 0u); // address zero reserved as null sentinel
}

TEST(FunctionalMemory, TypedAccessorsSpanPageBoundary)
{
    FunctionalMemory mem;
    Addr boundary = 7 * FunctionalMemory::pageBytes;
    mem.write<std::uint64_t>(boundary - 4, 0x1122334455667788ull);
    EXPECT_EQ(mem.read<std::uint64_t>(boundary - 4),
              0x1122334455667788ull);
    // The halves are visible through page-local reads too.
    EXPECT_EQ(mem.read<std::uint32_t>(boundary - 4), 0x55667788u);
    EXPECT_EQ(mem.read<std::uint32_t>(boundary), 0x11223344u);
}

TEST(FunctionalMemory, ReadSpanningRegionEndAndSparsePages)
{
    FunctionalMemory mem;
    Addr base = mem.alloc(64, 64);
    mem.write<std::uint32_t>(base, 0xaabbccddu);

    // A read that starts inside the bump region and runs past its
    // end must splice region bytes, sparse-page bytes, and untouched
    // (zero) bytes together exactly like the plain map would.
    Addr past = base + 64 * FunctionalMemory::pageBytes;
    mem.write<std::uint32_t>(past, 0x11223344u);
    std::vector<std::uint8_t> all(past + 4 - base);
    mem.read(base, all.data(), all.size());
    std::uint32_t head, tail;
    std::memcpy(&head, all.data(), 4);
    std::memcpy(&tail, all.data() + all.size() - 4, 4);
    EXPECT_EQ(head, 0xaabbccddu);
    EXPECT_EQ(tail, 0x11223344u);
    for (std::size_t i = 4; i + 4 < all.size(); ++i)
        ASSERT_EQ(all[i], 0u) << "at offset " << i;
}

TEST(FunctionalMemory, ValuesSurviveAllocGrowthOverSparsePages)
{
    FunctionalMemory mem;
    // Write well past the current bump region so the bytes land in
    // sparse pages, warming the translation cache on the way.
    Addr first = mem.alloc(8, 64);
    Addr ahead = first + 512 * FunctionalMemory::pageBytes + 12;
    mem.write<std::uint64_t>(ahead, 0xfeedfacecafebeefull);
    EXPECT_EQ(mem.read<std::uint64_t>(ahead), 0xfeedfacecafebeefull);

    // Growing the allocator across those pages migrates them into
    // the contiguous region; values and stale translations must not
    // change what's observed.
    Addr big = mem.alloc(1024 * FunctionalMemory::pageBytes, 64);
    EXPECT_LE(big, ahead);
    EXPECT_EQ(mem.read<std::uint64_t>(ahead), 0xfeedfacecafebeefull);
    mem.write<std::uint64_t>(ahead, 0x0123456789abcdefull);
    EXPECT_EQ(mem.read<std::uint64_t>(ahead), 0x0123456789abcdefull);
    // Neighbouring untouched bytes still read zero after migration.
    EXPECT_EQ(mem.read<std::uint64_t>(ahead + 8), 0u);
}

TEST(FunctionalMemory, TranslationCacheAliasesResolveCorrectly)
{
    FunctionalMemory mem;
    // Pages whose page numbers collide in a small direct-mapped
    // translation cache (16-page stride) must not alias.
    std::vector<Addr> addrs;
    for (int i = 0; i < 8; ++i)
        addrs.push_back(Addr(i) * 16 * FunctionalMemory::pageBytes + 8);
    for (std::size_t i = 0; i < addrs.size(); ++i)
        mem.write<std::uint64_t>(addrs[i], 0x1000 + i);
    for (int pass = 0; pass < 2; ++pass)
        for (std::size_t i = 0; i < addrs.size(); ++i)
            ASSERT_EQ(mem.read<std::uint64_t>(addrs[i]), 0x1000 + i);
}

//
// CacheArray.
//

TEST(CacheArray, HitAfterAllocate)
{
    CacheArray c({1024, 2, 32});
    CacheArray::Victim v;
    auto &line = c.allocate(0x100, v);
    line.state = MesiState::Exclusive;
    EXPECT_FALSE(v.valid);
    auto *hit = c.lookup(0x110); // same line
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->tag, 0x100u);
    EXPECT_EQ(c.lookup(0x200), nullptr);
}

TEST(CacheArray, LruVictimSelection)
{
    // 2-way, 16 sets, 32 B lines: addresses 32*16 apart collide.
    CacheArray c({1024, 2, 32});
    const Addr setStride = 32 * 16;
    CacheArray::Victim v;
    c.allocate(0, v).state = MesiState::Exclusive;
    c.allocate(setStride, v).state = MesiState::Exclusive;
    // Touch address 0 so setStride becomes LRU.
    c.touch(*c.lookup(0));
    c.allocate(2 * setStride, v).state = MesiState::Exclusive;
    EXPECT_TRUE(v.valid);
    EXPECT_EQ(v.addr, setStride);
    EXPECT_NE(c.lookup(0), nullptr);
    EXPECT_EQ(c.lookup(setStride), nullptr);
}

TEST(CacheArray, DirtyVictimReported)
{
    CacheArray c({64, 1, 32}); // 2 sets, direct-mapped
    CacheArray::Victim v;
    c.allocate(0, v).state = MesiState::Modified;
    c.allocate(64, v); // same set (2 sets * 32 B)
    EXPECT_TRUE(v.valid);
    EXPECT_TRUE(v.dirty);
    EXPECT_EQ(v.addr, 0u);
}

TEST(CacheArray, ForEachDirtyCleansLines)
{
    CacheArray c({1024, 2, 32});
    CacheArray::Victim v;
    // Distinct sets (16 sets x 32 B lines).
    c.allocate(0x000, v).state = MesiState::Modified;
    c.allocate(0x020, v).state = MesiState::Modified;
    c.allocate(0x040, v).state = MesiState::Shared;
    int seen = 0;
    auto n = c.forEachDirty([&](Addr) { ++seen; });
    EXPECT_EQ(n, 2u);
    EXPECT_EQ(seen, 2);
    EXPECT_EQ(c.forEachDirty([&](Addr) {}), 0u); // now clean
}

TEST(CacheArray, RejectsNonPowerOfTwoGeometry)
{
    // Set indexing is a shift+mask, so every geometry field must be
    // a power of two; anything else used to truncate silently in
    // sets() and now raises SimErrorKind::Config.
    const CacheGeometry bad[] = {
        {48 * 1024, 2, 32}, // non-pow2 size
        {32 * 1024, 3, 32}, // non-pow2 assoc
        {32 * 1024, 2, 48}, // non-pow2 line
        {32, 2, 32},        // fewer than one set
        {0, 2, 32},         // zero size
    };
    for (const auto &g : bad) {
        try {
            CacheArray c(g);
            FAIL() << "geometry " << g.sizeBytes << "/" << g.assoc
                   << "/" << g.lineBytes << " accepted";
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), SimErrorKind::Config);
        }
    }
    // The boundary case (exactly one set) is legal.
    CacheArray one({64, 2, 32});
    EXPECT_EQ(one.geometry().sets(), 1u);
}

TEST(CacheArray, SetIndexMatchesDivideModulo)
{
    // The shift/mask path must agree with the arithmetic definition
    // (addr / lineBytes) % sets for addresses well past 2^32.
    CacheGeometry geom{16 * 1024, 4, 64};
    CacheArray c(geom);
    Rng rng(7);
    for (int i = 0; i < 2000; ++i) {
        Addr addr = (Addr(rng.nextBelow(1u << 30)) << 8) ^
                    rng.nextBelow(1u << 20);
        Addr line = addr & ~Addr(geom.lineBytes - 1);
        CacheArray::Victim v;
        if (!c.lookup(addr))
            c.allocate(addr, v).state = MesiState::Exclusive;
        // A hit through lookup() proves the probe indexed the same
        // set the reference set-index function selects.
        auto *hit = c.lookup(line + geom.lineBytes - 1);
        ASSERT_NE(hit, nullptr);
        EXPECT_EQ(hit->tag, line);
    }
}

/**
 * Property test: the tag array against a reference LRU model across
 * geometries.
 */
class CacheArrayLru
    : public testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(CacheArrayLru, MatchesReferenceModel)
{
    auto [size_kb, assoc] = GetParam();
    CacheGeometry geom{std::uint32_t(size_kb) * 1024,
                       std::uint32_t(assoc), 32};
    CacheArray c(geom);

    // Reference: per-set list of tags in LRU order.
    std::map<Addr, std::vector<Addr>> ref;
    auto setOf = [&](Addr line) {
        return (line / 32) % geom.sets();
    };

    Rng rng(99);
    for (int i = 0; i < 20000; ++i) {
        Addr line = (rng.nextBelow(4096)) * 32;
        auto &set = ref[setOf(line)];
        auto it = std::find(set.begin(), set.end(), line);
        bool ref_hit = it != set.end();

        CacheArray::Line *got = c.lookup(line);
        EXPECT_EQ(got != nullptr, ref_hit) << "iter " << i;

        if (ref_hit) {
            set.erase(it);
            set.push_back(line);
            c.touch(*got);
        } else {
            if (set.size() == geom.assoc)
                set.erase(set.begin());
            set.push_back(line);
            CacheArray::Victim v;
            c.allocate(line, v).state = MesiState::Exclusive;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheArrayLru,
    testing::Values(std::make_tuple(8, 2), std::make_tuple(32, 2),
                    std::make_tuple(16, 4), std::make_tuple(4, 1),
                    std::make_tuple(64, 16)));

//
// MshrFile.
//

TEST(Mshr, MergeAndComplete)
{
    MshrFile m(4);
    EXPECT_FALSE(m.outstanding(0x100));
    m.allocate(0x100, false);
    EXPECT_TRUE(m.outstanding(0x100));

    int calls = 0;
    Tick seen = 0;
    m.addWaiter(0x100, [&](Tick t) { ++calls; seen = t; });
    EXPECT_TRUE(m.merge(0x100, false, [&](Tick) { ++calls; }));
    // Store merged onto a non-exclusive fill reports the mismatch.
    EXPECT_FALSE(m.merge(0x100, true, [&](Tick) { ++calls; }));

    m.complete(0x100, 777);
    EXPECT_EQ(calls, 3);
    EXPECT_EQ(seen, 777u);
    EXPECT_FALSE(m.outstanding(0x100));
    EXPECT_EQ(m.merges(), 2u);
}

TEST(Mshr, CapacityTracking)
{
    MshrFile m(2);
    m.allocate(0x20, false);
    m.allocate(0x40, true);
    EXPECT_FALSE(m.available());
    EXPECT_EQ(m.inFlight(), 2u);
    m.complete(0x20, 1);
    EXPECT_TRUE(m.available());
    EXPECT_EQ(m.peakOccupancy(), 2u);
}

TEST(Mshr, CapacityPressureChurnStaysAllocationFree)
{
    // Sustained full-occupancy churn across many distinct line
    // addresses: slot and waiter-node reuse must never touch the
    // heap past the construction-time reservation (DESIGN.md §18).
    MshrFile m(8);
    std::uint64_t fired = 0;
    for (int round = 0; round < 2000; ++round) {
        Addr base = Addr(round) * 0x1000;
        for (int s = 0; s < 8; ++s)
            m.allocate(base + Addr(s) * 0x40, (s & 1) != 0);
        EXPECT_FALSE(m.available());
        for (int s = 0; s < 8; ++s)
            for (int w = 0; w < 3; ++w)
                m.addWaiter(base + Addr(s) * 0x40,
                            [&fired](Tick) { ++fired; });
        // Complete in reverse allocation order: backward-shift
        // deletion must keep the open-addressed probe chains intact.
        for (int s = 7; s >= 0; --s)
            m.complete(base + Addr(s) * 0x40, Tick(round));
        EXPECT_TRUE(m.available());
    }
    EXPECT_EQ(fired, 2000u * 8 * 3);
    EXPECT_EQ(m.inFlight(), 0u);
    EXPECT_EQ(m.hostAllocs(), 0u);
}

TEST(Mshr, WaitersFireInFifoOrderAcrossPoolReuse)
{
    MshrFile m(2);
    std::vector<int> order;
    for (int round = 0; round < 3; ++round) {
        order.clear();
        m.allocate(0x100, true);
        for (int i = 0; i < 4; ++i)
            m.addWaiter(0x100,
                        [&order, i](Tick) { order.push_back(i); });
        m.complete(0x100, 5);
        // Recycled free-list nodes must not perturb FIFO wake-up.
        EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    }
    EXPECT_EQ(m.hostAllocs(), 0u);
}

//
// StoreBuffer.
//

TEST(StoreBuffer, FillDrainAndSpaceWaiter)
{
    StoreBuffer sb(2);
    sb.insert(0x20);
    sb.insert(0x40);
    EXPECT_TRUE(sb.full());
    EXPECT_TRUE(sb.contains(0x20));

    Tick woke = 0;
    sb.waitForSpace([&](Tick t) { woke = t; });
    sb.complete(0x20, 555);
    EXPECT_EQ(woke, 555u);
    EXPECT_FALSE(sb.full());
    EXPECT_EQ(sb.fullStalls(), 1u);
}

TEST(StoreBuffer, ObserverSeesInsertAndComplete)
{
    StoreBuffer sb(2);
    int inserts = 0, completes = 0;
    sb.setObserver([&](bool inserted, Addr line) {
        EXPECT_EQ(line, Addr(0x20));
        inserted ? ++inserts : ++completes;
    });
    sb.insert(0x20);
    sb.complete(0x20, 100);
    EXPECT_EQ(inserts, 1);
    EXPECT_EQ(completes, 1);
    // An entry can be re-inserted once its predecessor completed.
    sb.insert(0x20);
    EXPECT_EQ(inserts, 2);
}

//
// Store-buffer behaviour at the L1 level: coalescing, the weak
// consistency model (loads bypass parked store misses), and PFS
// stores skipping the allocate fetch.
//

class L1StoreBufferFixture : public testing::Test
{
  protected:
    void
    build(L1Config cfg = {})
    {
        checker = std::make_unique<CoherenceChecker>(fmem, 32);
        dram = std::make_unique<DramChannel>(DramConfig{});
        l2 = std::make_unique<L2Cache>(L2Config{}, *dram);
        fabric = std::make_unique<CoherenceFabric>(
            InterconnectConfig{}, 1, 4, *l2, *dram);
        l1 = std::make_unique<L1Controller>(0, cfg, eq, *fabric);
        l1->attachChecker(checker.get());
    }

    MesiState
    state(Addr a)
    {
        const auto *line = l1->tags().lookup(a);
        return line ? line->state : MesiState::Invalid;
    }

    /** Tick of the first recorded transition on @p line. */
    Tick
    firstTransitionTick(Addr line)
    {
        unsigned long long t = 0;
        std::sscanf(checker->traceFor(line).c_str(), "    @%llu", &t);
        return Tick(t);
    }

    EventQueue eq;
    FunctionalMemory fmem;
    std::unique_ptr<CoherenceChecker> checker;
    std::unique_ptr<DramChannel> dram;
    std::unique_ptr<L2Cache> l2;
    std::unique_ptr<CoherenceFabric> fabric;
    std::unique_ptr<L1Controller> l1;
};

TEST_F(L1StoreBufferFixture, StoresCoalesceIntoPendingEntry)
{
    build();
    // Three stores into one line while its ownership transaction is
    // in flight: one miss, two merges, a single fill at the end.
    l1->store(0, 0x100, false, [](Tick) {});
    l1->store(0, 0x104, false, [](Tick) {});
    l1->store(0, 0x11c, false, [](Tick) {});
    EXPECT_EQ(l1->counters().storeMisses, 1u);
    EXPECT_EQ(l1->counters().storeMerged, 2u);
    eq.run();
    EXPECT_EQ(state(0x100), MesiState::Modified);
    EXPECT_EQ(l1->counters().fills, 1u);
}

TEST_F(L1StoreBufferFixture, LoadsBypassParkedStoreMiss)
{
    build();
    // Warm a line so the later load hits.
    l1->load(0, 0x300, [](Tick) {});
    eq.run();
    ASSERT_EQ(state(0x300), MesiState::Exclusive);

    // Weak consistency: the store miss parks in the buffer and the
    // core retires it immediately (accepted, no stall); a younger
    // load hit completes while the store is still in flight.
    EXPECT_TRUE(l1->store(eq.now(), 0x200, false, [](Tick) {}));
    EXPECT_EQ(state(0x200), MesiState::Invalid); // still parked

    bool hit = l1->load(eq.now(), 0x300, [](Tick) {});
    EXPECT_TRUE(hit);
    EXPECT_EQ(state(0x200), MesiState::Invalid); // load did not wait

    eq.run();
    EXPECT_EQ(state(0x200), MesiState::Modified); // drained at last
}

TEST_F(L1StoreBufferFixture, DrainCompletesParkedStoresInIssueOrder)
{
    build();
    // Park several distinct-line store misses, then drain: each
    // buffered store retires, and their ownership transactions
    // complete in the order the misses entered the buffer (the
    // cluster bus serializes them).
    for (int i = 0; i < 4; ++i)
        l1->store(0, Addr(0x1000) + Addr(i) * 0x40, false,
                  [](Tick) {});
    EXPECT_EQ(l1->counters().storeMisses, 4u);
    eq.run();
    Tick prev = 0;
    for (int i = 0; i < 4; ++i) {
        const Addr line = Addr(0x1000) + Addr(i) * 0x40;
        EXPECT_EQ(state(line), MesiState::Modified);
        const Tick filled = firstTransitionTick(line);
        ASSERT_GT(filled, 0u) << i;
        EXPECT_LE(prev, filled) << i;
        prev = filled;
    }
    EXPECT_EQ(checker->violations(), 0u);
}

TEST_F(L1StoreBufferFixture, PfsStoreBypassesAllocateFetch)
{
    build();
    // A prepare-for-store miss validates the line without fetching
    // its old contents: no DRAM read traffic, line lands Modified.
    const auto dram_reads = dram->readBytes();
    l1->store(0, 0x400, true, [](Tick) {});
    eq.run();
    EXPECT_EQ(dram->readBytes(), dram_reads);
    EXPECT_EQ(state(0x400), MesiState::Modified);
    EXPECT_EQ(l1->counters().pfsStores, 1u);
}

//
// Per-core line-hit micro path (fast path layer 3).
//

TEST_F(L1StoreBufferFixture, MicroPathAdoptsOnFullHitAndCountsAlike)
{
    build();
    // Warm a line: the fill itself must not adopt (no full hit yet).
    l1->load(0, 0x300, [](Tick) {});
    eq.run();
    EXPECT_FALSE(l1->microLoad(0x300));

    // A full-path hit adopts; repeat loads then take the micro path
    // with identical accounting (loadHits grows, fastpathHits tags
    // the hit as micro-served).
    ASSERT_TRUE(l1->load(eq.now(), 0x304, [](Tick) {}));
    const auto hits = l1->counters().loadHits;
    EXPECT_TRUE(l1->microLoad(0x308));
    EXPECT_EQ(l1->counters().loadHits, hits + 1);
    EXPECT_EQ(l1->counters().fastpathHits, 1u);
    // A different line misses the one-entry micro cache.
    EXPECT_FALSE(l1->microLoad(0x340));
}

TEST_F(L1StoreBufferFixture, MicroStoreRequiresModifiedLine)
{
    build();
    l1->load(0, 0x500, [](Tick) {});
    eq.run();
    ASSERT_TRUE(l1->load(eq.now(), 0x500, [](Tick) {}));

    // Adopted from a load hit on an Exclusive line: stores must take
    // the full path (the E -> M transition needs the checker note).
    EXPECT_FALSE(l1->microStore(eq.now(), 0x500));
    ASSERT_TRUE(l1->store(eq.now(), 0x500, false, [](Tick) {}));
    ASSERT_EQ(state(0x500), MesiState::Modified);

    // The store hit re-adopted with store permission.
    const auto ck_events = checker->eventsObserved();
    const auto store_hits = l1->counters().storeHits;
    EXPECT_TRUE(l1->microStore(eq.now(), 0x504));
    EXPECT_EQ(l1->counters().storeHits, store_hits + 1);
    // The golden-data refresh still reached the checker.
    EXPECT_GT(checker->eventsObserved(), ck_events);
    EXPECT_EQ(checker->violations(), 0u);
}

TEST_F(L1StoreBufferFixture, MicroPathInvalidatedBySnoopAndForge)
{
    build();
    l1->load(0, 0x600, [](Tick) {});
    eq.run();
    ASSERT_TRUE(l1->load(eq.now(), 0x600, [](Tick) {}));
    ASSERT_TRUE(l1->microLoad(0x600));

    // A snoop on the line (even a plain downgrade) drops the entry.
    l1->snoop(0x600, false);
    EXPECT_FALSE(l1->microLoad(0x600));

    // Re-adopt, then forge a state behind the checker's back: the
    // micro entry must not survive that either.
    ASSERT_TRUE(l1->load(eq.now(), 0x600, [](Tick) {}));
    ASSERT_TRUE(l1->microLoad(0x600));
    l1->forgeStateForTest(0x600, MesiState::Shared);
    EXPECT_FALSE(l1->microLoad(0x600));
}

TEST_F(L1StoreBufferFixture, MicroPathInvalidatedByBufferedStore)
{
    build();
    l1->load(0, 0x700, [](Tick) {});
    eq.run();
    l1->forgeStateForTest(0x700, MesiState::Shared);
    ASSERT_TRUE(l1->load(eq.now(), 0x700, [](Tick) {}));
    ASSERT_TRUE(l1->microLoad(0x700));

    // A store to the Shared line parks in the store buffer; loads to
    // it must now take the forwarding path (no LRU touch), so the
    // micro entry is dropped and stays out until the next full hit.
    ASSERT_TRUE(l1->store(eq.now(), 0x700, false, [](Tick) {}));
    EXPECT_FALSE(l1->microLoad(0x700));
    eq.run(); // drain: line lands Modified
    ASSERT_EQ(state(0x700), MesiState::Modified);
    EXPECT_FALSE(l1->microLoad(0x700)); // still not re-adopted
    ASSERT_TRUE(l1->load(eq.now(), 0x700, [](Tick) {}));
    EXPECT_TRUE(l1->microLoad(0x700));
}

TEST_F(L1StoreBufferFixture, MicroPathDisabledNeverAdopts)
{
    L1Config cfg;
    cfg.fastPath = false;
    build(cfg);
    l1->load(0, 0x800, [](Tick) {});
    eq.run();
    ASSERT_TRUE(l1->load(eq.now(), 0x800, [](Tick) {}));
    EXPECT_FALSE(l1->microLoad(0x800));
    ASSERT_TRUE(l1->store(eq.now(), 0x800, false, [](Tick) {}));
    EXPECT_FALSE(l1->microStore(eq.now(), 0x800));
    EXPECT_EQ(l1->counters().fastpathHits, 0u);
}

//
// Resources.
//

TEST(Resource, SerializesOverlappingAcquisitions)
{
    Resource r("r");
    EXPECT_EQ(r.acquire(100, 50), 100u);
    EXPECT_EQ(r.acquire(100, 50), 150u); // queued behind
    EXPECT_EQ(r.acquire(500, 50), 500u); // idle gap
    EXPECT_EQ(r.busyTicks(), 150u);
    EXPECT_EQ(r.waitTicks(), 50u);
    EXPECT_EQ(r.acquisitions(), 3u);
}

/**
 * The calendar as it was first written: a std::deque of busy
 * intervals scanned linearly from the oldest entry, with the 10 us
 * prune horizon. Resource's flat array must grant exactly what this
 * grants. It also counts which booking case each grant took, so the
 * test can prove its streams reach every case.
 */
class ReferenceCalendar
{
  public:
    struct Cases
    {
        std::uint64_t isolated = 0;
        std::uint64_t joinPrev = 0;
        std::uint64_t joinNext = 0;
        std::uint64_t joinBoth = 0;
        std::uint64_t zeroOccupancy = 0;
        std::uint64_t belowWatermark = 0; ///< earliest < pruned end
        std::uint64_t pruned = 0;
        std::size_t peakIntervals = 0;
    };

    Tick
    acquire(Tick earliest, Tick occupancy)
    {
        ++count;
        busy += occupancy;
        prune(earliest);
        if (earliest < prunedEnd)
            ++cases.belowWatermark;
        if (occupancy == 0) {
            ++cases.zeroOccupancy;
            return earliest;
        }
        Tick start = earliest;
        auto pos = list.begin();
        for (; pos != list.end(); ++pos) {
            if (pos->end <= start)
                continue;
            if (pos->start >= start + occupancy)
                break;
            start = pos->end;
        }
        waited += start - earliest;

        bool prev_touch = false;
        auto it = list.insert(pos, {start, start + occupancy});
        if (it != list.begin()) {
            auto prev = std::prev(it);
            if (prev->end == it->start) {
                prev_touch = true;
                prev->end = it->end;
                it = list.erase(it);
                it = std::prev(it);
            }
        }
        bool next_touch = false;
        auto next = std::next(it);
        if (next != list.end() && it->end == next->start) {
            next_touch = true;
            it->end = next->end;
            list.erase(next);
        }
        if (prev_touch && next_touch)
            ++cases.joinBoth;
        else if (prev_touch)
            ++cases.joinPrev;
        else if (next_touch)
            ++cases.joinNext;
        else
            ++cases.isolated;
        cases.peakIntervals = std::max(cases.peakIntervals, list.size());
        return start;
    }

    Tick nextFree() const { return list.empty() ? 0 : list.back().end; }
    std::size_t intervals() const { return list.size(); }

    void
    reset()
    {
        list.clear();
        busy = waited = prunedEnd = 0;
        count = 0;
    }

    Tick busy = 0;
    Tick waited = 0;
    std::uint64_t count = 0;
    Cases cases;

  private:
    struct Interval
    {
        Tick start;
        Tick end;
    };

    void
    prune(Tick earliest)
    {
        constexpr Tick horizon = 10 * ticksPerUs;
        if (earliest < horizon)
            return;
        while (!list.empty() && list.front().end < earliest - horizon) {
            prunedEnd = std::max(prunedEnd, list.front().end);
            list.pop_front();
            ++cases.pruned;
        }
    }

    std::deque<Interval> list;
    Tick prunedEnd = 0;
};

TEST(Resource, MatchesReferenceCalendarOnRandomStreams)
{
    // Times sit on a 1 ns grid so exact abutments (merges with the
    // previous, the next, or both neighbours) are common. Requests
    // arrive ~20 ns apart, so the 10 us horizon retains hundreds of
    // intervals.
    constexpr Tick g = ticksPerNs;
    for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
        SCOPED_TRACE(testing::Message() << "seed " << seed);
        Rng rng(seed);
        Resource r("r");
        ReferenceCalendar ref;
        Tick now = 0;
        for (int i = 0; i < 60000; ++i) {
            now += g * rng.nextBelow(41);
            if (rng.nextBelow(20000) == 0)
                now += 50 * ticksPerUs; // idle: everything prunes
            const std::uint64_t kind = rng.nextBelow(100);
            Tick earliest;
            if (kind < 5 && now > 25 * ticksPerUs)
                earliest = now - 10 * ticksPerUs -
                           g * rng.nextBelow(15000); // stale
            else if (kind < 25)
                earliest = now + g * rng.nextBelow(3000); // future
            else
                earliest = now - std::min(now, g * rng.nextBelow(200));
            const Tick occupancy =
                rng.nextBelow(20) == 0 ? 0 : g * (1 + rng.nextBelow(16));

            ASSERT_EQ(r.acquire(earliest, occupancy),
                      ref.acquire(earliest, occupancy))
                << "request " << i;
            ASSERT_EQ(r.busyTicks(), ref.busy);
            ASSERT_EQ(r.waitTicks(), ref.waited);
            ASSERT_EQ(r.acquisitions(), ref.count);
            ASSERT_EQ(r.nextFree(), ref.nextFree());
            ASSERT_EQ(r.intervals(), ref.intervals());

            if (i % 25000 == 24999) {
                r.reset();
                ref.reset();
                EXPECT_EQ(r.nextFree(), 0u);
                EXPECT_EQ(r.intervals(), 0u);
            }
        }
        const auto &c = ref.cases;
        EXPECT_GT(c.isolated, 0u);
        EXPECT_GT(c.joinPrev, 0u);
        EXPECT_GT(c.joinNext, 0u);
        EXPECT_GT(c.joinBoth, 0u);
        EXPECT_GT(c.zeroOccupancy, 0u);
        EXPECT_GT(c.belowWatermark, 0u);
        EXPECT_GT(c.pruned, 1000u);
        // Well past the array's compaction threshold.
        EXPECT_GT(c.peakIntervals, 256u);
    }
}

TEST(ChannelResource, OccupancyScalesWithBytes)
{
    ChannelResource ch("ch", 16, 100); // 16 B per 100-tick beat
    EXPECT_EQ(ch.transferTicks(16), 100u);
    EXPECT_EQ(ch.transferTicks(17), 200u); // rounds up to beats
    ch.acquireTransfer(0, 32);
    EXPECT_EQ(ch.bytesMoved(), 32u);
}

//
// DRAM channel.
//

TEST(Dram, ReadLatencyAndBandwidthOccupancy)
{
    DramConfig cfg;
    cfg.bandwidthGBps = 3.2;
    DramChannel d(cfg);
    // 32 B at 3.2 GB/s = 10 ns occupancy + 70 ns latency.
    Tick done = d.read(0, 0x1000, 32);
    EXPECT_EQ(done, 70000u + 10000u);
    EXPECT_EQ(d.readBytes(), 32u);

    // Back-to-back reads queue on the channel.
    Tick done2 = d.read(0, 0x2000, 32);
    EXPECT_EQ(done2, 10000u + 70000u + 10000u);
}

TEST(Dram, BandwidthSweepChangesOccupancy)
{
    for (double gbps : {1.6, 3.2, 6.4, 12.8}) {
        DramConfig cfg;
        cfg.bandwidthGBps = gbps;
        DramChannel d(cfg);
        Tick expect = Tick(32.0 * 1000.0 / gbps + 0.5);
        EXPECT_EQ(d.occupancyFor(32), expect) << gbps;
    }
}

TEST(Dram, WritesArePosted)
{
    DramChannel d(DramConfig{});
    Tick done = d.write(0, 0x1000, 32);
    // Writes complete when the channel accepts them (no 70 ns).
    EXPECT_EQ(done, d.occupancyFor(32));
    EXPECT_EQ(d.writeBytes(), 32u);
}

TEST(Dram, PartialGranuleChargedAsFull)
{
    DramChannel d(DramConfig{});
    d.read(0, 0x40, 4); // strided DMA fragment
    EXPECT_EQ(d.readBytes(), 32u);
}

//
// L2.
//

TEST(L2, HitAfterFillAndRefillAvoidance)
{
    DramChannel dram(DramConfig{});
    L2Config cfg;
    L2Cache l2(cfg, dram);

    bool hit = true;
    l2.readLine(0, 0x1000, hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(l2.misses(), 1u);
    EXPECT_GT(dram.readBytes(), 0u);

    l2.readLine(0, 0x1000, hit);
    EXPECT_TRUE(hit);

    // Full-line write to a missing line allocates without a DRAM
    // read.
    auto reads_before = dram.readBytes();
    l2.writeLine(0, 0x2000, 32, true);
    EXPECT_EQ(dram.readBytes(), reads_before);
    EXPECT_EQ(l2.refillsAvoided(), 1u);

    // Partial write to a missing line must refill first.
    l2.writeLine(0, 0x3000, 8, false);
    EXPECT_GT(dram.readBytes(), reads_before);
}

TEST(L2, DirtyEvictionWritesBack)
{
    DramChannel dram(DramConfig{});
    L2Config cfg;
    cfg.sizeBytes = 4096; // tiny L2: 4 banks x 1 KB
    cfg.assoc = 2;
    L2Cache l2(cfg, dram);

    // Fill one set of one bank with dirty lines, then overflow it.
    // Bank selection interleaves on line address; lines 4 lines
    // apart land in the same bank.
    const Addr bank_stride = 32 * 4;
    const Addr set_stride = bank_stride * (1024 / (2 * 32));
    l2.writeLine(0, 0, 32, true);
    l2.writeLine(0, set_stride, 32, true);
    auto wb_before = l2.writebacksToDram();
    l2.writeLine(0, 2 * set_stride, 32, true);
    EXPECT_EQ(l2.writebacksToDram(), wb_before + 1);
}

TEST(L2, DrainDirtyAccountsRemainingWrites)
{
    DramChannel dram(DramConfig{});
    L2Cache l2(L2Config{}, dram);
    l2.writeLine(0, 0x100, 32, true);
    l2.writeLine(0, 0x200, 32, true);
    auto wr_before = dram.writeBytes();
    EXPECT_EQ(l2.drainDirty(), 2u);
    EXPECT_EQ(dram.writeBytes(), wr_before + 64);
    EXPECT_EQ(l2.drainDirty(), 0u); // idempotent
}

//
// Interconnect.
//

TEST(Interconnect, BusTransferLatencyAndOccupancy)
{
    InterconnectConfig cfg;
    LocalBus bus(cfg, 0);
    // 32 B request on a 32 B wide bus: one beat + 2-cycle latency.
    Tick done = bus.transfer(0, 32);
    EXPECT_EQ(done, cfg.busBeat + 2 * cfg.busBeat);
    EXPECT_EQ(bus.bytesMoved(), 32u);
}

TEST(Interconnect, CrossbarPortsAreIndependent)
{
    InterconnectConfig cfg;
    Crossbar xbar(cfg, 4);
    Tick a = xbar.sendFromCluster(0, 0, 16);
    Tick b = xbar.sendFromCluster(0, 1, 16);
    EXPECT_EQ(a, b); // different ports: no serialization
    Tick c = xbar.sendFromCluster(0, 0, 16);
    EXPECT_GT(c, a); // same port: queued
}

} // namespace
} // namespace cmpmem
