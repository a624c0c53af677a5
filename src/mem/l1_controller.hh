/**
 * @file
 * First-level data cache controller and the snooping coherence
 * fabric that connects the L1s, the L2 banks, and the memory channel
 * over the hierarchical interconnect of Figure 1.
 *
 * Coherence follows the paper's protocol: MESI write-invalidate,
 * with requests first broadcast on the 4-core cluster bus and, when
 * they cannot be satisfied within the cluster, broadcast to all other
 * clusters over the global crossbar in parallel with the L2 lookup.
 * Snoops occupy the snooped data cache for one cycle, stalling its
 * core. Stores are buffered (weak consistency); non-allocating
 * "Prepare For Store" requests take the upgrade path so no refill is
 * read from memory.
 *
 * The same controller class, with coherence disabled, implements the
 * streaming model's small 8 KB cache for stack/global data.
 */

#ifndef CMPMEM_MEM_L1_CONTROLLER_HH
#define CMPMEM_MEM_L1_CONTROLLER_HH

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "check/coherence_checker.hh"
#include "mem/cache_array.hh"
#include "mem/dram.hh"
#include "mem/interconnect.hh"
#include "mem/l2_cache.hh"
#include "mem/mshr.hh"
#include "mem/store_buffer.hh"
#include "prefetch/stream_prefetcher.hh"
#include "sim/callback.hh"
#include "sim/diagnosable.hh"
#include "sim/event_queue.hh"
#include "sim/types.hh"

namespace cmpmem
{

class L1Controller;

/** Classification of first-level accesses (for stats and energy). */
enum class AccessKind : std::uint8_t
{
    Load,
    Store,
    StorePfs, ///< non-allocating store (MIPS32 PrepareForStore style)
    Atomic,
    Prefetch,
};

/** Per-L1 counters consumed by the harness and the energy model. */
struct L1Counters
{
    std::uint64_t loadHits = 0;
    std::uint64_t loadMisses = 0;
    std::uint64_t storeHits = 0;
    std::uint64_t storeMisses = 0;   ///< includes upgrades from S
    std::uint64_t storeMerged = 0;   ///< coalesced into a pending entry
    std::uint64_t pfsStores = 0;     ///< misses satisfied without refill
    std::uint64_t atomicOps = 0;
    std::uint64_t writebacks = 0;    ///< dirty victims pushed to L2
    std::uint64_t fills = 0;
    std::uint64_t snoopsReceived = 0;
    std::uint64_t invalidationsReceived = 0;
    std::uint64_t suppliesProvided = 0; ///< cache-to-cache transfers
    std::uint64_t prefetchesIssued = 0;
    std::uint64_t prefetchesUseful = 0;

    /**
     * Hits satisfied by the per-core line-hit micro path (a subset
     * of loadHits/storeHits, never added on top of them). Host-time
     * telemetry only; no simulated behaviour depends on it.
     */
    std::uint64_t fastpathHits = 0;

    std::uint64_t demandAccesses() const
    {
        return loadHits + loadMisses + storeHits + storeMisses +
               storeMerged + atomicOps;
    }
    std::uint64_t demandMisses() const { return loadMisses + storeMisses; }
};

/** Fabric-level counters (traffic and coherence activity). */
struct FabricCounters
{
    std::uint64_t clusterRequests = 0;
    std::uint64_t globalRequests = 0;
    std::uint64_t snoopProbes = 0;
    std::uint64_t localSupplies = 0;
    std::uint64_t remoteSupplies = 0;
    std::uint64_t upgrades = 0;
    std::uint64_t writebacks = 0;
    std::uint64_t uncoreReads = 0;
    std::uint64_t uncoreWrites = 0;
    std::uint64_t remoteAtomics = 0;
};

/**
 * The snooping coherence fabric / uncore.
 *
 * Owns the cluster buses and the crossbar; references the shared L2
 * and the DRAM channel. All transaction timing walks live here, so
 * L1 controllers and DMA engines stay simple clients.
 */
class CoherenceFabric : public Diagnosable
{
  public:
    CoherenceFabric(const InterconnectConfig &net, int cores,
                    int cluster_size, L2Cache &l2, DramChannel &dram);

    /** L1s register in core-id order (CC model only). */
    void registerL1(L1Controller *l1);

    /** Attach the runtime coherence checker (null to detach). */
    void attachChecker(CoherenceChecker *c) { checker = c; }

    std::string diagName() const override { return "fabric"; }
    std::string diagnose() const override;

    int clusterOf(int core_id) const { return core_id / clusterSize; }
    int clusters() const { return numClusters; }
    int cores() const { return numCores; }

    /** Result of a line fetch: when, and with what final state. */
    struct FetchResult
    {
        Tick done = 0;
        bool othersRetainCopy = false; ///< install S rather than E
    };

    /**
     * Fetch a line for core @p core_id starting at @p t.
     *
     * @param exclusive request ownership (read-for-ownership).
     * @param coherent whether the requester participates in
     *        coherence (false for the streaming model's 8 KB cache:
     *        the walk skips all snooping).
     */
    FetchResult fetchLine(Tick t, int core_id, Addr line, bool exclusive,
                          bool coherent);

    /**
     * Ownership upgrade (S -> M) or PFS allocate: broadcast
     * invalidations only, no data transfer, no memory read.
     */
    Tick upgradeLine(Tick t, int core_id, Addr line);

    /** Push a dirty victim line to the L2 (fire-and-forget timing). */
    void writebackLine(Tick t, int core_id, Addr line);

    /**
     * Uncore read/write used by DMA engines and I-cache refills:
     * cluster bus -> crossbar -> L2 (-> DRAM).
     * @return completion tick (data at the cluster for reads).
     */
    Tick uncoreRead(Tick t, int cluster, Addr line, std::uint32_t bytes);
    Tick uncoreWrite(Tick t, int cluster, Addr line, std::uint32_t bytes,
                     bool full_line);

    /**
     * Streaming-model atomic executed at the shared L2 (Cell-style
     * atomic unit): request to the L2 bank holding @p line and
     * response back.
     */
    Tick remoteAtomic(Tick t, int cluster, Addr line);

    LocalBus &bus(int cluster) { return *buses.at(cluster); }
    Crossbar &crossbar() { return xbar; }
    L2Cache &l2() { return l2cache; }
    DramChannel &dram() { return dramChannel; }

    const FabricCounters &counters() const { return stats; }
    const InterconnectConfig &netConfig() const { return net; }

    //
    // Snoop presence filter (DESIGN.md §21). A host-only table of how
    // many valid lines each coherent L1 holds in each hashed line
    // bucket. A zero count proves the core does not hold any line of
    // the bucket, so snoopCluster() hands it L1Controller::snoopAbsent
    // instead of a tag lookup. L1s keep it exact by reporting every
    // valid <-> invalid transition of a line.
    //

    /** Coherent L1 @p core_id gained a valid copy of @p line. */
    void
    notePresent(int core_id, Addr line)
    {
        std::uint8_t &n = presence[presenceIndex(line, core_id)];
        assert(n < presenceLimit && "presence count above associativity");
        ++n;
    }

    /** Coherent L1 @p core_id dropped its valid copy of @p line. */
    void
    noteAbsent(int core_id, Addr line)
    {
        std::uint8_t &n = presence[presenceIndex(line, core_id)];
        assert(n > 0 && "presence count underflow");
        --n;
    }

    /** Filter buckets (0 until a coherent L1 registers). */
    std::size_t
    presenceBuckets() const
    {
        return presence.size() / std::size_t(numCores);
    }

    /** The bucket that holds @p line's counts. */
    std::size_t
    presenceBucket(Addr line) const
    {
        return std::size_t(line >> presenceLineShift) & presenceMask;
    }

    /** Valid lines core @p core_id holds in @p bucket. */
    unsigned
    presenceCount(std::size_t bucket, int core_id) const
    {
        return presence[bucket * std::size_t(numCores) +
                        std::size_t(core_id)];
    }

  private:
    std::size_t
    presenceIndex(Addr line, int core_id) const
    {
        return presenceBucket(line) * std::size_t(numCores) +
               std::size_t(core_id);
    }

    /**
     * Snoop every coherent L1 in @p cluster except @p requester.
     * @return the id of a core that can supply the line, or -1;
     *         dirty owners are recorded in @p supplier_was_dirty,
     *         and @p supplier_was_owner reports an M/E (hence
     *         provably unique) copy.
     */
    int snoopCluster(int cluster, int requester, Addr line,
                     bool invalidate, bool &supplier_was_dirty,
                     bool &supplier_was_owner, bool &others_retain);

    InterconnectConfig net;
    int numCores;
    int clusterSize;
    int numClusters;
    L2Cache &l2cache;
    DramChannel &dramChannel;
    std::vector<std::unique_ptr<LocalBus>> buses;
    Crossbar xbar;
    std::vector<L1Controller *> l1s;
    CoherenceChecker *checker = nullptr;
    FabricCounters stats;

    /**
     * Presence counts, bucket-major (one row of numCores counts per
     * bucket, so a cluster's snoop reads one contiguous run). Sized
     * by the first coherent L1 to register.
     */
    std::vector<std::uint8_t> presence;
    std::uint32_t presenceLineShift = 0;
    std::size_t presenceMask = 0;
    unsigned presenceLimit = 0; ///< the L1 associativity
};

/** Configuration for one first-level cache controller. */
struct L1Config
{
    CacheGeometry geom{32 * 1024, 2, 32};
    bool coherent = true;
    std::size_t mshrs = 64;
    std::size_t storeBufferEntries = 8;
    Tick cyclePeriod = 1250;  ///< owning core's clock period
    Cycles hitLatency = 1;
    Cycles atomicLatency = 3; ///< extra cycles for the RMW beat

    /**
     * Enable the per-core "last line, permission" micro path
     * (microLoad/microStore). Purely a host-time optimization with
     * bit-identical simulated behaviour; the switch exists so golden
     * regressions can pin both configurations.
     */
    bool fastPath = true;

    /** Hardware stream prefetcher (CC model, when enabled). */
    std::optional<PrefetcherConfig> prefetch;
};

/**
 * One first-level data cache.
 *
 * The controller is callback-based: operations that complete
 * immediately return true; operations that must wait invoke the
 * supplied callback with the completion tick. The owning Core turns
 * those callbacks into coroutine resumptions and stall accounting.
 */
class L1Controller : public Diagnosable
{
  public:
    using Callback = TickCallback;

    L1Controller(int core_id, const L1Config &cfg, EventQueue &eq,
                 CoherenceFabric &fabric);

    /**
     * Attach the runtime coherence checker: registers this cache's
     * tags with it and installs MSHR/store-buffer observers. Hooks
     * are pointer-guarded and never touch the event queue, so the
     * simulated timing is identical with or without a checker.
     */
    void attachChecker(CoherenceChecker *c);

    /**
     * Test-only: overwrite a line's MESI state behind the checker's
     * back (allocating a frame if needed), to validate that the
     * checker's audit catches illegal states. Never used by the
     * simulator proper.
     */
    void forgeStateForTest(Addr addr, MesiState state);

    /**
     * Issue a load at tick @p t.
     * @return true on hit (completes in hitLatency); false when the
     *         core must suspend until @p cb fires.
     */
    bool load(Tick t, Addr addr, Callback cb);

    /**
     * Issue a store at tick @p t. Returns true when the store retires
     * into the cache or store buffer immediately; false when the
     * store buffer is full and @p cb will fire once the store has
     * been accepted.
     * @param pfs non-allocating store: a miss allocates and validates
     *        the line without reading memory.
     */
    bool store(Tick t, Addr addr, bool pfs, Callback cb);

    //
    // Per-core line-hit micro path (DESIGN.md §13, layer 3).
    //
    // A one-entry "last line, permission" cache over the full
    // load()/store() probe. The entry is populated only on a full
    // hit to a resident, non-prefetched line with no store buffered
    // (so the full path's extra work — prefetched-flag handling,
    // store forwarding, state transitions — can never be needed on a
    // micro hit), and is invalidated whenever any of its premises
    // could change: frame re-tag on eviction, snoop on the line,
    // store-buffer insert/drain for the line, end-of-run drain,
    // quantum flush, and forged test states. A micro hit therefore
    // performs exactly the accounting the full path would: the hit
    // counter, the LRU touch, and (for stores, where the line is
    // already Modified) the checker's golden-data refresh.
    //

    /** Micro-path load probe: counts the hit and returns true. */
    bool
    microLoad(Addr addr)
    {
        if (array.lineAddr(addr) != micro.addr)
            return false;
        ++stats.loadHits;
        ++stats.fastpathHits;
        array.touch(*micro.line);
        return true;
    }

    /** Micro-path store probe; valid only for Modified lines. */
    bool
    microStore(Tick t, Addr addr)
    {
        if (array.lineAddr(addr) != micro.addr || !micro.storeOk)
            return false;
        // Same golden-copy refresh as the full path; the M -> M
        // transition itself is elided there too.
        if (checker)
            checker->onStoreData(t, id, micro.addr);
        ++stats.storeHits;
        ++stats.fastpathHits;
        array.touch(*micro.line);
        return true;
    }

    /** Drop the micro-path entry (always safe, only conservative). */
    void microInvalidate() { micro = MicroEntry{}; }

    /** Atomic read-modify-write; always completes via @p cb. */
    void atomic(Tick t, Addr addr, Callback cb);

    /**
     * Software (bulk) prefetch of one line — the hybrid "bulk
     * transfer primitive for cache-based systems" of the paper's
     * Section 7. Fire-and-forget; duplicates and full MSHRs are
     * dropped silently, exactly like a hardware prefetch.
     */
    void softwarePrefetch(Tick t, Addr addr);

    /** Snoop from the fabric. */
    struct SnoopResult
    {
        bool had = false;
        bool dirty = false;
        bool owned = false; ///< was Modified or Exclusive (unique)
    };
    SnoopResult snoop(Addr line, bool invalidate);

    /**
     * The non-holder part of snoop(), which every snoop pays: count
     * it, charge the one-cycle occupancy, and drop a micro entry for
     * the line. The fabric calls it alone for a peer its presence
     * filter proves does not hold @p line, exactly what snoop()'s
     * missing tag lookup would have done.
     */
    void
    snoopAbsent(Addr line)
    {
        ++stats.snoopsReceived;
        snoopStallCycles += 1; // snoops occupy the cache for one cycle
        // Both snoop outcomes (invalidate, downgrade) break the micro
        // entry's premises; drop it before touching the state.
        if (line == micro.addr)
            microInvalidate();
    }

    /**
     * Account for dirty lines at the end of a run (write-backs that
     * would eventually happen) so traffic totals are drain-invariant.
     */
    std::uint64_t drainDirty(Tick t);

    /** Consume snoop-induced stall cycles accumulated since last call. */
    Cycles
    takeSnoopStallCycles()
    {
        return std::exchange(snoopStallCycles, 0);
    }

    const L1Counters &counters() const { return stats; }
    const L1Config &config() const { return cfg; }

    /** Host heap allocations on the miss path (0 in steady state). */
    std::uint64_t missPathHostAllocs() const { return mshr.hostAllocs(); }

    const CacheArray &tags() const { return array; }
    int coreId() const { return id; }

    std::string diagName() const override;
    std::string diagnose() const override;

    /** Line flag marking frames installed by the prefetcher. */
    static constexpr std::uint8_t flagPrefetched = 0x1;

  private:
    friend class CoherenceFabric;

    /** Start a fill transaction for @p line. */
    void startFill(Tick t, Addr line, bool exclusive, AccessKind kind);

    /** Issue a single prefetch fill if the line is not already here. */
    void issuePrefetchLine(Tick t, Addr pf_line);

    /** Install a fetched line; evicts and writes back as needed. */
    void install(Tick t, Addr line, MesiState state, bool prefetched,
                 CoherenceChecker::Cause cause =
                     CoherenceChecker::Cause::Fill);

    /**
     * Schedule the canonical transaction-completion event at
     * @p done: install() the line (which also covers the
     * upgrade-landed-while-present case), release the MSHR entry,
     * and optionally drain the store buffer for the line. Every
     * fill/upgrade/PFS completion funnels through here so the
     * capture stays within the inline-callback bound.
     */
    void scheduleLineDone(Tick done, Addr line, MesiState state,
                          bool prefetched, CoherenceChecker::Cause cause,
                          bool completeStoreBuffer);

    /** Issue/chain an ownership upgrade for a buffered store. */
    void ensureOwnership(Tick t, Addr line);

    /**
     * Complete an atomic once its line is resident: silently claim
     * M from E/M, or issue a real upgrade when the atomic merged
     * onto a non-exclusive fill and the line landed Shared. The
     * requester's callback lives in the `atomicCb` member slot (an
     * in-order core has at most one atomic in flight), so the MSHR
     * waiters this chains through capture only [this, line].
     */
    void atomicFinish(Tick t, Addr line);

    /**
     * Re-issue the store parked by a full store buffer (`parked` /
     * `parkedCb` member slots — one per core, since only the owning
     * in-order core can block on its buffer) once a slot frees.
     */
    void retryParkedStore(Tick when);

    /** Start a PFS allocate (invalidate-only) transaction. */
    void startPfsAllocate(Tick t, Addr line);

    void issuePrefetches(Tick t, Addr miss_line);

    /** The micro path's cached translation (see the block above). */
    struct MicroEntry
    {
        CacheArray::Line *line = nullptr;
        Addr addr = ~Addr(0); ///< line address; ~0 = empty
        bool storeOk = false; ///< line is Modified
    };

    /**
     * Adopt @p l as the micro entry after a full-path hit, unless
     * the fast path is disabled or the line is marked prefetched
     * (its first touch must run the full path's flag handling).
     */
    void
    microAdopt(CacheArray::Line *l, Addr line)
    {
        if (!cfg.fastPath || (l->flags & flagPrefetched) != 0)
            return;
        micro.line = l;
        micro.addr = line;
        micro.storeOk = l->state == MesiState::Modified;
    }

    int id;
    L1Config cfg;
    EventQueue &eq;
    CoherenceFabric &fabric;
    CacheArray array;
    MshrFile mshr;
    StoreBuffer sb;
    std::optional<StreamPrefetcher> prefetcher;
    CoherenceChecker *checker = nullptr;
    Cycles snoopStallCycles = 0;
    MicroEntry micro;

    /**
     * Member continuation slots (DESIGN.md §18). The old code nested
     * the requester's Callback inside the waiter lambdas it parked in
     * the MSHR / store buffer, which both forced a heap-allocating
     * callable and re-moved the capture on every hop. An in-order
     * core has at most one outstanding atomic and can block on at
     * most one full-buffer store, so each gets a single member slot
     * and the parked waiters capture only [this] (+ line).
     */
    Callback atomicCb;
    struct ParkedStore
    {
        Tick t = 0;
        Addr addr = 0;
        bool pfs = false;
    } parked;
    Callback parkedCb;

    L1Counters stats;
};

} // namespace cmpmem

#endif // CMPMEM_MEM_L1_CONTROLLER_HH
