/**
 * @file
 * Whole-system configuration: the paper's Table 2 in one struct.
 */

#ifndef CMPMEM_SYSTEM_CONFIG_HH
#define CMPMEM_SYSTEM_CONFIG_HH

#include <cstdint>

#include "core/context.hh"
#include "core/icache_model.hh"
#include "energy/energy_params.hh"
#include "mem/dram.hh"
#include "mem/interconnect.hh"
#include "mem/l2_cache.hh"
#include "sim/clock.hh"
#include "sim/types.hh"
#include "stream/dma_engine.hh"

namespace cmpmem
{

/**
 * Liveness watchdog budgets for one simulation (all off by default;
 * the guarded run mode only engages when some budget is set, so
 * default runs take the plain EventQueue::run() path).
 */
struct WatchdogConfig
{
    /** Simulated-tick budget from the start of the run (0 = off). */
    Tick maxTicks = 0;

    /** Host thread-CPU-seconds budget (0 = off). */
    double maxHostSeconds = 0;

    /**
     * Forward-progress check: every this many executed events, the
     * instructions-retired probe must have advanced (0 = off). A
     * budget catches runaway kernels; the progress check catches
     * livelocks where events fire but no core retires anything.
     */
    std::uint64_t progressCheckEvents = 0;

    bool engaged() const
    {
        return maxTicks != 0 || maxHostSeconds > 0 ||
               progressCheckEvents != 0;
    }
};

/**
 * Configuration of a simulated CMP. Defaults are the bold values of
 * the paper's Table 2 (16 Tensilica-LX-like cores at 800 MHz, CC
 * model, 3.2 GB/s memory channel).
 */
struct SystemConfig
{
    int cores = 16;
    double coreClockGhz = 0.8;
    MemModel model = MemModel::CC;
    int clusterSize = 4;

    /** Hardware prefetcher (CC model; off unless stated). */
    bool hwPrefetch = false;
    std::uint32_t prefetchDepth = 4; ///< lines ahead, [1, 64] when on

    /** Honour non-allocating stores (PrepareForStore). */
    bool pfsEnabled = false;

    /**
     * Attach the runtime MESI invariant checker (see src/check/).
     * Off by default: with no checker attached every hook is a
     * single pointer test and simulated timing is bit-identical to
     * a build without the checker.
     */
    bool checkCoherence = false;

    /**
     * Enable the memory-access fast path's per-core line-hit micro
     * cache (DESIGN.md §13). A host-time optimization only: results
     * and stats are bit-identical either way (pinned by the golden
     * regressions in tests/test_determinism.cc), so this stays on
     * except when isolating the fast path itself.
     */
    bool memFastPath = true;

    /** First-level data storage (constant capacity across models). */
    std::uint32_t ccL1SizeBytes = 32 * 1024;
    std::uint32_t ccL1Assoc = 2;
    std::uint32_t strCacheSizeBytes = 8 * 1024;
    std::uint32_t strCacheAssoc = 2;
    std::uint32_t lsSizeBytes = 24 * 1024;
    std::uint32_t lineBytes = 32;
    std::size_t storeBufferEntries = 8;
    std::size_t mshrs = 64;

    /** Core-local/global time skew bound, in core cycles. */
    Cycles quantumCycles = 100;

    L2Config l2;
    DramConfig dram;
    InterconnectConfig net;
    DmaConfig dma;
    ICacheConfig icache;
    ContextConfig ctx;
    EnergyParams energy;

    /**
     * Liveness watchdog for simulate(). Disengaged by default (all
     * budgets zero); an engaged watchdog turns hangs and livelocks
     * into SimErrorKind::Watchdog with a machine-state diagnostic.
     */
    WatchdogConfig watchdog;

    Clock coreClock() const { return Clock::fromMhz(coreClockGhz * 1000); }

    int clusters() const
    {
        return (cores + clusterSize - 1) / clusterSize;
    }

    /** Sanity-check the configuration; throws SimErrorKind::Config. */
    void validate() const;

    /** Fill dependent fields (ctx.pfsEnabled etc.) from top-level ones. */
    void finalize();
};

} // namespace cmpmem

#endif // CMPMEM_SYSTEM_CONFIG_HH
