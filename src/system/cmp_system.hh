/**
 * @file
 * CmpSystem assembles the full simulated chip of Figure 1 for either
 * memory model and runs kernels to completion.
 */

#ifndef CMPMEM_SYSTEM_CMP_SYSTEM_HH
#define CMPMEM_SYSTEM_CMP_SYSTEM_HH

#include <memory>
#include <string>
#include <vector>

#include "check/coherence_checker.hh"
#include "core/context.hh"
#include "core/core.hh"
#include "mem/dram.hh"
#include "mem/functional_memory.hh"
#include "mem/l1_controller.hh"
#include "mem/l2_cache.hh"
#include "sim/event_queue.hh"
#include "sim/stats.hh"
#include "system/config.hh"

namespace cmpmem
{

/**
 * Counters of a standalone resource-calendar run (bench/micro_fabric,
 * DESIGN.md §19), which drives a Resource with a request stream
 * directly instead of through a system. All zero for system runs.
 */
struct ResourceStreamStats
{
    std::uint64_t acquires = 0;
    std::uint64_t tailGrants = 0;  ///< granted at or past nextFree()
    std::uint64_t intervalSum = 0; ///< live intervals before each acquire
    std::uint64_t peakIntervals = 0;
    std::uint64_t grantDigest = 0; ///< 53-bit FNV-1a over granted starts
};

/** Everything measured in one simulation run. */
struct RunStats
{
    std::string workload;
    std::string variant;
    SystemConfig config;

    Tick execTicks = 0; ///< last core's finish tick

    /** Aggregates over all cores. */
    CoreStats coreTotal;
    std::vector<CoreStats> perCore;

    L1Counters l1Total;
    std::uint64_t icacheFetches = 0;
    std::uint64_t icacheMisses = 0;

    std::uint64_t lsReads = 0;
    std::uint64_t lsWrites = 0;
    std::uint64_t dmaAccesses = 0;
    std::uint64_t dmaBytesRead = 0;
    std::uint64_t dmaBytesWritten = 0;

    FabricCounters fabric;
    std::uint64_t busBytes = 0;
    std::uint64_t xbarBytes = 0;

    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t l2RefillsAvoided = 0;

    std::uint64_t dramReadBytes = 0;
    std::uint64_t dramWriteBytes = 0;
    Tick dramBusyTicks = 0;
    std::uint64_t dramRowHits = 0;   ///< bank model only, else 0
    std::uint64_t dramRowMisses = 0; ///< bank model only, else 0

    /** Runtime MESI checker results (zero when not attached). */
    std::uint64_t checkerViolations = 0;
    std::uint64_t checkerEvents = 0;

    /**
     * Host-throughput telemetry from the event engine. All three are
     * pure functions of the deterministic event stream (no host
     * timing), so they compare bit-identically across runs; the
     * nondeterministic events/sec figure lives next to host_seconds
     * in the bench JSON instead.
     */
    std::uint64_t eventsExecuted = 0;
    std::uint64_t peakPendingEvents = 0;
    std::uint64_t calendarOverflows = 0;

    /**
     * Miss-path host allocations (DESIGN.md §18): heap allocations
     * taken by MSHR waiter pools and DMA scratch buffers past their
     * warm-up reservations, summed over all cores. Host-side only
     * (never enters toStatSet()); 0 in steady state.
     */
    std::uint64_t missPathAllocs = 0;

    /**
     * Resource-calendar bench counters. toStatSet() emits them only
     * for a run that made acquires, so system digests are unchanged.
     */
    ResourceStreamStats resource;

    double execSeconds() const
    {
        return double(execTicks) / double(ticksPerSec);
    }

    double l1MissRate() const
    {
        auto acc = l1Total.demandAccesses();
        return acc ? double(l1Total.demandMisses()) / double(acc) : 0.0;
    }

    double l2MissRate() const
    {
        auto acc = l2Hits + l2Misses;
        return acc ? double(l2Misses) / double(acc) : 0.0;
    }

    double offChipBytesPerSec() const
    {
        double s = execSeconds();
        return s > 0 ? double(dramReadBytes + dramWriteBytes) / s : 0.0;
    }

    /** Flatten into a StatSet for generic reporting. */
    StatSet toStatSet() const;
};

/**
 * The simulated chip multiprocessor.
 */
class CmpSystem
{
  public:
    explicit CmpSystem(const SystemConfig &cfg);
    ~CmpSystem();

    CmpSystem(const CmpSystem &) = delete;
    CmpSystem &operator=(const CmpSystem &) = delete;

    const SystemConfig &config() const { return cfg; }
    int cores() const { return cfg.cores; }

    EventQueue &eventQueue() { return eq; }
    FunctionalMemory &mem() { return fmem; }
    Core &core(int i) { return *coreVec.at(i); }
    Context &context(int i) { return *ctxVec.at(i); }
    CoherenceFabric &fabric() { return *fab; }
    L2Cache &l2() { return *l2cache; }
    DramChannel &dram() { return *dramChannel; }

    /** The runtime MESI checker (null unless cfg.checkCoherence). */
    CoherenceChecker *checker() { return check.get(); }
    const CoherenceChecker *checker() const { return check.get(); }

    /** Attach core @p i's kernel coroutine. */
    void bindKernel(int i, KernelTask task);

    /**
     * Run every bound kernel to completion, then drain dirty cache
     * state for traffic accounting.
     *
     * When cfg.watchdog is engaged the run is guarded: exceeding the
     * tick/host-time budget or stalling forward progress raises
     * SimErrorKind::Watchdog carrying dumpDiagnostics(); a drained
     * queue with unfinished cores raises SimErrorKind::Deadlock. With
     * the watchdog disengaged, guarded and unguarded runs are
     * bit-identical.
     *
     * @return the finish tick of the slowest core.
     */
    Tick simulate();

    /** Gather all counters (call after simulate()). */
    RunStats collectStats() const;

    /**
     * One-stop machine-state dump for hang triage: event-queue
     * summary, per-core progress/stall state, and every Diagnosable
     * component (L1s, L2, fabric, DMA engines). Side-effect free.
     */
    std::string dumpDiagnostics() const;

  private:
    SystemConfig cfg;
    EventQueue eq;
    FunctionalMemory fmem;
    std::unique_ptr<DramChannel> dramChannel;
    std::unique_ptr<L2Cache> l2cache;
    std::unique_ptr<CoherenceFabric> fab;
    std::unique_ptr<CoherenceChecker> check;
    std::vector<std::unique_ptr<L1Controller>> l1Vec;
    std::vector<std::unique_ptr<LocalStore>> lsVec;
    std::vector<std::unique_ptr<DmaEngine>> dmaVec;
    std::vector<std::unique_ptr<Core>> coreVec;
    std::vector<std::unique_ptr<Context>> ctxVec;

    int finishedCores = 0;
};

} // namespace cmpmem

#endif // CMPMEM_SYSTEM_CMP_SYSTEM_HH
