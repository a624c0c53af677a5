/**
 * @file
 * One-call experiment runner: build a system, run a workload on it,
 * verify the output, and collect statistics and energy.
 */

#ifndef CMPMEM_HARNESS_RUNNER_HH
#define CMPMEM_HARNESS_RUNNER_HH

#include <string>

#include "energy/energy_model.hh"
#include "system/cmp_system.hh"
#include "workloads/workload.hh"

namespace cmpmem
{

struct RunResult
{
    RunStats stats;
    EnergyBreakdown energy;
    bool verified = false;
    double hostSeconds = 0; ///< host CPU cost of this simulation

    /**
     * Simulator host throughput: events dispatched per host CPU
     * second. Nondeterministic (depends on the machine and its
     * load), so it is reported alongside host_seconds rather than in
     * the deterministic stats block.
     */
    double
    eventsPerSec() const
    {
        return hostSeconds > 0 ? double(stats.eventsExecuted) / hostSeconds
                               : 0;
    }

    /**
     * Access-path host throughput: simulated first-level data
     * accesses (loads, stores, atomics, local-store reads/writes)
     * per host CPU second — the figure of merit for the memory-access
     * fast path (DESIGN.md §13). Nondeterministic, like
     * eventsPerSec(), so it is reported next to it rather than in
     * the deterministic stats block.
     */
    double
    accessesPerSec() const
    {
        const CoreStats &c = stats.coreTotal;
        const double a = double(c.loads + c.stores + c.atomics +
                                c.lsReads + c.lsWrites);
        return hostSeconds > 0 ? a / hostSeconds : 0;
    }

    /**
     * Miss-path host throughput: simulated miss-side transactions
     * (L1 demand misses, PFS allocates, DMA line-granule accesses)
     * per host CPU second — the figure of merit for the allocation-
     * free miss path (DESIGN.md §18). Nondeterministic, like the
     * other per-second figures.
     */
    double
    missesPerSec() const
    {
        const double m = double(stats.l1Total.demandMisses() +
                                stats.l1Total.pfsStores +
                                stats.dmaAccesses);
        return hostSeconds > 0 ? m / hostSeconds : 0;
    }

    /**
     * Resource-calendar host throughput: acquires a standalone
     * calendar run (RunStats::resource) made per host CPU second —
     * the figure of merit for DESIGN.md §19. 0 for system runs.
     */
    double
    acquiresPerSec() const
    {
        return hostSeconds > 0
                   ? double(stats.resource.acquires) / hostSeconds
                   : 0;
    }
};

/**
 * CPU time consumed by the calling thread so far, in seconds.
 *
 * This — not wall-clock — is how per-job host cost is measured: with
 * several sweep workers sharing cores, a job's wall time includes
 * stretches where the thread was descheduled, which would inflate
 * the serial-sum and overstate the pool's speedup.
 */
double threadCpuSeconds();

/**
 * Run @p workload_name on a system configured by @p cfg.
 *
 * Verification failure is a reproduction bug: the runner reports it
 * in the result and warn()s, leaving the decision to the caller
 * (tests assert on it; benches print a diagnostic).
 */
RunResult runWorkload(const std::string &workload_name,
                      const SystemConfig &cfg,
                      const WorkloadParams &params = {});

} // namespace cmpmem

#endif // CMPMEM_HARNESS_RUNNER_HH
