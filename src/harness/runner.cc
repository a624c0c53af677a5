#include "harness/runner.hh"

#include <chrono>
#include <ctime>

#include "sim/log.hh"
#include "workloads/registry.hh"

namespace cmpmem
{

/*
 * Concurrency audit (the sweep engine runs many of these calls in
 * parallel, one per worker thread):
 *
 *  - CmpSystem owns every piece of mutable simulation state — the
 *    event queue, functional memory, caches, interconnect, DRAM
 *    channel, prefetchers, DMA engines, cores, and contexts are all
 *    members (or unique_ptr members) constructed per instance.
 *    Nothing in src/core, src/mem, src/stream, src/prefetch,
 *    src/check, or src/sim keeps namespace-scope mutable state.
 *  - The workload registry (workloads/registry.cc) is a constexpr
 *    factory table; createWorkload() allocates a fresh Workload, and
 *    each Workload's inputs/reference outputs live in that instance
 *    and the system's own FunctionalMemory.
 *  - RNG state (sim/rng.hh) is per-object and seeded from the
 *    config/params, never a process-wide generator.
 *  - Logging (sim/log.cc) is the one shared facility: the quiet
 *    flag is atomic, direct writes are serialized, and sweep
 *    workers capture per-run output via LogCapture (thread_local).
 *
 * Hence concurrent runWorkload() calls share no mutable state, and
 * per-point results are bit-identical to serial execution
 * (tests/test_sweep.cc and tests/test_determinism.cc assert this).
 */

double
threadCpuSeconds()
{
#ifdef CLOCK_THREAD_CPUTIME_ID
    timespec ts;
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0)
        return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
#endif
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

RunResult
runWorkload(const std::string &workload_name, const SystemConfig &cfg,
            const WorkloadParams &params)
{
    double t0 = threadCpuSeconds();

    CmpSystem sys(cfg);
    auto workload = createWorkload(workload_name, params);
    workload->setup(sys);

    double mpki = workload->icacheMpki(sys.config());
    for (int i = 0; i < sys.cores(); ++i) {
        sys.core(i).icache().setMissesPerKiloInstr(mpki);
        sys.bindKernel(i, workload->kernel(sys.context(i)));
    }

    sys.simulate();

    RunResult result;
    result.stats = sys.collectStats();
    result.stats.workload = workload->name();
    result.stats.variant = workload->variant();
    result.energy = EnergyModel(cfg.energy).compute(result.stats);
    result.verified = workload->verify(sys);
    if (!result.verified)
        warn("workload %s/%s failed verification",
             workload->name().c_str(), workload->variant().c_str());

    result.hostSeconds = threadCpuSeconds() - t0;
    return result;
}

} // namespace cmpmem
