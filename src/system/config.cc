#include "system/config.hh"

#include "sim/sim_error.hh"

namespace cmpmem
{

void
SystemConfig::validate() const
{
    if (cores < 1 || cores > 1024)
        throwSimError(SimErrorKind::Config, "core count %d out of range",
                      cores);
    if (coreClockGhz <= 0)
        throwSimError(SimErrorKind::Config, "core clock must be positive");
    if (clusterSize < 1)
        throwSimError(SimErrorKind::Config,
                      "cluster size must be at least 1");
    if (lineBytes == 0 || (lineBytes & (lineBytes - 1)) != 0)
        throwSimError(SimErrorKind::Config,
                      "line size must be a power of two");
    if (dram.bandwidthGBps <= 0)
        throwSimError(SimErrorKind::Config,
                      "DRAM bandwidth must be positive");
    if (hwPrefetch && model == MemModel::STR)
        throwSimError(SimErrorKind::Config,
                      "hardware prefetching applies to the cache-based model");
    if (hwPrefetch && (prefetchDepth < 1 || prefetchDepth > 64))
        throwSimError(SimErrorKind::Config,
                      "prefetch depth %u out of range [1, 64]",
                      unsigned(prefetchDepth));
    if (pfsEnabled && model == MemModel::STR)
        throwSimError(SimErrorKind::Config,
                      "PFS stores apply to the cache-based model");
}

void
SystemConfig::finalize()
{
    ctx.pfsEnabled = pfsEnabled;
    l2.lineBytes = lineBytes;
    dram.granuleBytes = lineBytes;
    dma.accessBytes = lineBytes;
}

} // namespace cmpmem
