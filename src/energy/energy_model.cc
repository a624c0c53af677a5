#include "energy/energy_model.hh"

#include <cstdio>

#include "system/cmp_system.hh"

namespace cmpmem
{

namespace
{
constexpr double pjToMj = 1e-9;

/** mW times ticks (ps) -> mJ. */
double
leakMj(double mw, Tick ticks)
{
    return mw * 1e-3 /*W*/ * double(ticks) * 1e-12 /*s*/ * 1e3 /*mJ*/;
}
} // namespace

std::string
EnergyBreakdown::format() const
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "core=%.3f icache=%.3f dstore=%.3f net=%.3f l2=%.3f "
                  "dram=%.3f total=%.3f (mJ)",
                  coreMj, icacheMj, dstoreMj, networkMj, l2Mj, dramMj,
                  totalMj());
    return buf;
}

EnergyBreakdown
EnergyModel::compute(const RunStats &rs) const
{
    EnergyBreakdown e;
    const SystemConfig &cfg = rs.config;
    const Tick t = rs.execTicks;
    const int n = cfg.cores;
    const bool cc = (cfg.model == MemModel::CC);
    const CoreStats &cs = rs.coreTotal;
    const L1Counters &l1 = rs.l1Total;

    //
    // Cores: dynamic per bundle/instruction plus always-on leakage.
    // Idle (stalled) time is clock gated, so it contributes leakage
    // only.
    //
    double mem_instrs = double(cs.loads + cs.stores + cs.atomics +
                               cs.lsReads + cs.lsWrites);
    e.coreMj += (double(cs.bundles) + mem_instrs) * p.coreBundlePj *
                pjToMj;
    e.coreMj += double(cs.fpBundles) * p.coreFpBundleExtraPj * pjToMj;
    e.coreMj += leakMj(p.coreLeakMw * n, t);

    //
    // Instruction caches.
    //
    e.icacheMj += double(rs.icacheFetches) * p.icacheAccessPj * pjToMj;
    e.icacheMj += leakMj(p.icacheLeakMw * n, t);

    //
    // First-level data storage.
    //
    double l1_access_pj = cc ? p.l1AccessPj : p.smallCacheAccessPj;
    double l1_demand = double(l1.loadHits + l1.loadMisses + l1.storeHits +
                              l1.storeMisses + l1.storeMerged +
                              l1.atomicOps);
    e.dstoreMj += l1_demand * l1_access_pj * pjToMj;
    e.dstoreMj += double(l1.snoopsReceived) * p.l1TagProbePj * pjToMj;
    e.dstoreMj += double(l1.fills + l1.writebacks) * p.lineFillPj * pjToMj;
    if (cc) {
        e.dstoreMj += leakMj(p.l1LeakMw * n, t);
    } else {
        // Local store accesses have no tag overhead.
        e.dstoreMj += double(rs.lsReads + rs.lsWrites) * p.lsAccessPj *
                      pjToMj;
        e.dstoreMj += double(rs.dmaAccesses) * p.dmaAccessPj * pjToMj;
        e.dstoreMj += leakMj((p.lsLeakMw + p.smallCacheLeakMw) * n, t);
    }

    //
    // Hardware stream-prefetcher state (CC only; the streaming
    // model's DMA engines are charged above). The stream table is
    // probed on every demand miss (train + predict) and on every
    // useful prefetch (confirmation re-probe). Off by default-config
    // construction when hwPrefetch is false, so the default energy
    // numbers are unchanged.
    //
    if (cc && cfg.hwPrefetch) {
        double probes = double(l1.demandMisses()) +
                        double(l1.prefetchesUseful);
        e.dstoreMj += probes * p.streamTableAccessPj * pjToMj;
        e.dstoreMj += leakMj(p.streamTableLeakMw * n, t);
    }

    //
    // On-chip network.
    //
    e.networkMj += double(rs.busBytes) * p.busPjPerByte * pjToMj;
    e.networkMj += double(rs.xbarBytes) * p.xbarPjPerByte * pjToMj;

    //
    // Shared L2.
    //
    e.l2Mj += double(rs.l2Hits + rs.l2Misses) * p.l2AccessPj * pjToMj;
    e.l2Mj += leakMj(p.l2LeakMw, t);

    //
    // Off-chip DRAM.
    //
    e.dramMj += double(rs.dramReadBytes + rs.dramWriteBytes) *
                p.dramPjPerByte * pjToMj;
    e.dramMj += leakMj(p.dramBackgroundMw, t);

    return e;
}

} // namespace cmpmem
