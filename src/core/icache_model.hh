/**
 * @file
 * Statistical instruction-cache model.
 *
 * Each core has a 16 KB 2-way I-cache (Table 2). Simulating real
 * instruction fetch would require real binaries; instead, each
 * workload variant declares a characteristic I-cache miss rate per
 * thousand instruction bundles (see DESIGN.md substitutions). The
 * model deterministically injects that rate and charges a fixed
 * refill latency (code working sets fit in the L2 after warm-up).
 * This is sufficient to reproduce the paper's observations that
 * MPEG-2 "suffers a moderate number of instruction cache misses" and
 * that the stream-optimized code of Figure 9 notably increases them.
 */

#ifndef CMPMEM_CORE_ICACHE_MODEL_HH
#define CMPMEM_CORE_ICACHE_MODEL_HH

#include <cstdint>

#include "sim/types.hh"

namespace cmpmem
{

struct ICacheConfig
{
    Tick missLatency = 25 * ticksPerNs; ///< refill from L2
};

class ICacheModel
{
  public:
    explicit ICacheModel(const ICacheConfig &config) : cfg(config) {}

    /** Set by the workload variant before the kernel starts. */
    void setMissesPerKiloInstr(double mpki) { this->mpki = mpki; }
    double missesPerKiloInstr() const { return mpki; }

    /**
     * Account for @p bundles issued instruction bundles.
     * @return the fetch-stall ticks to charge the core.
     */
    Tick
    accrue(std::uint64_t bundles)
    {
        numFetches += bundles;
        if (mpki <= 0.0)
            return 0;

        missCredit += double(bundles) * mpki / 1000.0;
        if (missCredit < 1.0)
            return 0;

        auto misses = static_cast<std::uint64_t>(missCredit);
        missCredit -= double(misses);
        numMisses += misses;
        return Tick(misses) * cfg.missLatency;
    }

    std::uint64_t fetches() const { return numFetches; }
    std::uint64_t misses() const { return numMisses; }

  private:
    ICacheConfig cfg;
    double mpki = 0.0;
    double missCredit = 0.0;
    std::uint64_t numFetches = 0;
    std::uint64_t numMisses = 0;
};

} // namespace cmpmem

#endif // CMPMEM_CORE_ICACHE_MODEL_HH
