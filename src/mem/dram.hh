/**
 * @file
 * Off-chip memory channel: bandwidth-limited, fixed random-access
 * latency, with read/write traffic accounting (the source of the
 * paper's Figures 3, 8 and 9 and the DRAM component of Figure 4).
 */

#ifndef CMPMEM_MEM_DRAM_HH
#define CMPMEM_MEM_DRAM_HH

#include <cstdint>
#include <vector>

#include "mem/resource.hh"
#include "sim/types.hh"

namespace cmpmem
{

/** Configuration matching the paper's Table 2 memory channel row. */
struct DramConfig
{
    /** Channel bandwidth in GB/s: 1.6, 3.2, 6.4 or 12.8. */
    double bandwidthGBps = 3.2;

    /** Random access latency. */
    Tick accessLatency = 70 * ticksPerNs;

    /** Transfer granule; the channel moves whole granules. */
    std::uint32_t granuleBytes = 32;

    /**
     * Optional bank/row model (off by default to match the paper's
     * flat 70 ns random-access channel): accesses that hit the open
     * row of their bank see rowHitLatency instead of accessLatency.
     * DRAMsim-style fidelity for the ablation bench.
     */
    bool bankModel = false;
    std::uint32_t banks = 8;
    std::uint32_t rowBytes = 2048;
    Tick rowHitLatency = 30 * ticksPerNs;
};

/**
 * A single off-chip memory channel.
 */
class DramChannel
{
  public:
    explicit DramChannel(const DramConfig &cfg);

    /**
     * Issue a read of @p bytes at @p addr beginning no earlier than
     * @p when. @return the tick at which the data is available
     * on-chip.
     */
    Tick read(Tick when, Addr addr, std::uint32_t bytes);

    /**
     * Issue a (posted) write of @p bytes at @p addr beginning no
     * earlier than @p when. @return the tick at which the channel
     * accepted the last beat; nothing normally waits on this.
     */
    Tick write(Tick when, Addr addr, std::uint32_t bytes);

    const DramConfig &config() const { return cfg; }

    std::uint64_t readBytes() const { return rdBytes; }
    std::uint64_t writeBytes() const { return wrBytes; }
    std::uint64_t totalBytes() const { return rdBytes + wrBytes; }
    std::uint64_t readAccesses() const { return rdCount; }
    std::uint64_t writeAccesses() const { return wrCount; }

    /** Channel busy time, for saturation diagnostics. */
    Tick busyTicks() const { return channel.busyTicks(); }

    /** Occupancy for @p bytes (rounded up to whole granules). */
    Tick occupancyFor(std::uint32_t bytes) const;

    /** Earliest tick a new channel reservation could start. */
    Tick nextFreeHint() const { return channel.nextFree(); }

    std::uint64_t rowHits() const { return numRowHits; }
    std::uint64_t rowMisses() const { return numRowMisses; }

  private:
    /** Effective access latency for @p addr (row model aware). */
    Tick latencyFor(Addr addr);

    DramConfig cfg;
    Resource channel;
    Tick ticksPerGranule;
    std::vector<Addr> openRow; ///< per-bank open row (bank model)
    std::uint64_t rdBytes = 0;
    std::uint64_t wrBytes = 0;
    std::uint64_t rdCount = 0;
    std::uint64_t wrCount = 0;
    std::uint64_t numRowHits = 0;
    std::uint64_t numRowMisses = 0;
};

} // namespace cmpmem

#endif // CMPMEM_MEM_DRAM_HH
