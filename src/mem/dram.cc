#include "mem/dram.hh"

#include <cassert>

#include "sim/sim_error.hh"

namespace cmpmem
{

DramChannel::DramChannel(const DramConfig &c) : cfg(c), channel("dram")
{
    if (cfg.bandwidthGBps <= 0)
        throwSimError(SimErrorKind::Config,
                      "DRAM bandwidth must be positive");
    // ticks (ps) to move one granule: bytes / (GB/s) = bytes ns/GB...
    // granule * 1000 / GBps picoseconds.
    ticksPerGranule =
        static_cast<Tick>(double(cfg.granuleBytes) * 1000.0 /
                              cfg.bandwidthGBps +
                          0.5);
    assert(ticksPerGranule > 0);
}

Tick
DramChannel::occupancyFor(std::uint32_t bytes) const
{
    std::uint32_t granules =
        (bytes + cfg.granuleBytes - 1) / cfg.granuleBytes;
    return Tick(granules) * ticksPerGranule;
}

Tick
DramChannel::latencyFor(Addr addr)
{
    if (!cfg.bankModel)
        return cfg.accessLatency;
    std::uint32_t bank =
        std::uint32_t(addr / cfg.rowBytes) % cfg.banks;
    Addr row = addr / (Addr(cfg.rowBytes) * cfg.banks);
    if (openRow.empty())
        openRow.assign(cfg.banks, ~Addr(0));
    if (openRow[bank] == row) {
        ++numRowHits;
        return cfg.rowHitLatency;
    }
    ++numRowMisses;
    openRow[bank] = row;
    return cfg.accessLatency;
}

Tick
DramChannel::read(Tick when, Addr addr, std::uint32_t bytes)
{
    std::uint32_t granules =
        (bytes + cfg.granuleBytes - 1) / cfg.granuleBytes;
    std::uint32_t moved = granules * cfg.granuleBytes;
    rdBytes += moved;
    ++rdCount;
    Tick start = channel.acquire(when, Tick(granules) * ticksPerGranule);
    return start + latencyFor(addr) + Tick(granules) * ticksPerGranule;
}

Tick
DramChannel::write(Tick when, Addr addr, std::uint32_t bytes)
{
    std::uint32_t granules =
        (bytes + cfg.granuleBytes - 1) / cfg.granuleBytes;
    std::uint32_t moved = granules * cfg.granuleBytes;
    wrBytes += moved;
    ++wrCount;
    (void)latencyFor(addr); // writes update the open-row state too
    Tick start = channel.acquire(when, Tick(granules) * ticksPerGranule);
    return start + Tick(granules) * ticksPerGranule;
}

} // namespace cmpmem
