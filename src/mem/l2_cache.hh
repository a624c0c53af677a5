/**
 * @file
 * Shared second-level cache: 512 KB, 16-way, non-inclusive, banked,
 * 2.2 ns access, fronting the off-chip memory channel.
 *
 * Both memory models share this structure (the paper keeps an L2 in
 * the streaming system too: "L2 caches are useful with stream
 * processors, as they capture long-term reuse patterns"). The L2
 * avoids refills on writes that overwrite entire lines — both for L1
 * write-backs and for full-line DMA PUTs.
 */

#ifndef CMPMEM_MEM_L2_CACHE_HH
#define CMPMEM_MEM_L2_CACHE_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/cache_array.hh"
#include "mem/dram.hh"
#include "mem/resource.hh"
#include "sim/diagnosable.hh"
#include "sim/types.hh"

namespace cmpmem
{

struct L2Config
{
    std::uint32_t sizeBytes = 512 * 1024;
    std::uint32_t assoc = 16;
    std::uint32_t lineBytes = 32;
    std::uint32_t banks = 4;
    Tick accessLatency = 2200;  ///< ps (2.2 ns)
    Tick portOccupancy = 1250;  ///< ps per access per bank port
};

/**
 * The banked L2. Addresses interleave across banks at line
 * granularity.
 */
class L2Cache : public Diagnosable
{
  public:
    /**
     * Passive observer over L2 traffic (the coherence checker's view
     * of the writeback side of the hierarchy). Hooks fire after the
     * hit/miss outcome is known and must not affect timing.
     */
    struct Observer
    {
        virtual ~Observer() = default;
        virtual void l2Read(Tick t, Addr line, bool hit) = 0;
        virtual void l2Write(Tick t, Addr line, bool full_line,
                             bool hit) = 0;
    };

    L2Cache(const L2Config &cfg, DramChannel &dram);

    /** Attach an observer (null to detach). */
    void setObserver(Observer *o) { obs = o; }

    /** Which bank serves @p line (for crossbar port selection). */
    int bankFor(Addr line) const;

    /**
     * Read a line on behalf of an L1 miss / DMA get arriving at the
     * bank at @p when.
     * @param[out] hit whether the L2 had the line.
     * @return tick the data leaves the L2 toward the crossbar.
     */
    Tick readLine(Tick when, Addr line, bool &hit);

    /**
     * Accept a write of @p bytes within @p line (an L1 write-back or
     * a DMA put) arriving at @p when.
     *
     * @param full_line the write covers the entire line, so a miss
     *        allocates without refilling from DRAM.
     * @return tick the write completes at the L2.
     */
    Tick writeLine(Tick when, Addr line, std::uint32_t bytes,
                   bool full_line);

    /**
     * Account for dirty lines still resident at the end of a run:
     * they would eventually be written back, so add them to DRAM
     * write traffic (used by the run epilogue so that traffic
     * comparisons are drain-invariant).
     * @return the number of lines drained.
     */
    std::uint64_t drainDirty();

    const L2Config &config() const { return cfg; }

    std::uint64_t hits() const { return numHits; }
    std::uint64_t misses() const { return numMisses; }
    std::uint64_t accesses() const { return numHits + numMisses; }
    std::uint64_t writebacksToDram() const { return numWbToDram; }
    std::uint64_t refillsAvoided() const { return numRefillsAvoided; }

    std::string diagName() const override { return "l2"; }
    std::string diagnose() const override;

  private:
    struct Bank
    {
        Bank(const CacheGeometry &geom, const std::string &name)
            : tags(geom), port(name)
        {}
        CacheArray tags;
        Resource port;
    };

    /** Evict whatever allocate displaced; write dirty victims back. */
    void handleVictim(Tick when, const CacheArray::Victim &victim);

    L2Config cfg;
    DramChannel &dram;
    Observer *obs = nullptr;
    std::vector<std::unique_ptr<Bank>> bankArray;

    std::uint64_t numHits = 0;
    std::uint64_t numMisses = 0;
    std::uint64_t numWbToDram = 0;
    std::uint64_t numRefillsAvoided = 0;
};

} // namespace cmpmem

#endif // CMPMEM_MEM_L2_CACHE_HH
