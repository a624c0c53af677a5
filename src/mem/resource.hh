/**
 * @file
 * Latency+occupancy resource model for buses, ports, and channels.
 *
 * cmpmem models interconnect and memory-channel contention with
 * reservation resources rather than flit-level networks: a
 * transaction acquires each resource on its path for an occupancy
 * proportional to the bytes moved, and later transactions queue
 * behind it. This captures exactly the contention effects the paper
 * studies (bus arbitration, crossbar port serialization, memory
 * channel saturation) at a fraction of the simulation cost.
 */

#ifndef CMPMEM_MEM_RESOURCE_HH
#define CMPMEM_MEM_RESOURCE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace cmpmem
{

/**
 * A serially shared resource scheduled at interval granularity.
 *
 * Transactions walk their whole path at issue time, which means they
 * reserve *future* slots (a miss reserves the response beat on its
 * bus ~100 ns ahead). A single next-free cursor would make such a
 * future reservation block the idle gap before it and serialize
 * unrelated transactions; the busy-interval calendar with first-fit
 * gap search keeps the resource available in those gaps.
 *
 * The calendar is a flat array of busy intervals, sorted, disjoint
 * and merged (no two live intervals touch), so their ends increase
 * strictly. Entries before @c head are dead: intervals ending more
 * than pruneHorizon before the current request are pruned by
 * advancing @c head, and the dead prefix is compacted away only once
 * it is the larger half of the array. Under congestion the horizon
 * still retains hundreds of live intervals (about 450 on average, up
 * to 1634, on bandwidth-bound runs), so acquire() binary-searches
 * the scan start and merges a reservation that touches a neighbour
 * in place; only an isolated reservation shifts the array tail
 * (DESIGN.md §19).
 */
class Resource
{
  public:
    explicit Resource(std::string name = "resource");

    /**
     * Reserve the resource for @p occupancy ticks, no earlier than
     * @p earliest.
     *
     * @return the tick at which the reservation begins; the caller's
     *         transaction completes at the returned tick plus its own
     *         latency/occupancy as appropriate.
     */
    Tick acquire(Tick earliest, Tick occupancy);

    /** End of the last reservation made so far. */
    Tick nextFree() const;

    /** Total reserved (busy) ticks, for utilization statistics. */
    Tick busyTicks() const { return busy; }

    /** Total ticks transactions spent waiting for the resource. */
    Tick waitTicks() const { return waited; }

    std::uint64_t acquisitions() const { return count; }

    const std::string &name() const { return label; }

    /** Live (unpruned) busy intervals in the calendar. */
    std::size_t intervals() const { return busyList.size() - head; }

    void reset();

  private:
    struct Interval
    {
        Tick start;
        Tick end;
    };

    /** Reservations older than this can no longer conflict. */
    static constexpr Tick pruneHorizon = 10 * ticksPerUs;

    /** Dead-prefix length past which prune() compacts the array. */
    static constexpr std::size_t compactMin = 64;

    void prune(Tick earliest);

    std::string label;
    std::vector<Interval> busyList; ///< live entries are [head, size)
    std::size_t head = 0;
    Tick busy = 0;
    Tick waited = 0;
    std::uint64_t count = 0;
};

/**
 * A bandwidth-style resource: converts byte counts into occupancy
 * given a width (bytes moved per beat) and a beat time.
 */
class ChannelResource : public Resource
{
  public:
    ChannelResource(std::string name, std::uint32_t width_bytes,
                    Tick beat_ticks);

    /** Reserve for a transfer of @p bytes; returns reservation start. */
    Tick acquireTransfer(Tick earliest, std::uint64_t bytes);

    /** Occupancy in ticks for a transfer of @p bytes. */
    Tick transferTicks(std::uint64_t bytes) const;

    std::uint64_t bytesMoved() const { return totalBytes; }

  private:
    std::uint32_t width;
    Tick beat;
    std::uint64_t totalBytes = 0;
};

} // namespace cmpmem

#endif // CMPMEM_MEM_RESOURCE_HH
