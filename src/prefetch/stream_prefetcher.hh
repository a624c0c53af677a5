/**
 * @file
 * Hardware stream-based prefetcher, modelled after the tagged
 * sequential prefetcher of Vanderwiel & Lilja (the paper's reference
 * [41]): it keeps a history of the last 8 cache misses to identify
 * sequential accesses, runs a configurable number of cache lines
 * ahead of the latest miss, and tracks 4 separate access streams.
 */

#ifndef CMPMEM_PREFETCH_STREAM_PREFETCHER_HH
#define CMPMEM_PREFETCH_STREAM_PREFETCHER_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace cmpmem
{

/** Sizing of the stream prefetcher. */
struct PrefetcherConfig
{
    std::uint32_t lineBytes = 32;
    std::uint32_t historyEntries = 8; ///< recent misses remembered
    std::uint32_t streams = 4;        ///< streams tracked at once
    std::uint32_t depth = 4; ///< lines to run ahead of the latest miss
};

/**
 * The paper's prefetch engine: a deterministic state machine over its
 * inputs, so runs stay bit-reproducible.
 *
 * The controller feeds it demand misses and first-use hits on
 * prefetched lines (the "tag" in tagged prefetching); it returns the
 * line addresses to fetch.
 */
class StreamPrefetcher
{
  public:
    explicit StreamPrefetcher(const PrefetcherConfig &cfg);

    /**
     * A demand miss on @p line occurred. @return lines to prefetch.
     */
    std::vector<Addr> onMiss(Addr line);

    /**
     * A demand access hit a line the prefetcher installed; advance
     * the owning stream. @return lines to prefetch.
     */
    std::vector<Addr> onPrefetchHit(Addr line);

    const PrefetcherConfig &config() const { return cfg; }

    std::uint64_t streamsAllocated() const { return numStreams; }

  private:
    struct Stream
    {
        bool valid = false;
        Addr nextDemand = 0;   ///< expected next demand line
        Addr nextPrefetch = 0; ///< next line to issue
        std::uint64_t lastUse = 0;
    };

    /** Issue prefetches so @p s runs depth lines ahead of @p line. */
    void runAhead(Stream &s, Addr line, std::vector<Addr> &out);

    PrefetcherConfig cfg;
    std::vector<Addr> history; ///< circular, most recent misses
    std::size_t histPos = 0;
    std::vector<Stream> streams;
    std::uint64_t useClock = 0;
    std::uint64_t numStreams = 0;
};

} // namespace cmpmem

#endif // CMPMEM_PREFETCH_STREAM_PREFETCHER_HH
