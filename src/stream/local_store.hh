/**
 * @file
 * Per-core software-managed local store (scratch-pad) for the
 * streaming memory model.
 *
 * The 24 KB local store "is indexed as a random access memory" and,
 * unlike a cache, has no tag or control-bit overhead — which is why
 * its per-access energy is lower (see energy_params.cc). It is
 * private to its core, so it carries real data (unlike the caches,
 * which are timing metadata over the shared FunctionalMemory).
 */

#ifndef CMPMEM_STREAM_LOCAL_STORE_HH
#define CMPMEM_STREAM_LOCAL_STORE_HH

#include <cstdint>
#include <cstring>
#include <type_traits>
#include <vector>

#include "sim/types.hh"

namespace cmpmem
{

class LocalStore
{
  public:
    explicit LocalStore(std::uint32_t size_bytes = 24 * 1024);

    std::uint32_t size() const { return std::uint32_t(bytes.size()); }

    /** Raw byte access (bounds-checked; overruns are workload bugs). */
    void read(std::uint32_t offset, void *dst, std::size_t n) const;
    void write(std::uint32_t offset, const void *src, std::size_t n);

    template <typename T>
    T
    read(std::uint32_t offset) const
    {
        static_assert(std::is_trivially_copyable_v<T>);
        T v;
        read(offset, &v, sizeof(T));
        return v;
    }

    template <typename T>
    void
    write(std::uint32_t offset, const T &v)
    {
        static_assert(std::is_trivially_copyable_v<T>);
        write(offset, &v, sizeof(T));
    }

    /** Direct pointers for the DMA engine's bulk copies. */
    std::uint8_t *data() { return bytes.data(); }
    const std::uint8_t *data() const { return bytes.data(); }

    std::uint64_t coreReads() const { return numReads; }
    std::uint64_t coreWrites() const { return numWrites; }

    /** Core-side access accounting (timing handled by the Core). */
    void countRead() { ++numReads; }
    void countWrite() { ++numWrites; }

  private:
    void checkRange(std::uint32_t offset, std::size_t n) const;

    std::vector<std::uint8_t> bytes;
    std::uint64_t numReads = 0;
    std::uint64_t numWrites = 0;
};

} // namespace cmpmem

#endif // CMPMEM_STREAM_LOCAL_STORE_HH
