/**
 * @file
 * Shared kernel helpers: typed array views over simulated memory,
 * bulk load/store coroutines, checksums, and small math utilities
 * used by several workloads.
 */

#ifndef CMPMEM_WORKLOADS_KERNELS_COMMON_HH
#define CMPMEM_WORKLOADS_KERNELS_COMMON_HH

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/context.hh"
#include "mem/functional_memory.hh"
#include "sim/task.hh"
#include "sim/types.hh"

namespace cmpmem
{

/**
 * A typed view of an array in simulated memory. Element access
 * computes addresses only; reads/writes go through a Context (timed)
 * or the FunctionalMemory (untimed, setup/verify).
 */
template <typename T>
struct ArrayRef
{
    Addr base = 0;
    std::uint64_t count = 0;

    Addr at(std::uint64_t i) const { return base + i * sizeof(T); }

    /** Allocate an array in @p mem. */
    static ArrayRef
    alloc(FunctionalMemory &mem, std::uint64_t n)
    {
        return {mem.alloc(n * sizeof(T), 64), n};
    }
};

/** Sequentially load @p words 32-bit words starting at @p addr. */
Co<void> loadWords(Context &ctx, Addr addr, std::uint32_t words);

/** Sequentially store @p words zero words (output-only, storeNA). */
Co<void> storeWordsNA(Context &ctx, Addr addr, std::uint32_t words);

/**
 * Thread partition helper: [begin, end) of @p n items for this tid.
 */
struct Range
{
    std::uint64_t begin;
    std::uint64_t end;
};

inline Range
splitRange(std::uint64_t n, int tid, int nthreads)
{
    std::uint64_t per = n / std::uint64_t(nthreads);
    std::uint64_t rem = n % std::uint64_t(nthreads);
    std::uint64_t lo = per * std::uint64_t(tid) +
                       std::min<std::uint64_t>(tid, rem);
    std::uint64_t hi = lo + per + (std::uint64_t(tid) < rem ? 1 : 0);
    return {lo, hi};
}

/**
 * In-place 8x8 integer orthogonal block transform shared by the
 * image/video codecs (a separable butterfly transform; exact integer
 * round trip: inverse(forward(x)) == x after the >>6 normalization).
 */
void forwardTransform8x8(std::int32_t *blk);
void inverseTransform8x8(std::int32_t *blk);

/**
 * Dense disparity map of one 32x32 stereo block (the depth workload's
 * block matcher, defined in depth.cc). Pixel (x, y) gets the disparity
 * d in [0, 16) with the least SAD between its 8x8 window of @p lbuf
 * and that window of @p rbuf shifted right by d columns; the window is
 * clamped inside the block, right-image columns are clamped to
 * @p strip_cols - 1, and ties go to the lowest d.
 *
 * @param lbuf left block, 32 rows of 32 pixels.
 * @param rbuf right search strip, 32 rows of @p strip_cols pixels.
 * @param out 1024 disparities, row-major.
 */
void disparityBlock(const std::uint8_t *lbuf, const std::uint8_t *rbuf,
                    int strip_cols, std::uint8_t *out);

/** FNV-1a checksum over a simulated-memory range (untimed). */
std::uint64_t checksumMem(FunctionalMemory &mem, Addr addr,
                          std::uint64_t bytes);

/** FNV-1a over a host buffer. */
std::uint64_t checksumHost(const void *data, std::uint64_t bytes);

} // namespace cmpmem

#endif // CMPMEM_WORKLOADS_KERNELS_COMMON_HH
