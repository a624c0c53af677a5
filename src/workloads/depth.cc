/**
 * @file
 * Stereo Depth Extraction, "parallelized by dividing input frames
 * into 32x32 blocks and statically assigning them to processors"
 * (Section 4.2). The most compute-intensive workload of the suite
 * (Table 3: 8662 instructions per L1 miss, 11 MB/s off-chip): block
 * matching over a disparity range, where each fetched byte feeds
 * dozens of SAD operations. Both models perform identically here at
 * every core count and frequency — the paper's control case.
 *
 *  - CC: loads the left block and the right search strip through
 *    the cache (they stay resident), then burns SAD compute.
 *  - STR: DMAs the same pixels into the local store.
 */

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "sim/rng.hh"
#include "workloads/factories.hh"
#include "workloads/kernels_common.hh"

namespace cmpmem
{
namespace
{

constexpr int kBlock = 32;
constexpr int kMaxDisp = 16;
constexpr int kWin = 8; ///< per-pixel SAD window
/** Bundles per pixel: 16 disparities x 64-pixel window SAD on a
 *  3-slot VLIW (abs-diff + accumulate pairs) plus argmin logic. */
constexpr Cycles kPixelCycles = 360;
/** Distinct SAD window origins per axis: windows clamp inside the
 *  block, so pixel (x, y) uses origin (clamp(x - 4), clamp(y - 4)). */
constexpr int kOrigins = kBlock - kWin + 1;

int
windowOrigin(int p)
{
    return std::min(std::max(p - kWin / 2, 0), kBlock - kWin);
}

} // namespace

/**
 * The block matcher, shared by the kernel (on the values it loaded)
 * and verify() (on the host copies of the frames), so outputs verify
 * bit-exactly. Per disparity, it box-sums the block's abs-diff image
 * separably: running 8-row column sums, then 8-column sums at every
 * window origin. A SAD is at most 64 * 255 = 16320, so uint16_t holds
 * it exactly, and the strict < keeps the lowest disparity on ties, as
 * a per-pixel search from d = 0 upward does.
 */
void
disparityBlock(const std::uint8_t *lbuf, const std::uint8_t *rbuf,
               int strip_cols, std::uint8_t *out)
{
    // Right rows padded so column x + d needs no clamp in the d loop.
    std::uint8_t rpad[kBlock][kBlock + kMaxDisp];
    for (int y = 0; y < kBlock; ++y) {
        for (int c = 0; c < kBlock + kMaxDisp; ++c)
            rpad[y][c] = rbuf[y * strip_cols + std::min(c, strip_cols - 1)];
    }

    std::uint16_t best[kOrigins][kOrigins];
    std::uint8_t bestD[kOrigins][kOrigins] = {};
    std::fill(&best[0][0], &best[0][0] + kOrigins * kOrigins,
              std::uint16_t(0xffff));
    std::uint8_t diff[kBlock][kBlock];
    std::uint16_t col[kOrigins][kBlock];
    for (int d = 0; d < kMaxDisp; ++d) {
        for (int y = 0; y < kBlock; ++y) {
            for (int x = 0; x < kBlock; ++x) {
                int l = lbuf[y * kBlock + x];
                int r = rpad[y][x + d];
                diff[y][x] = std::uint8_t(l > r ? l - r : r - l);
            }
        }
        for (int x = 0; x < kBlock; ++x) {
            std::uint16_t s = 0;
            for (int y = 0; y < kWin; ++y)
                s = std::uint16_t(s + diff[y][x]);
            col[0][x] = s;
        }
        for (int oy = 1; oy < kOrigins; ++oy) {
            for (int x = 0; x < kBlock; ++x) {
                col[oy][x] = std::uint16_t(col[oy - 1][x] +
                                           diff[oy + kWin - 1][x] -
                                           diff[oy - 1][x]);
            }
        }
        for (int oy = 0; oy < kOrigins; ++oy) {
            std::uint16_t sad[kOrigins] = {};
            for (int k = 0; k < kWin; ++k) {
                for (int ox = 0; ox < kOrigins; ++ox)
                    sad[ox] = std::uint16_t(sad[ox] + col[oy][ox + k]);
            }
            for (int ox = 0; ox < kOrigins; ++ox) {
                if (sad[ox] < best[oy][ox]) {
                    best[oy][ox] = sad[ox];
                    bestD[oy][ox] = std::uint8_t(d);
                }
            }
        }
    }

    for (int y = 0; y < kBlock; ++y) {
        for (int x = 0; x < kBlock; ++x)
            out[y * kBlock + x] = bestD[windowOrigin(y)][windowOrigin(x)];
    }
}

namespace
{

class DepthWorkload : public Workload
{
  public:
    explicit DepthWorkload(const WorkloadParams &p) : Workload(p)
    {
        width = 320;
        height = 224;
        pairs = p.scale > 0 ? 3 * p.scale : 1; // "3 CIF image pairs"
    }

    std::string name() const override { return "depth"; }

    double icacheMpki(const SystemConfig &) const override { return 0.05; }

    void
    setup(CmpSystem &sys) override
    {
        auto &mem = sys.mem();
        nthreads = sys.cores();
        const std::uint64_t frameBytes =
            std::uint64_t(width) * std::uint64_t(height);
        left = ArrayRef<std::uint8_t>::alloc(mem, frameBytes * pairs);
        right = ArrayRef<std::uint8_t>::alloc(mem, frameBytes * pairs);
        disp = ArrayRef<std::uint8_t>::alloc(mem,
                                              frameBytes * pairs);
        doneBar = std::make_unique<Barrier>(nthreads);

        // Synthesize a stereo pair: the right image is the left one
        // shifted by a per-region disparity plus noise, so the block
        // matcher has a real signal to find.
        Rng rng(77);
        hostLeft.resize(frameBytes * pairs);
        hostRight.resize(frameBytes * pairs);
        for (std::uint32_t p = 0; p < pairs; ++p) {
            std::uint64_t fb = std::uint64_t(p) * frameBytes;
            for (int y = 0; y < height; ++y) {
                for (int x = 0; x < width; ++x) {
                    auto v = std::uint8_t(
                        (x * 7 + y * 13 + int(rng.nextBelow(32))) &
                        0xff);
                    hostLeft[fb + std::uint64_t(y) * width + x] = v;
                }
            }
            int shift = int(p % kMaxDisp);
            for (int y = 0; y < height; ++y) {
                for (int x = 0; x < width; ++x) {
                    int sx = std::min(x + shift, width - 1);
                    hostRight[fb + std::uint64_t(y) * width + x] =
                        hostLeft[fb + std::uint64_t(y) * width + sx];
                }
            }
        }
        for (std::uint64_t i = 0; i < hostLeft.size(); ++i) {
            mem.write<std::uint8_t>(left.at(i), hostLeft[i]);
            mem.write<std::uint8_t>(right.at(i), hostRight[i]);
        }
    }

    KernelTask kernel(Context &ctx) override { return kern(ctx); }

    bool
    verify(CmpSystem &sys) override
    {
        auto &mem = sys.mem();
        const int bw = width / kBlock;
        const int bh = height / kBlock;
        const int strip = kBlock + kMaxDisp;
        std::vector<std::uint8_t> lbuf(kBlock * kBlock);
        std::vector<std::uint8_t> rbuf(std::size_t(strip) * kBlock);
        std::vector<std::uint8_t> want(kBlock * kBlock);
        for (std::uint32_t p = 0; p < pairs; ++p) {
            for (int by = 0; by < bh; ++by) {
                for (int bx = 0; bx < bw; ++bx) {
                    int lx0 = bx * kBlock;
                    int ly0 = by * kBlock;
                    int rxMax = std::min(lx0 + strip, width) - lx0;
                    for (int y = 0; y < kBlock; ++y) {
                        for (int x = 0; x < kBlock; ++x)
                            lbuf[y * kBlock + x] = hostLeft[pixelIndex(
                                p, lx0 + x, ly0 + y)];
                        for (int x = 0; x < rxMax; ++x)
                            rbuf[y * rxMax + x] = hostRight[pixelIndex(
                                p, lx0 + x, ly0 + y)];
                    }
                    disparityBlock(lbuf.data(), rbuf.data(), rxMax,
                                   want.data());
                    for (int y = 0; y < kBlock; ++y) {
                        for (int x = 0; x < kBlock; ++x) {
                            auto got = mem.read<std::uint8_t>(disp.at(
                                pixelIndex(p, lx0 + x, ly0 + y)));
                            if (got != want[y * kBlock + x])
                                return false;
                        }
                    }
                }
            }
        }
        return true;
    }

  private:
    std::uint64_t
    pixelIndex(std::uint32_t p, int x, int y) const
    {
        return (std::uint64_t(p) * height + y) * width + x;
    }

    /**
     * One kernel serves both models: the block-loads go through the
     * cache in CC and through DMA + local store in STR, and the SAD
     * math runs on in-register data either way.
     */
    KernelTask
    kern(Context &ctx)
    {
        const int bw = width / kBlock;
        const int bh = height / kBlock;
        const std::uint64_t blocks =
            std::uint64_t(pairs) * bh * bw;
        Range r = splitRange(blocks, ctx.tid(), ctx.nthreads());
        const bool str = ctx.model() == MemModel::STR;
        const int strip = kBlock + kMaxDisp; // right search strip

        std::vector<std::uint8_t> lbuf(kBlock * kBlock);
        std::vector<std::uint8_t> rbuf(std::size_t(strip) * kBlock);
        std::vector<std::uint8_t> dmap(kBlock * kBlock);

        for (std::uint64_t b = r.begin; b < r.end; ++b) {
            std::uint32_t p = std::uint32_t(b / (std::uint64_t(bh) * bw));
            int by = int((b / bw) % bh);
            int bx = int(b % bw);
            int lx0 = bx * kBlock;
            int ly0 = by * kBlock;
            int rxMax = std::min(lx0 + strip, width) - lx0;

            if (str) {
                // Strided gets: one row per stride.
                auto g1 = co_await ctx.dmaGetStrided(
                    left.at(pixelIndex(p, lx0, ly0)),
                    std::uint64_t(width), kBlock, kBlock, 0);
                auto g2 = co_await ctx.dmaGetStrided(
                    right.at(pixelIndex(p, lx0, ly0)),
                    std::uint64_t(width), std::uint32_t(rxMax), kBlock,
                    kBlock * kBlock);
                co_await ctx.dmaWait(g1);
                co_await ctx.dmaWait(g2);
                for (int y = 0; y < kBlock; ++y) {
                    for (int x = 0; x < kBlock; x += 4) {
                        auto w = co_await ctx.lsRead<std::uint32_t>(
                            std::uint32_t(y * kBlock + x));
                        std::memcpy(&lbuf[y * kBlock + x], &w, 4);
                    }
                    for (int x = 0; x < rxMax; x += 4) {
                        auto w = co_await ctx.lsRead<std::uint32_t>(
                            std::uint32_t(kBlock * kBlock + y * rxMax +
                                          x));
                        std::memcpy(&rbuf[y * rxMax + x], &w,
                                    std::min(4, rxMax - x));
                    }
                }
            } else {
                for (int y = 0; y < kBlock; ++y) {
                    for (int x = 0; x < kBlock; x += 4) {
                        auto w = co_await ctx.load<std::uint32_t>(
                            left.at(pixelIndex(p, lx0 + x, ly0 + y)));
                        std::memcpy(&lbuf[y * kBlock + x], &w, 4);
                    }
                    for (int x = 0; x < rxMax; x += 4) {
                        auto w = co_await ctx.load<std::uint32_t>(
                            right.at(pixelIndex(p, lx0 + x, ly0 + y)));
                        std::memcpy(&rbuf[y * rxMax + x], &w,
                                    std::min(4, rxMax - x));
                    }
                }
            }

            // Dense per-pixel disparity over the block: every
            // pixel runs a windowed SAD across the disparity range
            // (in-register compute on the fetched block data). The
            // host computes the whole map at once; the simulated
            // core is charged per pixel.
            disparityBlock(lbuf.data(), rbuf.data(), rxMax,
                           dmap.data());
            for (int y = 0; y < kBlock; ++y) {
                for (int x = 0; x < kBlock; x += 4) {
                    co_await ctx.compute(4 * kPixelCycles);
                    std::uint32_t w;
                    std::memcpy(&w, &dmap[y * kBlock + x], 4);
                    co_await ctx.storeNA<std::uint32_t>(
                        disp.at(pixelIndex(p, lx0 + x, ly0 + y)), w);
                }
            }
        }
        co_await ctx.barrier(*doneBar);
    }

    int width;
    int height;
    std::uint32_t pairs;
    int nthreads = 1;
    ArrayRef<std::uint8_t> left, right, disp;
    std::unique_ptr<Barrier> doneBar;
    std::vector<std::uint8_t> hostLeft, hostRight;
};

} // namespace

std::unique_ptr<Workload>
makeDepth(const WorkloadParams &p)
{
    return std::make_unique<DepthWorkload>(p);
}

} // namespace cmpmem
