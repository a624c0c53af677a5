/**
 * @file
 * Functional verification of every paper workload on both memory
 * models: each kernel is a real algorithm, so its output must match
 * the host-side reference bit-exactly. Also sanity-checks the
 * model-specific machinery each run is expected to exercise.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "cmpmem.hh"

namespace cmpmem
{
namespace
{

struct Case
{
    const char *workload;
    MemModel model;
};

std::string
caseName(const testing::TestParamInfo<Case> &info)
{
    return std::string(info.param.workload) + "_" +
           to_string(info.param.model);
}

class WorkloadFunctional : public testing::TestWithParam<Case>
{
};

TEST_P(WorkloadFunctional, VerifiesOn4Cores)
{
    const Case &c = GetParam();
    SystemConfig cfg = makeConfig(4, c.model);
    WorkloadParams params;
    params.scale = 0; // tiny inputs for test speed

    RunResult r = runWorkload(c.workload, cfg, params);

    EXPECT_TRUE(r.verified) << c.workload << " output mismatch";
    EXPECT_GT(r.stats.execTicks, 0u);
    EXPECT_GT(r.stats.coreTotal.instructions(), 0u);

    if (c.model == MemModel::STR) {
        // Streaming runs move data with DMA (raytrace keeps its tree
        // in the small cache but still streams pixels out).
        EXPECT_GT(r.stats.dmaAccesses, 0u) << c.workload;
    } else {
        EXPECT_GT(r.stats.l1Total.demandAccesses(), 0u) << c.workload;
    }

    // Every run has energy in every live component.
    EXPECT_GT(r.energy.coreMj, 0.0);
    EXPECT_GT(r.energy.dramMj, 0.0);
    EXPECT_GT(r.energy.totalMj(), 0.0);
}

constexpr Case kCases[] = {
    {"mpeg2", MemModel::CC},    {"mpeg2", MemModel::STR},
    {"h264", MemModel::CC},     {"h264", MemModel::STR},
    {"raytrace", MemModel::CC}, {"raytrace", MemModel::STR},
    {"jpeg_enc", MemModel::CC}, {"jpeg_enc", MemModel::STR},
    {"jpeg_dec", MemModel::CC}, {"jpeg_dec", MemModel::STR},
    {"depth", MemModel::CC},    {"depth", MemModel::STR},
    {"fem", MemModel::CC},      {"fem", MemModel::STR},
    {"fir", MemModel::CC},      {"fir", MemModel::STR},
    {"art", MemModel::CC},      {"art", MemModel::STR},
    {"bitonic", MemModel::CC},  {"bitonic", MemModel::STR},
    {"merge", MemModel::CC},    {"merge", MemModel::STR},
};

INSTANTIATE_TEST_SUITE_P(AllWorkloads, WorkloadFunctional,
                         testing::ValuesIn(kCases), caseName);

/** The unoptimized (Figure 9/10) variants must also verify. */
TEST(WorkloadVariants, UnoptimizedVariantsVerify)
{
    WorkloadParams params;
    params.scale = 0;
    params.streamOptimized = false;
    for (const char *name : {"mpeg2", "art"}) {
        RunResult r =
            runWorkload(name, makeConfig(4, MemModel::CC), params);
        EXPECT_TRUE(r.verified) << name;
    }
}

/** PFS and prefetch configurations keep outputs correct. */
TEST(WorkloadVariants, PfsAndPrefetchVerify)
{
    WorkloadParams params;
    params.scale = 0;

    SystemConfig pfs = makeConfig(4, MemModel::CC);
    pfs.pfsEnabled = true;
    RunResult r1 = runWorkload("fir", pfs, params);
    EXPECT_TRUE(r1.verified);
    EXPECT_GT(r1.stats.l1Total.pfsStores, 0u);

    SystemConfig pf = makeConfig(4, MemModel::CC);
    pf.hwPrefetch = true;
    pf.prefetchDepth = 4;
    RunResult r2 = runWorkload("merge", pf, params);
    EXPECT_TRUE(r2.verified);
    EXPECT_GT(r2.stats.l1Total.prefetchesIssued, 0u);
    EXPECT_GT(r2.stats.l1Total.prefetchesUseful, 0u);
}

/** Workloads verify across core counts (1, 2, 8, 16). */
TEST(WorkloadVariants, CoreCountSweepVerifies)
{
    WorkloadParams params;
    params.scale = 0;
    for (int cores : {1, 2, 8, 16}) {
        for (MemModel m : {MemModel::CC, MemModel::STR}) {
            RunResult r = runWorkload("fir", makeConfig(cores, m),
                                      params);
            EXPECT_TRUE(r.verified)
                << cores << " cores " << to_string(m);
        }
    }
}

/**
 * The depth block matcher's definition, one pixel at a time: the
 * 8x8 window around (px, py) clamped inside the 32x32 block, SAD
 * against the right strip shifted by d (columns clamped to the
 * strip), lowest d on ties.
 */
std::uint8_t
referenceDisparity(const std::uint8_t *lbuf, const std::uint8_t *rbuf,
                   int strip_cols, int px, int py)
{
    constexpr int kBlock = 32, kMaxDisp = 16, kWin = 8;
    int wx = std::min(std::max(px - kWin / 2, 0), kBlock - kWin);
    int wy = std::min(std::max(py - kWin / 2, 0), kBlock - kWin);
    std::uint64_t best = ~0ull;
    int bestD = 0;
    for (int d = 0; d < kMaxDisp; ++d) {
        std::uint64_t sad = 0;
        for (int y = 0; y < kWin; ++y) {
            for (int x = 0; x < kWin; ++x) {
                int rc = std::min(wx + x + d, strip_cols - 1);
                sad += std::uint64_t(
                    std::abs(int(lbuf[(wy + y) * kBlock + wx + x]) -
                             int(rbuf[(wy + y) * strip_cols + rc])));
            }
        }
        if (sad < best) {
            best = sad;
            bestD = d;
        }
    }
    return std::uint8_t(bestD);
}

/**
 * disparityBlock must equal the per-pixel definition on every pixel:
 * full-range pixels, 2-bit pixels (SAD ties everywhere), and a
 * constant block (all disparities tie, answer 0), for interior
 * blocks (48-column strip) and the last block column, where the
 * strip is 32 columns and the right-column clamp bites.
 */
TEST(DepthDisparity, BlockMatchesPerPixelDefinition)
{
    Rng rng(2007);
    std::vector<std::uint8_t> lbuf(32 * 32), rbuf(48 * 32),
        got(32 * 32);
    for (int strip : {48, 32}) {
        for (std::uint64_t mask : {0xffull, 0x3ull, 0x0ull}) {
            const int blocks = mask ? 40 : 1;
            for (int b = 0; b < blocks; ++b) {
                std::uint8_t base = std::uint8_t(rng.nextBelow(256));
                for (auto &v : lbuf)
                    v = std::uint8_t(mask ? rng.next() & mask : base);
                for (auto &v : rbuf)
                    v = std::uint8_t(mask ? rng.next() & mask : base);
                disparityBlock(lbuf.data(), rbuf.data(), strip,
                               got.data());
                for (int y = 0; y < 32; ++y) {
                    for (int x = 0; x < 32; ++x) {
                        auto want = referenceDisparity(
                            lbuf.data(), rbuf.data(), strip, x, y);
                        ASSERT_EQ(int(got[y * 32 + x]), int(want))
                            << "strip " << strip << " mask " << mask
                            << " block " << b << " pixel (" << x
                            << ", " << y << ")";
                        if (!mask) {
                            ASSERT_EQ(int(want), 0);
                        }
                    }
                }
            }
        }
    }
}

} // namespace
} // namespace cmpmem
