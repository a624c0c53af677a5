/**
 * @file
 * Golden simulated-stats digests (DESIGN.md §14). Each case pins the
 * full StatSet of one (workload, model) point at the canonical gate
 * configuration — 4 cores, Table 2 defaults, smoke scale — to a
 * committed FNV-1a digest. The simulator is bit-reproducible, so any
 * digest drift is a real change to simulated behaviour: review it,
 * then regenerate the constants from the failure message (and the
 * BENCH baselines via scripts/check.sh --update-baselines) in the
 * same commit.
 */

#include <gtest/gtest.h>

#include "cmpmem.hh"

namespace cmpmem
{
namespace
{

/** The pinned gate configuration for golden runs. */
SystemConfig
goldenConfig(MemModel model)
{
    return makeConfig(4, model);
}

WorkloadParams
goldenParams()
{
    WorkloadParams p;
    p.scale = 0;
    return p;
}

struct GoldenCase
{
    const char *workload;
    MemModel model;
    const char *digest;
};

std::string
goldenName(const testing::TestParamInfo<GoldenCase> &info)
{
    return std::string(info.param.workload) + "_" +
           to_string(info.param.model);
}

class Golden : public testing::TestWithParam<GoldenCase>
{
};

TEST_P(Golden, StatsDigestMatchesCommittedValue)
{
    const GoldenCase &c = GetParam();
    RunResult r = runWorkload(c.workload, goldenConfig(c.model),
                              goldenParams());
    ASSERT_TRUE(r.verified);
    EXPECT_EQ(r.stats.toStatSet().digest(), c.digest)
        << "simulated stats changed for " << c.workload << "/"
        << to_string(c.model)
        << "; if intended, update this constant and regenerate "
           "baselines/ (scripts/check.sh --update-baselines)\n"
        << r.stats.toStatSet().format();
}

// Regenerate by running this suite and copying the digests from the
// failure messages.
constexpr GoldenCase kGoldenCases[] = {
    {"art", MemModel::CC, "fnv1a:358857161687b047"},
    {"art", MemModel::STR, "fnv1a:414d58376743db5e"},
    {"fem", MemModel::CC, "fnv1a:2f1260f8c3f7995d"},
    {"fem", MemModel::STR, "fnv1a:53ea353478b777b4"},
    {"bitonic", MemModel::CC, "fnv1a:70987e1a68a9167c"},
    {"bitonic", MemModel::STR, "fnv1a:6cff7836a709e3b7"},
};

INSTANTIATE_TEST_SUITE_P(Workloads, Golden,
                         testing::ValuesIn(kGoldenCases), goldenName);

// The digest algorithm itself is pinned: if the hashing ever
// changes, every committed golden constant and BENCH baseline goes
// stale at once, so make that a one-line failure here.
TEST(GoldenDigest, AlgorithmIsStable)
{
    StatSet s;
    s.set("a", 1.0);
    s.set("b", 0.5);
    s.set("c", -0.0); // normalized to +0.0 before hashing
    EXPECT_EQ(s.digest(), "fnv1a:c32a2510e8743721");

    StatSet zero;
    zero.set("a", 1.0);
    zero.set("b", 0.5);
    zero.set("c", 0.0);
    EXPECT_EQ(zero.digest(), s.digest());

    StatSet reordered;
    reordered.set("b", 0.5);
    reordered.set("a", 1.0);
    reordered.set("c", 0.0);
    EXPECT_NE(reordered.digest(), s.digest());
}

} // namespace
} // namespace cmpmem
