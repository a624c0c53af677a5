/**
 * @file
 * Harness tests: table formatting, normalized breakdowns, stat-set
 * export, the runner contract, and bench flag and environment
 * parsing.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "cmpmem.hh"

namespace cmpmem
{
namespace
{

TEST(TextTable, AlignsColumnsAndRule)
{
    TextTable t({"a", "long_header"});
    t.addRow({"xxxxxx", "1"});
    std::string out = t.format();
    // Header, rule, one row.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
    EXPECT_NE(out.find("long_header"), std::string::npos);
    EXPECT_NE(out.find("xxxxxx"), std::string::npos);
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Format, Helpers)
{
    EXPECT_EQ(fmt("%d-%s", 5, "x"), "5-x");
    EXPECT_EQ(fmtF(3.14159, 2), "3.14");
    EXPECT_EQ(fmtPct(0.125), "12.50%");
}

TEST(NormBreakdown, ComponentsSumToNormalizedTime)
{
    RunStats rs;
    rs.execTicks = 1000;
    CoreStats c1;
    c1.usefulTicks = 600;
    c1.syncTicks = 100;
    c1.loadStallTicks = 200;
    c1.storeStallTicks = 100;
    CoreStats c2;
    c2.usefulTicks = 500; // finishes early: 500 idle -> sync
    rs.perCore = {c1, c2};

    NormBreakdown b = normalizedBreakdown(rs, 2000);
    // Average core busy+idle time = exec time; normalized to 2000.
    EXPECT_DOUBLE_EQ(b.total(), 0.5);
    EXPECT_DOUBLE_EQ(b.useful, (600 + 500) / 4000.0);
    EXPECT_DOUBLE_EQ(b.load, 200 / 4000.0);
    // Idle tail of core 2 lands in sync.
    EXPECT_DOUBLE_EQ(b.sync, (100 + 500) / 4000.0);
}

TEST(NormBreakdown, EmptyAndZeroBaselineAreSafe)
{
    RunStats rs;
    EXPECT_DOUBLE_EQ(normalizedBreakdown(rs, 0).total(), 0.0);
    EXPECT_DOUBLE_EQ(normalizedBreakdown(rs, 100).total(), 0.0);
}

TEST(RunStats, StatSetExportCoversKeyCounters)
{
    WorkloadParams p;
    p.scale = 0;
    RunResult r = runWorkload("fir", makeConfig(2, MemModel::CC), p);
    StatSet s = r.stats.toStatSet();
    EXPECT_GT(s.get("exec_ticks"), 0.0);
    EXPECT_GT(s.get("core.instructions"), 0.0);
    EXPECT_GT(s.get("l1.load_misses"), 0.0);
    EXPECT_GT(s.get("dram.read_bytes"), 0.0);
    EXPECT_GT(s.get("l1.miss_rate"), 0.0);
    EXPECT_LT(s.get("l1.miss_rate"), 1.0);
}

TEST(Runner, ReportsWorkloadIdentityAndHostCost)
{
    WorkloadParams p;
    p.scale = 0;
    p.streamOptimized = false;
    RunResult r = runWorkload("mpeg2", makeConfig(2, MemModel::CC), p);
    EXPECT_EQ(r.stats.workload, "mpeg2");
    EXPECT_EQ(r.stats.variant, "orig");
    EXPECT_GT(r.hostSeconds, 0.0);
}

TEST(Registry, AllElevenWorkloadsRegistered)
{
    auto names = workloadNames();
    EXPECT_EQ(names.size(), 11u);
    for (const auto &n : names) {
        auto w = createWorkload(n);
        EXPECT_EQ(w->name(), n);
    }
}

TEST(Config, ValidateRejectsNonsense)
{
    // Config mistakes are recoverable (SimErrorKind::Config), not
    // process-fatal: a sweep must survive one bad point.
    SystemConfig cfg = makeConfig(16, MemModel::STR);
    cfg.hwPrefetch = true;
    try {
        cfg.validate();
        FAIL() << "validate() accepted STR + hwPrefetch";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimErrorKind::Config);
        EXPECT_NE(std::string(e.what()).find("prefetching"),
                  std::string::npos);
    }

    SystemConfig cfg2 = makeConfig(0, MemModel::CC);
    try {
        cfg2.validate();
        FAIL() << "validate() accepted 0 cores";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimErrorKind::Config);
        EXPECT_NE(std::string(e.what()).find("core count"),
                  std::string::npos);
    }

    // The stream prefetcher queues every line up to depth ahead, so
    // an unbounded depth would allocate without limit.
    for (std::uint32_t depth : {0u, 65u}) {
        SystemConfig pf = makeConfig(1, MemModel::CC);
        pf.hwPrefetch = true;
        pf.prefetchDepth = depth;
        try {
            pf.validate();
            FAIL() << "validate() accepted prefetch depth " << depth;
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), SimErrorKind::Config);
            EXPECT_NE(std::string(e.what()).find("prefetch depth"),
                      std::string::npos);
        }
    }
}

/**
 * parseBenchArgs() on one flag. The parsed values are process-wide
 * overrides, so callers run it only inside a death-test child.
 */
void
parseOneBenchArg(const char *flag)
{
    std::string prog = "bench";
    std::string arg = flag;
    char *argv[] = {prog.data(), arg.data(), nullptr};
    parseBenchArgs(2, argv);
}

TEST(BenchArgs, MalformedValuesAreFatal)
{
    // A typo must not fall back to 0: 0 ticks turns the watchdog off.
    for (const char *bad :
         {"--watchdog-ticks=abc", "--watchdog-ticks=", "--watchdog-ticks=-5",
          "--watchdog-ticks=12x", "--watchdog-ticks=99999999999999999999"}) {
        EXPECT_EXIT(parseOneBenchArg(bad), testing::ExitedWithCode(1),
                    bad)
            << bad;
    }
}

TEST(BenchArgs, RetiredSweepFlagsAreFatal)
{
    // Sweep jobs always run in-process with no resume journal, so
    // these flags are unknown arguments.
    for (const char *gone :
         {"--isolate", "--resume", "--retries=1", "--deadline=1.5"}) {
        EXPECT_EXIT(parseOneBenchArg(gone), testing::ExitedWithCode(1),
                    "unknown or malformed argument")
            << gone;
    }
}

TEST(BenchArgs, WellFormedValuesApply)
{
    EXPECT_EXIT(
        {
            parseOneBenchArg("--watchdog-ticks=40000000000000");
            SystemConfig cfg = makeConfig(1, MemModel::CC);
            std::exit(cfg.watchdog.maxTicks == 40'000'000'000'000ULL ? 0
                                                                     : 2);
        },
        testing::ExitedWithCode(0), "");
}

TEST(StrictParsers, AcceptWholeValuesOnly)
{
    unsigned long long n = 7;
    EXPECT_TRUE(parseCount("0", 10, n));
    EXPECT_EQ(n, 0u);
    EXPECT_TRUE(parseCount("10", 10, n));
    EXPECT_EQ(n, 10u);
    for (const char *bad : {"", "x", "-1", "+1", " 1", "1 ", "2x", "11",
                            "99999999999999999999"}) {
        EXPECT_FALSE(parseCount(bad, 10, n)) << "'" << bad << "'";
    }
    EXPECT_EQ(n, 10u) << "a rejected value leaves the output untouched";

    double x = -1;
    EXPECT_TRUE(parseNonNegativeNumber("3.2", x));
    EXPECT_EQ(x, 3.2);
    EXPECT_TRUE(parseNonNegativeNumber(".5", x));
    EXPECT_EQ(x, 0.5);
    EXPECT_TRUE(parseNonNegativeNumber("1e3", x));
    EXPECT_EQ(x, 1000.0);
    for (const char *bad : {"", "x", "-3", "nan", "inf", "1e999", "2s",
                            " 1"}) {
        EXPECT_FALSE(parseNonNegativeNumber(bad, x)) << "'" << bad << "'";
    }
    EXPECT_EQ(x, 1000.0);
}

/**
 * Read @p var set to @p value through @p read in a death-test child,
 * so the setting never leaks into the rest of the suite.
 */
template <typename Read>
void
readEnvAs(const char *var, const char *value, Read read)
{
    setenv(var, value, 1);
    (void)read();
    std::exit(0);
}

TEST(BenchEnv, MalformedValuesAreFatal)
{
    // A typo must not read as scale 0, divisor 1 or "all CPUs".
    const auto scale = [] { return benchScale(); };
    const auto divisor = [] { return benchScaleDivisor(); };
    const auto jobs = [] { return sweepWorkerCount(0); };
    for (const char *bad : {"x", "", "2x", "-1", " 1", "1.5"}) {
        EXPECT_EXIT(readEnvAs("CMPMEM_SCALE", bad, scale),
                    testing::ExitedWithCode(1), "CMPMEM_SCALE")
            << "'" << bad << "'";
        EXPECT_EXIT(readEnvAs("CMPMEM_BENCH_SCALE", bad, divisor),
                    testing::ExitedWithCode(1), "CMPMEM_BENCH_SCALE")
            << "'" << bad << "'";
        EXPECT_EXIT(readEnvAs("CMPMEM_JOBS", bad, jobs),
                    testing::ExitedWithCode(1), "CMPMEM_JOBS")
            << "'" << bad << "'";
    }
    EXPECT_EXIT(readEnvAs("CMPMEM_SCALE", "3000000000", scale),
                testing::ExitedWithCode(1), "CMPMEM_SCALE");

    // parseBenchArgs() reads the environment up front, so a bench
    // fails before it prints its banner.
    const auto args = [] {
        std::string prog = "bench";
        char *argv[] = {prog.data(), nullptr};
        parseBenchArgs(1, argv);
        return 0;
    };
    EXPECT_EXIT(readEnvAs("CMPMEM_SCALE", "x", args),
                testing::ExitedWithCode(1), "CMPMEM_SCALE");
}

TEST(BenchEnv, WellFormedValuesKeepTheirMeaning)
{
    // Each check runs in a child: 0 = the value was read as expected.
    EXPECT_EXIT(
        {
            setenv("CMPMEM_SCALE", "0", 1);
            setenv("CMPMEM_BENCH_SCALE", "0", 1);
            setenv("CMPMEM_JOBS", "0", 1);
            std::exit(benchScale() == 0 && benchScaleDivisor() == 1 &&
                              sweepWorkerCount(0) >= 1
                          ? 0
                          : 2);
        },
        testing::ExitedWithCode(0), "");
    EXPECT_EXIT(
        {
            setenv("CMPMEM_SCALE", "3", 1);
            setenv("CMPMEM_BENCH_SCALE", "20", 1);
            setenv("CMPMEM_JOBS", "5", 1);
            std::exit(benchScale() == 3 && benchScaleDivisor() == 20 &&
                              sweepWorkerCount(0) == 5
                          ? 0
                          : 2);
        },
        testing::ExitedWithCode(0), "");
    EXPECT_EXIT(
        {
            unsetenv("CMPMEM_SCALE");
            unsetenv("CMPMEM_BENCH_SCALE");
            std::exit(benchScale() == 1 && benchScaleDivisor() == 1 ? 0
                                                                    : 2);
        },
        testing::ExitedWithCode(0), "");
}

} // namespace
} // namespace cmpmem
