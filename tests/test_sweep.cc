/**
 * @file
 * Sweep-engine tests: spec expansion (cross-product, axes, tags,
 * explicit points), the job-list executor (every job once, in list
 * order, failure isolation, log capture), JSON artifact validity, and
 * the determinism contract — parallel and serial execution of the
 * same spec produce bit-identical stats digests and energy per point
 * (the SweepIntegration suite, labelled "long" in ctest).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <cstdlib>
#include <stdexcept>

#include "cmpmem.hh"
#include "sim/log.hh"

namespace cmpmem
{
namespace
{

/**
 * Minimal recursive-descent JSON syntax checker — enough to assert
 * the artifacts are machine-readable without a JSON dependency.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : s(text) {}

    bool
    valid()
    {
        ws();
        if (!value())
            return false;
        ws();
        return i == s.size();
    }

  private:
    const std::string &s;
    std::size_t i = 0;

    void
    ws()
    {
        while (i < s.size() &&
               std::isspace(static_cast<unsigned char>(s[i])))
            ++i;
    }

    bool
    lit(const char *t)
    {
        std::size_t n = std::string::traits_type::length(t);
        if (s.compare(i, n, t) != 0)
            return false;
        i += n;
        return true;
    }

    bool
    str()
    {
        if (i >= s.size() || s[i] != '"')
            return false;
        ++i;
        while (i < s.size() && s[i] != '"') {
            if (s[i] == '\\') {
                ++i;
                if (i >= s.size())
                    return false;
            }
            ++i;
        }
        if (i >= s.size())
            return false;
        ++i; // closing quote
        return true;
    }

    bool
    number()
    {
        std::size_t start = i;
        if (i < s.size() && s[i] == '-')
            ++i;
        while (i < s.size() &&
               (std::isdigit(static_cast<unsigned char>(s[i])) ||
                s[i] == '.' || s[i] == 'e' || s[i] == 'E' ||
                s[i] == '+' || s[i] == '-'))
            ++i;
        return i > start;
    }

    bool
    object()
    {
        ++i; // '{'
        ws();
        if (i < s.size() && s[i] == '}') {
            ++i;
            return true;
        }
        for (;;) {
            ws();
            if (!str())
                return false;
            ws();
            if (i >= s.size() || s[i] != ':')
                return false;
            ++i;
            ws();
            if (!value())
                return false;
            ws();
            if (i < s.size() && s[i] == ',') {
                ++i;
                continue;
            }
            break;
        }
        if (i >= s.size() || s[i] != '}')
            return false;
        ++i;
        return true;
    }

    bool
    array()
    {
        ++i; // '['
        ws();
        if (i < s.size() && s[i] == ']') {
            ++i;
            return true;
        }
        for (;;) {
            ws();
            if (!value())
                return false;
            ws();
            if (i < s.size() && s[i] == ',') {
                ++i;
                continue;
            }
            break;
        }
        if (i >= s.size() || s[i] != ']')
            return false;
        ++i;
        return true;
    }

    bool
    value()
    {
        if (i >= s.size())
            return false;
        char c = s[i];
        if (c == '{')
            return object();
        if (c == '[')
            return array();
        if (c == '"')
            return str();
        if (c == 't')
            return lit("true");
        if (c == 'f')
            return lit("false");
        if (c == 'n')
            return lit("null");
        return number();
    }
};

/** A custom-run job that may throw or report itself unverified. */
SweepJob
customJob(const std::string &id, bool fail = false, bool verified = true)
{
    SweepJob j;
    j.id = id;
    j.run = [fail, verified] {
        if (fail)
            throw std::runtime_error("injected failure");
        RunResult r;
        r.stats.execTicks = 42;
        r.verified = verified;
        return r;
    };
    return j;
}

TEST(SweepSpec, CrossProductExpansion)
{
    SweepSpec spec("t");
    spec.base(makeConfig(16, MemModel::CC))
        .workloads({"fir", "merge"})
        .axis("cores", {2, 4},
              [](SystemConfig &cfg, double v) { cfg.cores = int(v); },
              0)
        .modelAxis();

    auto jobs = spec.expand();
    ASSERT_EQ(jobs.size(), 2u * 2u * 2u);
    // Workload outermost, then axes in insertion order.
    EXPECT_EQ(jobs[0].id, "fir/cores=2/model=CC");
    EXPECT_EQ(jobs[1].id, "fir/cores=2/model=STR");
    EXPECT_EQ(jobs[2].id, "fir/cores=4/model=CC");
    EXPECT_EQ(jobs[4].id, "merge/cores=2/model=CC");
    EXPECT_EQ(jobs[7].id, "merge/cores=4/model=STR");

    EXPECT_EQ(jobs[3].workload, "fir");
    EXPECT_EQ(jobs[3].cfg.cores, 4);
    EXPECT_EQ(jobs[3].cfg.model, MemModel::STR);
    EXPECT_EQ(jobs[3].tags.at("workload"), "fir");
    EXPECT_EQ(jobs[3].tags.at("cores"), "4");
    EXPECT_EQ(jobs[3].tags.at("model"), "STR");
}

TEST(SweepSpec, ExplicitPointsRideAlong)
{
    SweepSpec spec("t");
    spec.workloads({"fir"});
    SweepJob p;
    p.id = "extra";
    p.workload = "merge";
    spec.point(p);
    auto jobs = spec.expand();
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[0].id, "fir");
    EXPECT_EQ(jobs[1].id, "extra");
}

// EXPECT_DEATH wrappers (commas in braced initializers confuse the
// macro, so each bad list is built in a helper).
void
listWithDuplicateIds()
{
    std::vector<SweepJob> jobs = {customJob("a"), customJob("a")};
    runJobs("t", std::move(jobs));
}

void
listWithEmptyJob()
{
    SweepJob j;
    j.id = "empty";
    runJobs("t", {j});
}

TEST(SweepExecutorDeath, RejectsBadGraphs)
{
    EXPECT_DEATH(listWithDuplicateIds(), "duplicate");
    EXPECT_DEATH(listWithEmptyJob(), "neither");
}

TEST(SweepExecutor, EveryJobRunsOnceInJobOrder)
{
    // Workers claim jobs from one counter: each job runs exactly
    // once, and results come back in list order, not completion
    // order.
    constexpr int kJobs = 64;
    std::atomic<int> calls[kJobs] = {};
    std::vector<SweepJob> jobs;
    for (int i = 0; i < kJobs; ++i) {
        SweepJob j;
        j.id = fmt("job%d", i);
        j.run = [&calls, i] {
            calls[i].fetch_add(1);
            RunResult r;
            r.stats.execTicks = Tick(i);
            return r;
        };
        jobs.push_back(std::move(j));
    }

    SweepResult res = runJobs("once", std::move(jobs), 4);

    EXPECT_TRUE(res.allRan());
    EXPECT_EQ(res.workers(), 4);
    ASSERT_EQ(res.jobs().size(), std::size_t(kJobs));
    for (int i = 0; i < kJobs; ++i) {
        EXPECT_EQ(calls[i].load(), 1) << i;
        EXPECT_EQ(res.jobs()[i].job.id, fmt("job%d", i));
        EXPECT_EQ(res.jobs()[i].run.stats.execTicks, Tick(i));
    }
}

TEST(SweepExecutor, FailingJobDoesNotPoisonSiblings)
{
    std::vector<SweepJob> jobs = {
        customJob("ok1"),
        customJob("throws", /*fail=*/true),
        customJob("unverified", false, /*verified=*/false),
        // A job listed after the failing one still runs.
        customJob("after-throws"),
    };

    SweepResult res = runJobs("fail", std::move(jobs), 2);

    EXPECT_TRUE(res.at("ok1").ran);
    EXPECT_TRUE(res.at("ok1").run.verified);
    EXPECT_FALSE(res.at("throws").ran);
    EXPECT_NE(res.at("throws").error.find("injected"),
              std::string::npos);
    EXPECT_TRUE(res.at("unverified").ran);
    EXPECT_FALSE(res.at("unverified").run.verified);
    EXPECT_TRUE(res.at("after-throws").ran);

    EXPECT_FALSE(res.allRan());
    EXPECT_FALSE(res.allVerified());
    EXPECT_EQ(res.find("no-such-job"), nullptr);
}

TEST(SweepExecutor, CapturesWarningsPerJob)
{
    SweepJob j;
    j.id = "warns";
    j.run = [] {
        warn("from inside job %d", 7);
        inform("status %s", "line");
        return RunResult{};
    };
    SweepResult res = runJobs("logs", {j}, 1);
    const std::string &log = res.at("warns").log;
    EXPECT_NE(log.find("warn: from inside job 7"), std::string::npos);
    EXPECT_NE(log.find("info: status line"), std::string::npos);
}

TEST(SweepExecutor, FailingJobKeepsItsLog)
{
    // Lines logged before a job throws stay with that job's result,
    // so the artifact shows what led up to the failure.
    SweepJob j;
    j.id = "doomed";
    j.run = []() -> RunResult {
        warn("before the lights go out");
        throwSimError(SimErrorKind::Model, "lights out");
    };
    SweepResult res = runJobs("doom", {j}, 1);
    const JobResult &jr = res.at("doomed");
    EXPECT_FALSE(jr.ran);
    EXPECT_EQ(jr.errorKind, "model");
    EXPECT_EQ(jr.error, "lights out");
    EXPECT_NE(jr.log.find("warn: before the lights go out"),
              std::string::npos)
        << jr.log;
}

TEST(SweepExecutor, QuietFlagSuppressesCapture)
{
    setQuiet(true);
    SweepJob j;
    j.id = "quiet";
    j.run = [] {
        warn("should be dropped");
        return RunResult{};
    };
    SweepResult res = runJobs("quiet", {j}, 1);
    setQuiet(false);
    EXPECT_TRUE(res.at("quiet").log.empty());
    EXPECT_FALSE(isQuiet());
}

TEST(LogCapture, NestsAndRestores)
{
    LogCapture outer;
    warn("outer %d", 1);
    {
        LogCapture inner;
        warn("inner");
        EXPECT_NE(inner.text().find("inner"), std::string::npos);
        EXPECT_EQ(inner.text().find("outer"), std::string::npos);
    }
    warn("outer %d", 2);
    EXPECT_NE(outer.text().find("outer 1"), std::string::npos);
    EXPECT_NE(outer.text().find("outer 2"), std::string::npos);
    EXPECT_EQ(outer.text().find("inner"), std::string::npos);
}

TEST(SweepWorkersEnv, WorkerCountResolution)
{
    EXPECT_EQ(sweepWorkerCount(3), 3);

    setenv("CMPMEM_JOBS", "5", 1);
    EXPECT_EQ(sweepWorkerCount(0), 5);
    unsetenv("CMPMEM_JOBS");

    EXPECT_GE(sweepWorkerCount(0), 1);
}

TEST(SweepJson, ArtifactIsValidAndCarriesTheSchema)
{
    WorkloadParams tiny;
    tiny.scale = 0;
    SweepSpec spec("json_check");
    spec.base(makeConfig(2, MemModel::CC))
        .baseParams(tiny)
        .workloads({"fir"})
        .modelAxis();
    SweepResult res = runSweep(spec, 2);

    std::string json = res.toJson();
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\"sweep\": \"json_check\""),
              std::string::npos);
    EXPECT_NE(json.find("\"schema\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"scale\": "), std::string::npos);
    EXPECT_NE(json.find("\"bench_scale_div\": "), std::string::npos);
    EXPECT_NE(json.find("\"stats_digest\": \"fnv1a:"),
              std::string::npos);
    EXPECT_NE(json.find("\"id\": \"fir/model=CC\""),
              std::string::npos);
    EXPECT_NE(json.find("\"exec_ticks\""), std::string::npos);
    EXPECT_NE(json.find("\"dram.read_bytes\""), std::string::npos);
    EXPECT_NE(json.find("\"total_mj\""), std::string::npos);
    EXPECT_NE(json.find("\"host_seconds\""), std::string::npos);
    EXPECT_NE(json.find("\"verified\": true"), std::string::npos);
}

TEST(SweepJson, EscapesAndEmptySweep)
{
    SweepJob j;
    j.id = "we\"ird\\id\n";
    j.run = [] { return RunResult{}; };
    SweepResult res = runJobs("esc", {j});
    EXPECT_TRUE(JsonChecker(res.toJson()).valid()) << res.toJson();

    SweepResult empty = runJobs("empty", {});
    EXPECT_TRUE(JsonChecker(empty.toJson()).valid());
    EXPECT_EQ(empty.jobs().size(), 0u);
}

TEST(SweepJson, ResourceStreamStatsOnlyForAcquiringRuns)
{
    // The resource-calendar bench counters enter a job's stats only
    // when the run made acquires, so system-run digests never see
    // them; the 53-bit grant digest survives the artifact exactly.
    auto job = [](const std::string &id, std::uint64_t acquires) {
        SweepJob j;
        j.id = id;
        j.run = [acquires] {
            RunResult r;
            ResourceStreamStats &rs = r.stats.resource;
            rs.acquires = acquires;
            rs.tailGrants = acquires / 2;
            rs.intervalSum = 87804740;
            rs.peakIntervals = 477;
            rs.grantDigest = (1ull << 53) - 1;
            r.verified = true;
            return r;
        };
        return j;
    };
    SweepResult res =
        runJobs("fabric", {job("none", 0), job("some", 200000)}, 1);
    JsonValue doc = JsonValue::parse(res.toJson());
    const auto &results = doc.at("results").items();
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].at("stats").find("resource.acquires"), nullptr);
    const JsonValue &stats = results[1].at("stats");
    EXPECT_EQ(stats.at("resource.acquires").asNumber(), 200000.0);
    EXPECT_EQ(stats.at("resource.mean_intervals").asNumber(),
              87804740.0 / 200000.0);
    EXPECT_EQ(stats.at("resource.grant_digest").asNumber(),
              double((1ull << 53) - 1));
}

/**
 * The determinism contract (labelled "long" in ctest): for a fixed
 * spec, per-point simulated state is bit-identical no matter how
 * many workers run the job list. Uses real workloads across both
 * models and several configurations.
 */
TEST(SweepIntegration, ParallelMatchesSerialBitIdentical)
{
    WorkloadParams tiny;
    tiny.scale = 0;

    auto makeSpec = [&] {
        SweepSpec spec("determinism");
        spec.base(makeConfig(4, MemModel::CC))
            .baseParams(tiny)
            .workloads({"fir", "merge", "mpeg2"})
            .axis("cores", {1, 2, 4},
                  [](SystemConfig &cfg, double v) {
                      cfg.cores = int(v);
                  },
                  0)
            .modelAxis();
        return spec;
    };

    SweepResult a = runSweep(makeSpec(), 1);
    SweepResult b = runSweep(makeSpec(), 4);

    ASSERT_EQ(a.jobs().size(), b.jobs().size());
    ASSERT_EQ(a.jobs().size(), 3u * 3u * 2u);
    for (const auto &ja : a.jobs()) {
        const JobResult &jb = b.at(ja.job.id);
        EXPECT_TRUE(ja.ran);
        EXPECT_TRUE(jb.ran);
        EXPECT_EQ(ja.run.stats.execTicks, jb.run.stats.execTicks)
            << ja.job.id;
        EXPECT_EQ(ja.run.stats.dramReadBytes,
                  jb.run.stats.dramReadBytes)
            << ja.job.id;
        EXPECT_EQ(ja.run.stats.dramWriteBytes,
                  jb.run.stats.dramWriteBytes)
            << ja.job.id;
        EXPECT_EQ(ja.run.stats.l1Total.writebacks,
                  jb.run.stats.l1Total.writebacks)
            << ja.job.id;
        // The digest covers every rendered stat.
        EXPECT_EQ(ja.run.stats.toStatSet().digest(),
                  jb.run.stats.toStatSet().digest())
            << ja.job.id;
        EXPECT_EQ(ja.run.energy.totalMj(), jb.run.energy.totalMj())
            << ja.job.id;
        EXPECT_EQ(ja.run.verified, jb.run.verified) << ja.job.id;
    }
}

} // namespace
} // namespace cmpmem
