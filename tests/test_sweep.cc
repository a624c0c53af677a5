/**
 * @file
 * Sweep-engine tests: spec expansion (cross-product, axes, tags,
 * baselines), the job-graph executor (dependency ordering under the
 * pool, failure isolation, log capture), JSON artifact validity, and
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

/** A custom-run job that records its scheduling order. */
SweepJob
orderedJob(const std::string &id, std::atomic<int> &seq,
           std::vector<std::string> deps, int *out,
           bool fail = false, bool verified = true)
{
    SweepJob j;
    j.id = id;
    j.deps = std::move(deps);
    j.run = [&seq, out, fail, verified] {
        *out = seq.fetch_add(1);
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
    EXPECT_TRUE(jobs[3].deps.empty());
}

TEST(SweepSpec, BaselineMakesCrossJobsDependOnIt)
{
    SweepSpec spec("t");
    spec.workloads({"fir"}).modelAxis();
    spec.baseline({"fir/base", "fir", makeConfig(1, MemModel::CC),
                   {}, {}, {}, {}});

    auto jobs = spec.expand();
    ASSERT_EQ(jobs.size(), 3u);
    EXPECT_EQ(jobs[0].id, "fir/base");
    EXPECT_TRUE(jobs[0].deps.empty());
    for (std::size_t i = 1; i < jobs.size(); ++i) {
        ASSERT_EQ(jobs[i].deps.size(), 1u);
        EXPECT_EQ(jobs[i].deps[0], "fir/base");
    }
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
// macro, so each bad graph is built in a helper).
void
graphWithDuplicateIds()
{
    std::atomic<int> seq{0};
    int o = 0;
    std::vector<SweepJob> jobs = {orderedJob("a", seq, {}, &o),
                                  orderedJob("a", seq, {}, &o)};
    runJobs("t", std::move(jobs));
}

void
graphWithUnknownDep()
{
    std::atomic<int> seq{0};
    int o = 0;
    std::vector<SweepJob> jobs = {orderedJob("a", seq, {"ghost"}, &o)};
    runJobs("t", std::move(jobs));
}

void
graphWithCycle()
{
    std::atomic<int> seq{0};
    int a = 0, b = 0;
    std::vector<SweepJob> jobs = {orderedJob("a", seq, {"b"}, &a),
                                  orderedJob("b", seq, {"a"}, &b)};
    runJobs("t", std::move(jobs));
}

void
graphWithEmptyJob()
{
    SweepJob j;
    j.id = "empty";
    runJobs("t", {j});
}

TEST(SweepExecutorDeath, RejectsBadGraphs)
{
    EXPECT_DEATH(graphWithDuplicateIds(), "duplicate");
    EXPECT_DEATH(graphWithUnknownDep(), "unknown");
    EXPECT_DEATH(graphWithCycle(), "cycle");
    EXPECT_DEATH(graphWithEmptyJob(), "neither");
}

TEST(SweepExecutor, DependencyOrderingHoldsUnderPool)
{
    // One baseline, a fan of dependents, and a chain — run on
    // several workers and check every constraint from the recorded
    // global completion order.
    std::atomic<int> seq{0};
    int base = -1, chain1 = -1, chain2 = -1;
    int fan[6] = {-1, -1, -1, -1, -1, -1};

    std::vector<SweepJob> jobs;
    jobs.push_back(orderedJob("chain1", seq, {"base"}, &chain1));
    jobs.push_back(orderedJob("chain2", seq, {"chain1"}, &chain2));
    for (int i = 0; i < 6; ++i) {
        jobs.push_back(orderedJob(fmt("fan%d", i), seq, {"base"},
                                  &fan[i]));
    }
    jobs.push_back(orderedJob("base", seq, {}, &base));

    SweepOptions opts;
    opts.jobs = 4;
    opts.echoLogs = false;
    SweepResult res = runJobs("order", std::move(jobs), opts);

    EXPECT_TRUE(res.allRan());
    EXPECT_EQ(base, 0) << "baseline must run before every dependent";
    for (int i = 0; i < 6; ++i)
        EXPECT_GT(fan[i], base);
    EXPECT_GT(chain1, base);
    EXPECT_GT(chain2, chain1);

    // Results come back in job-graph order, not completion order.
    EXPECT_EQ(res.jobs()[0].job.id, "chain1");
    EXPECT_EQ(res.jobs().back().job.id, "base");
}

TEST(SweepExecutor, FailingJobDoesNotPoisonSiblings)
{
    std::atomic<int> seq{0};
    int a = -1, b = -1, c = -1, d = -1;
    std::vector<SweepJob> jobs = {
        orderedJob("ok1", seq, {}, &a),
        orderedJob("throws", seq, {}, &b, /*fail=*/true),
        orderedJob("unverified", seq, {}, &c, false,
                   /*verified=*/false),
        // A dependent of the failing job still executes (deps are
        // ordering constraints, not success gates).
        orderedJob("after-throws", seq, {"throws"}, &d),
    };

    SweepOptions opts;
    opts.jobs = 2;
    opts.echoLogs = false;
    SweepResult res = runJobs("fail", std::move(jobs), opts);

    EXPECT_TRUE(res.at("ok1").ran);
    EXPECT_TRUE(res.at("ok1").run.verified);
    EXPECT_FALSE(res.at("throws").ran);
    EXPECT_NE(res.at("throws").error.find("injected"),
              std::string::npos);
    EXPECT_TRUE(res.at("unverified").ran);
    EXPECT_FALSE(res.at("unverified").run.verified);
    EXPECT_TRUE(res.at("after-throws").ran);
    EXPECT_GT(d, b);

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
    SweepOptions opts;
    opts.jobs = 1;
    opts.echoLogs = false;
    SweepResult res = runJobs("logs", {j}, opts);
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
    SweepOptions opts;
    opts.jobs = 1;
    opts.echoLogs = false;
    SweepResult res = runJobs("doom", {j}, opts);
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
    SweepOptions opts;
    opts.jobs = 1;
    SweepResult res = runJobs("quiet", {j}, opts);
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

TEST(SweepOptionsEnv, WorkerCountResolution)
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
    SweepOptions opts;
    opts.jobs = 2;
    SweepResult res = runSweep(spec, opts);

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
    SweepOptions opts;
    opts.echoLogs = false;
    SweepResult res = runJobs("esc", {j}, opts);
    EXPECT_TRUE(JsonChecker(res.toJson()).valid()) << res.toJson();

    SweepResult empty = runJobs("empty", {}, opts);
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
    SweepOptions opts;
    opts.jobs = 1;
    opts.echoLogs = false;
    SweepResult res =
        runJobs("fabric", {job("none", 0), job("some", 200000)}, opts);
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
 * many workers execute the graph. Uses real workloads across both
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

    SweepOptions serial;
    serial.jobs = 1;
    serial.echoLogs = false;
    SweepOptions parallel;
    parallel.jobs = 4;
    parallel.echoLogs = false;

    SweepResult a = runSweep(makeSpec(), serial);
    SweepResult b = runSweep(makeSpec(), parallel);

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
