/**
 * @file
 * The perf-regression gate, end to end (DESIGN.md §14): the JSON
 * reader must reject every malformed artifact loudly, and
 * bench_compare must hold simulated stats to bit-identity while
 * excluding (but still guarding) the host-time-derived fields. The
 * doctored-artifact cases are the executable spec for "the gate
 * fails with the offending metric named".
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "cmpmem.hh"

namespace cmpmem
{
namespace
{

// ---------------------------------------------------------------- //
// JsonValue: strict parsing                                        //
// ---------------------------------------------------------------- //

SimErrorKind
parseErrorKind(const std::string &text)
{
    try {
        JsonValue::parse(text);
    } catch (const SimError &e) {
        return e.kind();
    }
    ADD_FAILURE() << "parse accepted: " << text;
    return SimErrorKind::Model;
}

TEST(Json, ParsesAndRoundTripsExactDoubles)
{
    const double v = 0.1 + 0.2; // not representable exactly
    char buf[64];
    std::snprintf(buf, sizeof(buf), "{\"x\": %.17g}", v);
    JsonValue doc = JsonValue::parse(buf);
    EXPECT_EQ(doc.at("x").asNumber(), v);

    JsonValue again = JsonValue::parse(doc.dump());
    EXPECT_EQ(again.at("x").asNumber(), v);
}

TEST(Json, PreservesInsertionOrderAndNesting)
{
    JsonValue doc = JsonValue::parse(
        "{\"b\": [1, {\"k\": \"v\"}], \"a\": true, \"n\": null}");
    ASSERT_EQ(doc.members().size(), 3u);
    EXPECT_EQ(doc.members()[0].first, "b");
    EXPECT_EQ(doc.members()[2].first, "n");
    EXPECT_TRUE(doc.at("n").isNull());
    EXPECT_EQ(doc.at("b").items()[1].at("k").asString(), "v");
}

TEST(Json, EscapesRoundTrip)
{
    JsonValue doc = JsonValue::parse(
        "{\"s\": \"a\\\"b\\\\c\\n\\t\\u0041\"}");
    EXPECT_EQ(doc.at("s").asString(), "a\"b\\c\n\tA");
    EXPECT_EQ(JsonValue::parse(doc.dump()).at("s").asString(),
              "a\"b\\c\n\tA");
}

TEST(Json, RejectsTruncatedInput)
{
    for (const char *bad :
         {"", "{", "{\"a\": ", "[1, 2", "{\"a\": 1,", "\"unterminated",
          "{\"a\": tru", "12e", "{\"a\": 1} trailing"}) {
        EXPECT_EQ(parseErrorKind(bad), SimErrorKind::Config) << bad;
    }
}

TEST(Json, RejectsDuplicateKeys)
{
    EXPECT_EQ(parseErrorKind("{\"a\": 1, \"a\": 2}"),
              SimErrorKind::Config);
}

TEST(Json, ParseErrorNamesTheLine)
{
    try {
        JsonValue::parse("{\n  \"a\": 1,\n  \"b\": oops\n}");
        FAIL() << "accepted invalid literal";
    } catch (const SimError &e) {
        EXPECT_NE(std::string(e.what()).find("line 3"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Json, ParseFileRejectsMissingFile)
{
    try {
        JsonValue::parseFile("/nonexistent/BENCH_nope.json");
        FAIL() << "accepted missing file";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimErrorKind::Config);
    }
}

// ---------------------------------------------------------------- //
// bench_compare semantics on a real sweep artifact                 //
// ---------------------------------------------------------------- //

/**
 * A real artifact from the real writer: two cheap custom-run jobs
 * with fixed simulated stats and a controlled host cost, so every
 * derived field (digest, events_per_sec) is produced by the same
 * code path the microbenches use.
 */
JsonValue
makeArtifact()
{
    auto fixed = [](std::uint64_t events, Tick ticks) {
        return [events, ticks] {
            RunResult r;
            r.stats.eventsExecuted = events;
            r.stats.peakPendingEvents = 8;
            r.stats.execTicks = ticks;
            r.hostSeconds = 0.25;
            r.verified = true;
            return r;
        };
    };
    std::vector<SweepJob> jobs;
    jobs.emplace_back("alpha", "", SystemConfig{}, WorkloadParams{},
                      std::map<std::string, std::string>{},
                      fixed(1000, 5000));
    jobs.emplace_back("beta", "", SystemConfig{}, WorkloadParams{},
                      std::map<std::string, std::string>{},
                      fixed(2000, 9000));
    return JsonValue::parse(
        runJobs("gate_test", std::move(jobs), 1).toJson());
}

JsonValue &
jobNamed(JsonValue &artifact, const std::string &id)
{
    for (JsonValue &job : artifact.at("results").items())
        if (job.at("id").asString() == id)
            return job;
    throw std::runtime_error("no job " + id);
}

TEST(BenchCompare, IdenticalArtifactsCompareClean)
{
    JsonValue base = makeArtifact();
    CompareReport rep = compareArtifacts(base, {base, base, base});
    EXPECT_TRUE(rep.identityClean());
    EXPECT_TRUE(rep.hostClean());
    EXPECT_EQ(rep.exitCode(), 0);
    EXPECT_EQ(rep.jobsCompared, 2u);
    EXPECT_EQ(rep.repeats, 3u);
}

TEST(BenchCompare, DoctoredStatFailsNamingTheMetric)
{
    JsonValue base = makeArtifact();
    JsonValue fresh = base;
    JsonValue &stats = jobNamed(fresh, "beta").at("stats");
    stats.set("sim.events_executed",
              JsonValue::makeNumber(
                  stats.at("sim.events_executed").asNumber() + 1));

    CompareReport rep = compareArtifacts(base, {fresh});
    EXPECT_EQ(rep.exitCode(), 1);
    ASSERT_EQ(rep.identity.size(), 1u);
    EXPECT_EQ(rep.identity[0].jobId, "beta");
    EXPECT_EQ(rep.identity[0].metric, "stats.sim.events_executed");
    // The formatted report names the metric too — that text is what
    // check.sh --full surfaces.
    EXPECT_NE(rep.format().find("stats.sim.events_executed"),
              std::string::npos);
}

TEST(BenchCompare, DigestDriftIsAnIdentityFailure)
{
    JsonValue base = makeArtifact();
    JsonValue fresh = base;
    jobNamed(fresh, "alpha")
        .set("stats_digest",
             JsonValue::makeString("fnv1a:0000000000000000"));
    CompareReport rep = compareArtifacts(base, {fresh});
    EXPECT_EQ(rep.exitCode(), 1);
    ASSERT_EQ(rep.identity.size(), 1u);
    EXPECT_EQ(rep.identity[0].metric, "stats_digest");
}

TEST(BenchCompare, MissingJobIsAnIdentityFailure)
{
    JsonValue base = makeArtifact();
    JsonValue fresh = base;
    fresh.at("results").items().pop_back();
    CompareReport rep = compareArtifacts(base, {fresh});
    EXPECT_EQ(rep.exitCode(), 1);
    ASSERT_EQ(rep.identity.size(), 1u);
    EXPECT_EQ(rep.identity[0].jobId, "beta");
}

TEST(BenchCompare, HostFieldsAreExcludedFromIdentity)
{
    JsonValue base = makeArtifact();
    JsonValue fresh = base;
    for (const char *id : {"alpha", "beta"}) {
        JsonValue &job = jobNamed(fresh, id);
        job.set("host_seconds", JsonValue::makeNumber(123.0));
        // Faster than baseline: excluded from identity AND not a
        // regression.
        job.set("events_per_sec",
                JsonValue::makeNumber(
                    job.at("events_per_sec").asNumber() * 2));
    }
    CompareReport rep = compareArtifacts(base, {fresh});
    EXPECT_TRUE(rep.identityClean());
    EXPECT_TRUE(rep.hostClean());
    EXPECT_EQ(rep.exitCode(), 0);
}

TEST(BenchCompare, RetryBookkeepingIsExcludedFromIdentity)
{
    // Artifacts written while sweeps could re-dispatch a job carried
    // an "attempts" count per job, and some committed baselines still
    // do. It was host-side bookkeeping, like host_seconds: a baseline
    // that carries it must compare clean against fresh artifacts that
    // do not, in either direction.
    JsonValue fresh = makeArtifact();
    JsonValue stale = fresh;
    for (const char *id : {"alpha", "beta"}) {
        EXPECT_EQ(jobNamed(fresh, id).find("attempts"), nullptr);
        jobNamed(stale, id).set("attempts", JsonValue::makeNumber(1));
    }
    CompareReport rep = compareArtifacts(stale, {fresh});
    EXPECT_TRUE(rep.identityClean()) << rep.format();
    EXPECT_EQ(rep.exitCode(), 0);
    EXPECT_TRUE(compareArtifacts(fresh, {stale}).identityClean());
}

TEST(BenchCompare, ThroughputDropBeyondToleranceIsFlagged)
{
    JsonValue base = makeArtifact();
    JsonValue fresh = base;
    JsonValue &job = jobNamed(fresh, "alpha");
    job.set("events_per_sec",
            JsonValue::makeNumber(
                job.at("events_per_sec").asNumber() * 0.8));

    CompareReport rep = compareArtifacts(base, {fresh, fresh, fresh});
    EXPECT_TRUE(rep.identityClean());
    ASSERT_EQ(rep.host.size(), 1u);
    EXPECT_EQ(rep.host[0].jobId, "alpha");
    EXPECT_EQ(rep.host[0].metric, "events_per_sec");
    EXPECT_EQ(rep.exitCode(), 3);

    CompareOptions warn;
    warn.hostMode = HostMode::Warn;
    EXPECT_EQ(compareArtifacts(base, {fresh}, warn).exitCode(), 0);
    CompareOptions off;
    off.hostMode = HostMode::Off;
    EXPECT_TRUE(compareArtifacts(base, {fresh}, off).hostClean());
}

TEST(BenchCompare, MedianOverRepeatsAbsorbsOneSlowOutlier)
{
    JsonValue base = makeArtifact();
    JsonValue slow = base;
    JsonValue &job = jobNamed(slow, "alpha");
    job.set("events_per_sec",
            JsonValue::makeNumber(
                job.at("events_per_sec").asNumber() * 0.5));
    // Two clean repeats and one 2x-slower outlier: the median sits at
    // baseline, so the gate stays green.
    CompareReport rep = compareArtifacts(base, {base, slow, base});
    EXPECT_TRUE(rep.hostClean());
    EXPECT_EQ(rep.exitCode(), 0);
}

TEST(BenchCompare, RefusesDifferentSizings)
{
    JsonValue base = makeArtifact();
    JsonValue fresh = base;
    fresh.set("bench_scale_div", JsonValue::makeNumber(20));
    try {
        compareArtifacts(base, {fresh});
        FAIL() << "compared across bench_scale_div";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimErrorKind::Config);
        EXPECT_NE(std::string(e.what()).find("bench_scale_div"),
                  std::string::npos);
    }
}

TEST(BenchCompare, ConfigDriftNamesTheField)
{
    // Config drift is a per-field identity issue so the report says
    // exactly what moved.
    JsonValue base = makeArtifact();
    JsonValue fresh = base;
    jobNamed(fresh, "alpha")
        .at("config")
        .set("cores", JsonValue::makeNumber(8));
    CompareReport rep = compareArtifacts(base, {fresh});
    EXPECT_EQ(rep.exitCode(), 1);
    ASSERT_EQ(rep.identity.size(), 1u);
    EXPECT_EQ(rep.identity[0].jobId, "alpha");
    EXPECT_EQ(rep.identity[0].metric, "config.cores");
}

TEST(BenchCompare, RefusesUnknownSchemaAndForeignSweep)
{
    JsonValue base = makeArtifact();
    JsonValue old = base;
    old.set("schema", JsonValue::makeNumber(1));
    EXPECT_THROW(compareArtifacts(base, {old}), SimError);

    JsonValue other = base;
    other.set("sweep", JsonValue::makeString("some_other_sweep"));
    EXPECT_THROW(compareArtifacts(base, {other}), SimError);
}

TEST(BenchCompare, NewJobIsANoteNotAFailure)
{
    JsonValue base = makeArtifact();
    JsonValue fresh = base;
    base.at("results").items().pop_back(); // baseline predates "beta"
    CompareReport rep = compareArtifacts(base, {fresh});
    EXPECT_EQ(rep.exitCode(), 0);
    ASSERT_EQ(rep.notes.size(), 1u);
    EXPECT_NE(rep.notes[0].find("beta"), std::string::npos);
}

TEST(BenchCompare, AnnotateWritesSummaryIntoArtifact)
{
    JsonValue base = makeArtifact();
    std::string path =
        testing::TempDir() + "/BENCH_gate_test_annotate.json";
    {
        std::ofstream ofs(path, std::ios::trunc);
        ofs << base.dump();
    }
    CompareReport rep = compareArtifacts(base, {base});
    annotateArtifact(path, rep);

    JsonValue doc = JsonValue::parseFile(path);
    const JsonValue &cmp = doc.at("compare");
    EXPECT_TRUE(cmp.at("identity_clean").asBool());
    EXPECT_EQ(cmp.at("exit_code").asNumber(), 0);
    EXPECT_EQ(cmp.at("host_mode").asString(), "strict");
    // The rest of the document survived the rewrite.
    EXPECT_EQ(doc.at("results").items().size(), 2u);
    std::remove(path.c_str());
}

TEST(BenchCompare, TruncatedArtifactFileIsRejected)
{
    JsonValue base = makeArtifact();
    std::string full = base.dump();
    std::string path =
        testing::TempDir() + "/BENCH_gate_test_truncated.json";
    {
        // Simulate a crash mid-write: half the document.
        std::ofstream ofs(path, std::ios::trunc);
        ofs << full.substr(0, full.size() / 2);
    }
    try {
        JsonValue::parseFile(path);
        FAIL() << "accepted truncated artifact";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimErrorKind::Config);
        // The error names the file, so the gate's output says which
        // artifact is corrupt.
        EXPECT_NE(std::string(e.what()).find(path),
                  std::string::npos);
    }
    std::remove(path.c_str());
}

TEST(BenchCompare, ParseHostModeValidates)
{
    EXPECT_EQ(parseHostMode("strict"), HostMode::Strict);
    EXPECT_EQ(parseHostMode("warn"), HostMode::Warn);
    EXPECT_EQ(parseHostMode("off"), HostMode::Off);
    EXPECT_THROW(parseHostMode("loose"), SimError);
}

} // namespace
} // namespace cmpmem
