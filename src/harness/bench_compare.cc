#include "harness/bench_compare.hh"

#include <algorithm>
#include <fstream>
#include <map>
#include <set>

#include "harness/table.hh"
#include "sim/sim_error.hh"

namespace cmpmem
{

namespace
{

double
numberField(const JsonValue &job, const std::string &name)
{
    const JsonValue *v = job.find(name);
    return v && v->isNumber() ? v->asNumber() : 0.0;
}

std::map<std::string, const JsonValue *>
jobIndex(const JsonValue &artifact)
{
    std::map<std::string, const JsonValue *> index;
    for (const JsonValue &job : artifact.at("results").items()) {
        const std::string &id = job.at("id").asString();
        if (!index.emplace(id, &job).second)
            throwSimError(SimErrorKind::Config,
                          "artifact for sweep %s lists job '%s' twice",
                          artifact.at("sweep").asString().c_str(),
                          id.c_str());
    }
    return index;
}

/**
 * Validate one artifact's envelope and check it is comparable with
 * the baseline: same sweep, same schema, same sizing knobs.
 */
void
checkEnvelope(const JsonValue &baseline, const JsonValue &artifact,
              const char *role)
{
    double schema = artifact.at("schema").asNumber();
    if (schema != 2) {
        throwSimError(SimErrorKind::Config,
                      "%s artifact has schema %g; bench_compare "
                      "understands schema 2 (regenerate the baseline "
                      "with scripts/check.sh --update-baselines)",
                      role, schema);
    }
    const std::string &sweep = artifact.at("sweep").asString();
    const std::string &base_sweep = baseline.at("sweep").asString();
    if (sweep != base_sweep) {
        throwSimError(SimErrorKind::Config,
                      "%s artifact is for sweep '%s', baseline is "
                      "'%s'", role, sweep.c_str(), base_sweep.c_str());
    }
    for (const char *knob : {"scale", "bench_scale_div"}) {
        double b = baseline.at(knob).asNumber();
        double f = artifact.at(knob).asNumber();
        if (b != f) {
            throwSimError(SimErrorKind::Config,
                          "refusing to compare sweep %s: %s artifact "
                          "ran at %s=%g but the baseline was produced "
                          "at %s=%g (different sizings legitimately "
                          "change simulated stats)",
                          sweep.c_str(), role, knob, f, knob, b);
        }
    }
}

/** Median of a non-empty sample (average of middles when even). */
double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

class Comparer
{
  public:
    Comparer(const JsonValue &baseline,
             const std::vector<JsonValue> &fresh,
             const CompareOptions &opts)
        : base(baseline), repeats(fresh), options(opts)
    {
    }

    CompareReport
    run()
    {
        if (repeats.empty())
            throwSimError(SimErrorKind::Config,
                          "bench_compare needs at least one fresh "
                          "artifact");
        checkEnvelope(base, base, "baseline");
        for (const JsonValue &f : repeats)
            checkEnvelope(base, f, "fresh");

        report.sweep = base.at("sweep").asString();
        report.repeats = repeats.size();
        report.hostMode = options.hostMode;
        report.hostTolerance = options.hostTolerance;

        const auto baseJobs = jobIndex(base);
        report.jobsCompared = baseJobs.size();

        for (std::size_t r = 0; r < repeats.size(); ++r) {
            const auto freshJobs = jobIndex(repeats[r]);
            for (const auto &[id, bjob] : baseJobs) {
                auto it = freshJobs.find(id);
                if (it == freshJobs.end()) {
                    identity(id, "(job)",
                             fmt("missing from fresh repeat %zu", r));
                    continue;
                }
                compareJob(id, *bjob, *it->second);
            }
            for (const auto &[id, fjob] : freshJobs) {
                (void)fjob;
                if (!baseJobs.count(id) && noted.insert(id).second) {
                    report.notes.push_back(
                        fmt("job '%s' is new (not in baseline); "
                            "extend the baseline to cover it",
                            id.c_str()));
                }
            }
        }

        if (options.hostMode != HostMode::Off) {
            for (const auto &[id, bjob] : baseJobs)
                compareHost(id, *bjob);
        }
        return std::move(report);
    }

  private:
    const JsonValue &base;
    const std::vector<JsonValue> &repeats;
    const CompareOptions &options;
    CompareReport report;
    std::set<std::string> seen;  ///< (job, metric) already reported
    std::set<std::string> noted; ///< new-job ids already noted

    /** Record an identity issue once per (job, metric) pair. */
    void
    identity(const std::string &job, const std::string &metric,
             std::string detail)
    {
        if (!seen.insert(job + '\n' + metric).second)
            return;
        report.identity.push_back({job, metric, std::move(detail)});
    }

    void
    compareJob(const std::string &id, const JsonValue &bjob,
               const JsonValue &fjob)
    {
        for (const char *flag : {"ran", "verified"}) {
            bool b = bjob.at(flag).asBool();
            bool f = fjob.at(flag).asBool();
            if (b != f) {
                identity(id, flag,
                         fmt("baseline %s, fresh %s",
                             b ? "true" : "false",
                             f ? "true" : "false"));
            }
        }
        compareScalars(id, "stats", bjob.at("stats"),
                       fjob.at("stats"));
        compareScalars(id, "energy", bjob.at("energy"),
                       fjob.at("energy"));
        const std::string &bd = bjob.at("stats_digest").asString();
        const std::string &fd = fjob.at("stats_digest").asString();
        if (bd != fd)
            identity(id, "stats_digest",
                     "baseline " + bd + ", fresh " + fd);
        compareConfig(id, bjob.at("config"), fjob.at("config"));
    }

    /**
     * Per-field config comparison, reported per field so the report
     * names what drifted.
     */
    void
    compareConfig(const std::string &id, const JsonValue &bcfg,
                  const JsonValue &fcfg)
    {
        auto render = [](const JsonValue &v) {
            return v.isString() ? v.asString() : v.dump();
        };

        for (const auto &[name, bval] : bcfg.members()) {
            const JsonValue *fval = fcfg.find(name);
            if (fval && bval.dump() == fval->dump())
                continue;
            identity(id, "config." + name,
                     fval ? fmt("baseline %s, fresh %s",
                                render(bval).c_str(),
                                render(*fval).c_str())
                          : "present in baseline, missing from fresh");
        }
        for (const auto &[name, fval] : fcfg.members()) {
            if (!bcfg.find(name))
                identity(id, "config." + name,
                         "missing from baseline, present in fresh");
        }
    }

    /** Bit-identity over a flat {name: number} object, both ways. */
    void
    compareScalars(const std::string &id, const std::string &group,
                   const JsonValue &bobj, const JsonValue &fobj)
    {
        for (const auto &[name, bval] : bobj.members()) {
            const JsonValue *fval = fobj.find(name);
            if (!fval) {
                identity(id, group + '.' + name,
                         "present in baseline, missing from fresh");
                continue;
            }
            if (bval.asNumber() != fval->asNumber()) {
                identity(id, group + '.' + name,
                         fmt("baseline %.17g, fresh %.17g",
                             bval.asNumber(), fval->asNumber()));
            }
        }
        for (const auto &[name, fval] : fobj.members()) {
            (void)fval;
            if (!bobj.find(name)) {
                identity(id, group + '.' + name,
                         "missing from baseline, present in fresh");
            }
        }
    }

    /**
     * Median fresh throughput vs baseline. Higher is better for every
     * guarded rate; a job the baseline recorded as idle (rate 0) is
     * not guarded.
     */
    void
    compareHost(const std::string &id, const JsonValue &bjob)
    {
        for (const char *rate : {"events_per_sec", "accesses_per_sec",
                                 "misses_per_sec", "acquires_per_sec"}) {
            double b = numberField(bjob, rate);
            if (b <= 0)
                continue;
            std::vector<double> samples;
            for (const JsonValue &f : repeats) {
                for (const JsonValue &fjob :
                     f.at("results").items()) {
                    if (fjob.at("id").asString() == id)
                        samples.push_back(numberField(fjob, rate));
                }
            }
            if (samples.empty())
                continue;
            double m = median(samples);
            if (m < b * (1.0 - options.hostTolerance)) {
                report.host.push_back(
                    {id, rate,
                     fmt("median %.3g over %zu repeat%s vs baseline "
                         "%.3g (-%.1f%%, tolerance %.0f%%)",
                         m, samples.size(),
                         samples.size() == 1 ? "" : "s", b,
                         100.0 * (1.0 - m / b),
                         100.0 * options.hostTolerance)});
            }
        }
    }
};

} // namespace

HostMode
parseHostMode(const std::string &s)
{
    if (s == "strict")
        return HostMode::Strict;
    if (s == "warn")
        return HostMode::Warn;
    if (s == "off")
        return HostMode::Off;
    throwSimError(SimErrorKind::Config,
                  "unknown host mode '%s' (want strict, warn, or off)",
                  s.c_str());
}

int
CompareReport::exitCode() const
{
    if (!identity.empty())
        return 1;
    if (!host.empty() && hostMode == HostMode::Strict)
        return 3;
    return 0;
}

std::string
CompareReport::format() const
{
    std::string out =
        fmt("bench_compare %s: %zu job%s x %zu repeat%s vs baseline\n",
            sweep.c_str(), jobsCompared, jobsCompared == 1 ? "" : "s",
            repeats, repeats == 1 ? "" : "s");
    for (const CompareIssue &i : identity) {
        out += fmt("  IDENTITY %s %s: %s\n", i.jobId.c_str(),
                   i.metric.c_str(), i.detail.c_str());
    }
    for (const CompareIssue &i : host) {
        const char *tag = hostMode == HostMode::Strict ? "HOST"
                                                       : "HOST(warn)";
        out += fmt("  %s %s %s: %s\n", tag, i.jobId.c_str(),
                   i.metric.c_str(), i.detail.c_str());
    }
    for (const std::string &n : notes)
        out += "  note: " + n + '\n';
    if (identity.empty() && host.empty())
        out += "  OK: simulated stats bit-identical, host throughput "
               "within tolerance\n";
    return out;
}

JsonValue
CompareReport::toJson() const
{
    auto issueArray = [](const std::vector<CompareIssue> &issues) {
        JsonValue arr = JsonValue::makeArray();
        for (const CompareIssue &i : issues) {
            JsonValue o = JsonValue::makeObject();
            o.set("job", JsonValue::makeString(i.jobId));
            o.set("metric", JsonValue::makeString(i.metric));
            o.set("detail", JsonValue::makeString(i.detail));
            arr.append(std::move(o));
        }
        return arr;
    };

    JsonValue o = JsonValue::makeObject();
    o.set("sweep", JsonValue::makeString(sweep));
    o.set("repeats", JsonValue::makeNumber(double(repeats)));
    o.set("jobs", JsonValue::makeNumber(double(jobsCompared)));
    const char *mode = hostMode == HostMode::Strict ? "strict"
                       : hostMode == HostMode::Warn ? "warn"
                                                    : "off";
    o.set("host_mode", JsonValue::makeString(mode));
    o.set("host_tolerance", JsonValue::makeNumber(hostTolerance));
    o.set("identity_clean", JsonValue::makeBool(identity.empty()));
    o.set("host_clean", JsonValue::makeBool(host.empty()));
    o.set("exit_code", JsonValue::makeNumber(double(exitCode())));
    o.set("identity", issueArray(identity));
    o.set("host", issueArray(host));
    JsonValue narr = JsonValue::makeArray();
    for (const std::string &n : notes)
        narr.append(JsonValue::makeString(n));
    o.set("notes", std::move(narr));
    return o;
}

CompareReport
compareArtifacts(const JsonValue &baseline,
                 const std::vector<JsonValue> &fresh,
                 const CompareOptions &opts)
{
    return Comparer(baseline, fresh, opts).run();
}

void
annotateArtifact(const std::string &path, const CompareReport &report)
{
    JsonValue doc = JsonValue::parseFile(path);
    doc.set("compare", report.toJson());
    std::ofstream ofs(path, std::ios::trunc);
    if (!ofs)
        throwSimError(SimErrorKind::Config,
                      "cannot rewrite artifact %s", path.c_str());
    ofs << doc.dump();
}

} // namespace cmpmem
