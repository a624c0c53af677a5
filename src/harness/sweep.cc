#include "harness/sweep.hh"

#include <atomic>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <set>
#include <thread>
#include <utility>

#include "harness/experiment.hh"
#include "harness/table.hh"
#include "sim/log.hh"
#include "sim/sim_error.hh"
#include "system/cmp_system.hh"

namespace cmpmem
{

namespace
{

/** JSON string escaping (quotes, backslash, control characters). */
std::string
jstr(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += fmt("\\u%04x", c);
            else
                out += c;
        }
    }
    out += '"';
    return out;
}

/** JSON number (non-finite values are not valid JSON; map to 0). */
std::string
jnum(double v)
{
    if (!std::isfinite(v))
        v = 0;
    return fmt("%.17g", v);
}

std::string
jbool(bool b)
{
    return b ? "true" : "false";
}

} // namespace

std::string
configIdentityJson(const SystemConfig &cfg)
{
    std::string out = "{";
    out += "\"cores\": " + fmt("%d", cfg.cores);
    out += ", \"model\": " + jstr(to_string(cfg.model));
    out += ", \"ghz\": " + jnum(cfg.coreClockGhz);
    out += ", \"dram_gbps\": " + jnum(cfg.dram.bandwidthGBps);
    out += ", \"hw_prefetch\": " + jbool(cfg.hwPrefetch);
    out += ", \"prefetch_depth\": " +
           fmt("%u", unsigned(cfg.prefetchDepth));
    out += ", \"pfs\": " + jbool(cfg.pfsEnabled);
    out += ", \"quantum_cycles\": " +
           fmt("%llu", (unsigned long long)cfg.quantumCycles);
    out += ", \"line_bytes\": " + fmt("%u", unsigned(cfg.lineBytes));
    out += ", \"cluster_size\": " + fmt("%d", cfg.clusterSize);
    out += "}";
    return out;
}

namespace
{

std::string
energyJson(const EnergyBreakdown &e)
{
    std::string out = "{";
    out += "\"core_mj\": " + jnum(e.coreMj);
    out += ", \"icache_mj\": " + jnum(e.icacheMj);
    out += ", \"dstore_mj\": " + jnum(e.dstoreMj);
    out += ", \"network_mj\": " + jnum(e.networkMj);
    out += ", \"l2_mj\": " + jnum(e.l2Mj);
    out += ", \"dram_mj\": " + jnum(e.dramMj);
    out += ", \"total_mj\": " + jnum(e.totalMj());
    out += "}";
    return out;
}

/**
 * Execute one job on the calling thread: the body of every sweep
 * worker. Catches SimError/std::exception into the JobResult
 * taxonomy; never throws.
 */
JobResult
runJobInProcess(const SweepJob &job)
{
    JobResult jr;
    jr.job = job;

    LogCapture capture;
    double t0 = threadCpuSeconds();
    try {
        jr.run = job.run ? job.run()
                         : runWorkload(job.workload, job.cfg, job.params);
        jr.ran = true;
    } catch (const SimError &e) {
        jr.error = e.what();
        jr.errorKind = e.kindName();
        jr.diagnostic = e.diagnostic();
    } catch (const std::exception &e) {
        jr.error = e.what();
        jr.errorKind = "exception";
    } catch (...) {
        jr.error = "unknown exception";
        jr.errorKind = "exception";
    }
    // Custom-run jobs usually don't fill hostSeconds themselves;
    // charge them the thread CPU time spent here (see runner.hh for
    // why CPU time, not wall time).
    if (jr.run.hostSeconds == 0)
        jr.run.hostSeconds = threadCpuSeconds() - t0;
    jr.log = capture.drain();
    return jr;
}

} // namespace

// ---------------------------------------------------------------- //
// SweepSpec                                                        //
// ---------------------------------------------------------------- //

SweepSpec::SweepSpec(std::string name) : specName(std::move(name))
{
    if (specName.empty())
        fatal("sweep spec needs a non-empty name");
}

SweepSpec &
SweepSpec::base(const SystemConfig &cfg)
{
    baseCfg = cfg;
    return *this;
}

SweepSpec &
SweepSpec::baseParams(const WorkloadParams &p)
{
    baseprm = p;
    return *this;
}

SweepSpec &
SweepSpec::workloads(std::vector<std::string> names)
{
    workloadList = std::move(names);
    return *this;
}

SweepSpec &
SweepSpec::axis(std::string name, std::vector<AxisValue> values)
{
    if (values.empty())
        fatal("sweep %s: axis '%s' has no values", specName.c_str(),
              name.c_str());
    axes.push_back({std::move(name), std::move(values)});
    return *this;
}

SweepSpec &
SweepSpec::axis(std::string name, const std::vector<double> &values,
                std::function<void(SystemConfig &, double)> set,
                int label_precision)
{
    std::vector<AxisValue> vals;
    for (double v : values) {
        vals.push_back({fmtF(v, label_precision),
                        [set, v](SweepJob &job) { set(job.cfg, v); }});
    }
    return axis(std::move(name), std::move(vals));
}

SweepSpec &
SweepSpec::modelAxis(std::vector<MemModel> models)
{
    std::vector<AxisValue> vals;
    for (MemModel m : models) {
        vals.push_back({to_string(m),
                        [m](SweepJob &job) { job.cfg.model = m; }});
    }
    return axis("model", std::move(vals));
}

SweepSpec &
SweepSpec::point(SweepJob job)
{
    points.push_back(std::move(job));
    return *this;
}

std::vector<SweepJob>
SweepSpec::expand() const
{
    std::vector<SweepJob> jobs;

    // Cross product: workloads (outermost) x axes in insertion
    // order, visited as a mixed-radix counter so expansion order is
    // deterministic and independent of axis value count.
    const std::vector<std::string> &wl =
        workloadList.empty() ? std::vector<std::string>{std::string()}
                             : workloadList;
    if (!axes.empty() || !workloadList.empty()) {
        // Mixed-radix counter over the axes; the last axis is the
        // innermost loop. Returns false once every combination has
        // been visited.
        auto increment = [this](std::vector<std::size_t> &idx) {
            for (std::size_t a = axes.size(); a-- > 0;) {
                if (++idx[a] < axes[a].values.size())
                    return true;
                idx[a] = 0;
            }
            return false;
        };
        for (const auto &w : wl) {
            std::vector<std::size_t> idx(axes.size(), 0);
            do {
                SweepJob job;
                job.cfg = baseCfg;
                job.params = baseprm;
                job.workload = w;
                std::string id = w;
                if (!w.empty())
                    job.tags["workload"] = w;
                for (std::size_t a = 0; a < axes.size(); ++a) {
                    const AxisValue &v = axes[a].values[idx[a]];
                    if (!id.empty())
                        id += '/';
                    id += axes[a].name + '=' + v.label;
                    job.tags[axes[a].name] = v.label;
                    v.apply(job);
                }
                job.id = id;
                jobs.push_back(std::move(job));
            } while (increment(idx));
        }
    }

    for (const auto &p : points)
        jobs.push_back(p);

    return jobs;
}

// ---------------------------------------------------------------- //
// SweepResult                                                      //
// ---------------------------------------------------------------- //

SweepResult::SweepResult(std::string name,
                         std::vector<JobResult> job_results,
                         double wall_seconds, int workers)
    : sweepName(std::move(name)), results(std::move(job_results)),
      wallSecs(wall_seconds), nWorkers(workers)
{
    for (std::size_t i = 0; i < results.size(); ++i)
        index.emplace(results[i].job.id, i);
}

const JobResult *
SweepResult::find(const std::string &id) const
{
    auto it = index.find(id);
    return it == index.end() ? nullptr : &results[it->second];
}

const JobResult &
SweepResult::at(const std::string &id) const
{
    const JobResult *jr = find(id);
    if (!jr)
        fatal("sweep %s has no job '%s'", sweepName.c_str(),
              id.c_str());
    return *jr;
}

const RunResult &
SweepResult::runOf(const std::string &id) const
{
    return at(id).run;
}

bool
SweepResult::allRan() const
{
    for (const auto &jr : results)
        if (!jr.ran)
            return false;
    return true;
}

bool
SweepResult::allVerified() const
{
    for (const auto &jr : results)
        if (!jr.ran || !jr.run.verified)
            return false;
    return true;
}

double
SweepResult::serialSeconds() const
{
    double sum = 0;
    for (const auto &jr : results)
        sum += jr.run.hostSeconds;
    return sum;
}

double
SweepResult::speedup() const
{
    return wallSecs > 0 ? serialSeconds() / wallSecs : 1.0;
}

std::string
SweepResult::summary() const
{
    return fmt("sweep %s: %zu jobs on %d worker%s: %.2f s host CPU, "
               "%.2f s wall, speedup %.2fx",
               sweepName.c_str(), results.size(), nWorkers,
               nWorkers == 1 ? "" : "s", serialSeconds(), wallSecs,
               speedup());
}

std::string
SweepResult::toJson() const
{
    std::string out = "{\n";
    out += "  \"sweep\": " + jstr(sweepName) + ",\n";
    out += "  \"schema\": 2,\n";
    // The effective workload scale and micro-iteration divisor: the
    // two environment knobs that legitimately change simulated
    // stats, recorded so bench_compare can refuse to diff artifacts
    // produced under different sizings (DESIGN.md §14).
    out += "  \"scale\": " + fmt("%d", benchScale()) + ",\n";
    out += "  \"bench_scale_div\": " +
           fmt("%llu", (unsigned long long)benchScaleDivisor()) + ",\n";
    out += "  \"workers\": " + fmt("%d", nWorkers) + ",\n";
    out += "  \"wall_seconds\": " + jnum(wallSecs) + ",\n";
    out += "  \"serial_seconds\": " + jnum(serialSeconds()) + ",\n";
    out += "  \"speedup\": " + jnum(speedup()) + ",\n";
    out += "  \"all_verified\": " + jbool(allVerified()) + ",\n";
    out += "  \"results\": [";
    bool first = true;
    for (const auto &jr : results) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    {\n";
        out += "      \"id\": " + jstr(jr.job.id) + ",\n";
        out += "      \"workload\": " + jstr(jr.job.workload) + ",\n";
        out += "      \"variant\": " + jstr(jr.run.stats.variant) +
               ",\n";
        out += "      \"tags\": {";
        bool tfirst = true;
        for (const auto &[k, v] : jr.job.tags) {
            if (!tfirst)
                out += ", ";
            tfirst = false;
            out += jstr(k) + ": " + jstr(v);
        }
        out += "},\n";
        out += "      \"config\": " + configIdentityJson(jr.job.cfg) +
               ",\n";
        out += "      \"ran\": " + jbool(jr.ran) + ",\n";
        if (!jr.error.empty()) {
            out += "      \"error\": {\"kind\": " +
                   jstr(jr.errorKind.empty() ? "exception"
                                             : jr.errorKind) +
                   ", \"message\": " + jstr(jr.error);
            if (!jr.diagnostic.empty())
                out += ", \"diagnostic\": " + jstr(jr.diagnostic);
            out += "},\n";
        }
        out += "      \"verified\": " + jbool(jr.run.verified) + ",\n";
        out += "      \"host_seconds\": " + jnum(jr.run.hostSeconds) +
               ",\n";
        out += "      \"events_per_sec\": " + jnum(jr.run.eventsPerSec()) +
               ",\n";
        out += "      \"accesses_per_sec\": " +
               jnum(jr.run.accessesPerSec()) + ",\n";
        out += "      \"misses_per_sec\": " + jnum(jr.run.missesPerSec()) +
               ",\n";
        out += "      \"acquires_per_sec\": " +
               jnum(jr.run.acquiresPerSec()) + ",\n";
        out += "      \"miss_path_allocs\": " +
               fmt("%llu",
                   (unsigned long long)jr.run.stats.missPathAllocs) +
               ",\n";
        out += "      \"stats\": " + jr.run.stats.toStatSet().toJson() +
               ",\n";
        out += "      \"stats_digest\": " +
               jstr(jr.run.stats.toStatSet().digest()) + ",\n";
        out += "      \"energy\": " + energyJson(jr.run.energy);
        if (!jr.log.empty())
            out += ",\n      \"log\": " + jstr(jr.log);
        out += "\n    }";
    }
    out += first ? "]\n" : "\n  ]\n";
    out += "}\n";
    return out;
}

std::string
SweepResult::writeArtifact() const
{
    std::string path = artifactPath(sweepName);
    std::ofstream ofs(path, std::ios::trunc);
    if (!ofs) {
        warn("cannot write sweep artifact %s", path.c_str());
        return std::string();
    }
    ofs << toJson();
    return path;
}

// ---------------------------------------------------------------- //
// Executor                                                         //
// ---------------------------------------------------------------- //

int
sweepWorkerCount(int requested)
{
    int n = requested;
    if (n <= 0)
        n = int(envCount("CMPMEM_JOBS", INT_MAX, 0));
    if (n <= 0)
        n = int(std::thread::hardware_concurrency());
    return n > 0 ? n : 1;
}

std::string
artifactPath(const std::string &name)
{
    const char *dir = std::getenv("CMPMEM_ARTIFACT_DIR");
    std::string base = (dir && *dir) ? dir : ".";
    return base + "/BENCH_" + name + ".json";
}

SweepResult
runJobs(std::string name, std::vector<SweepJob> list, int jobs)
{
    const std::size_t n = list.size();

    std::set<std::string> ids;
    for (std::size_t i = 0; i < n; ++i) {
        const SweepJob &job = list[i];
        if (job.id.empty())
            fatal("sweep %s: job %zu has an empty id", name.c_str(), i);
        if (!ids.insert(job.id).second)
            fatal("sweep %s: duplicate job id '%s'", name.c_str(),
                  job.id.c_str());
        if (job.workload.empty() && !job.run)
            fatal("sweep %s: job '%s' has neither a workload nor a "
                  "custom run function",
                  name.c_str(), job.id.c_str());
    }

    const int workers =
        int(std::min<std::size_t>(std::size_t(sweepWorkerCount(jobs)),
                                  std::max<std::size_t>(n, 1)));

    // Every job is an independent simulation: workers claim the next
    // index and write only their own slot, so results keep list
    // order whatever the completion order.
    std::vector<JobResult> results(n);
    std::atomic<std::size_t> next{0};

    auto wall0 = std::chrono::steady_clock::now();
    {
        auto workerLoop = [&] {
            for (;;) {
                const std::size_t i = next.fetch_add(1);
                if (i >= n)
                    return;
                results[i] = runJobInProcess(list[i]);
                if (!results[i].log.empty()) {
                    emitRaw("--- log from sweep job '" + list[i].id +
                            "' ---\n" + results[i].log);
                }
            }
        };
        std::vector<std::jthread> pool;
        for (int w = 0; w < workers; ++w)
            pool.emplace_back(workerLoop);
        // jthreads join on destruction.
    }
    auto wall1 = std::chrono::steady_clock::now();
    double wall = std::chrono::duration<double>(wall1 - wall0).count();

    return SweepResult(std::move(name), std::move(results), wall,
                       workers);
}

SweepResult
runSweep(const SweepSpec &spec, int jobs)
{
    return runJobs(spec.name(), spec.expand(), jobs);
}

} // namespace cmpmem
