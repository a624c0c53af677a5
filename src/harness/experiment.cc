#include "harness/experiment.hh"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "harness/table.hh"
#include "sim/log.hh"
#include "sim/sim_error.hh"

namespace cmpmem
{

namespace
{

/** Process-wide overrides from parseBenchArgs(). */
WatchdogConfig benchWatchdog;
bool benchIsolate = false;
bool benchResume = false;
int benchRetries = 1;
double benchDeadline = 0;

/**
 * Parse a whole flag value as a decimal integer no larger than
 * @p max. Rejects an empty value, a sign, trailing text and overflow
 * (which strtoull would otherwise read as 0, negate or saturate).
 */
bool
parseCount(const char *s, unsigned long long max, unsigned long long &out)
{
    if (!std::isdigit(static_cast<unsigned char>(*s)))
        return false;
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (*end != '\0' || errno == ERANGE || v > max)
        return false;
    out = v;
    return true;
}

/** Parse a whole flag value as a finite non-negative number. */
bool
parseSeconds(const char *s, double &out)
{
    if (!std::isdigit(static_cast<unsigned char>(*s)) && *s != '.')
        return false;
    char *end = nullptr;
    double v = std::strtod(s, &end);
    if (end == s || *end != '\0' || !std::isfinite(v))
        return false;
    out = v;
    return true;
}

} // namespace

void
parseBenchArgs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        unsigned long long n = 0;
        bool ok = true;
        if (std::strncmp(arg, "--watchdog-ticks=", 17) == 0) {
            ok = parseCount(arg + 17, ULLONG_MAX, n);
            benchWatchdog.maxTicks = n;
        } else if (std::strcmp(arg, "--isolate") == 0) {
            benchIsolate = true;
        } else if (std::strcmp(arg, "--resume") == 0) {
            benchResume = true;
        } else if (std::strncmp(arg, "--retries=", 10) == 0) {
            ok = parseCount(arg + 10, INT_MAX, n);
            benchRetries = int(n);
        } else if (std::strncmp(arg, "--deadline=", 11) == 0) {
            ok = parseSeconds(arg + 11, benchDeadline);
        } else {
            ok = false;
        }
        if (!ok) {
            fatal("%s: unknown or malformed argument '%s' (supported: "
                  "--watchdog-ticks=N, --isolate, --resume, "
                  "--retries=N, --deadline=SECS)",
                  argv[0], arg);
        }
    }
}

SystemConfig
makeConfig(int cores, MemModel model, double ghz, double dram_gbps)
{
    SystemConfig cfg;
    cfg.cores = cores;
    cfg.model = model;
    cfg.coreClockGhz = ghz;
    cfg.dram.bandwidthGBps = dram_gbps;
    cfg.watchdog = benchWatchdog;
    return cfg;
}

NormBreakdown
normalizedBreakdown(const RunStats &rs, Tick baseline_ticks)
{
    NormBreakdown b;
    if (baseline_ticks == 0 || rs.perCore.empty())
        return b;
    double denom =
        double(baseline_ticks) * double(rs.perCore.size());
    // Idle tail (a core finishing before the slowest) counts as
    // sync, as a barrier at program end would.
    double idle = 0;
    for (const auto &cs : rs.perCore) {
        b.useful += double(cs.usefulTicks) / denom;
        b.sync += double(cs.syncTicks) / denom;
        b.load += double(cs.loadStallTicks) / denom;
        b.store += double(cs.storeStallTicks) / denom;
        idle += double(rs.execTicks - cs.totalTicks()) / denom;
    }
    b.sync += idle;
    return b;
}

WorkloadParams
benchParams()
{
    WorkloadParams params;
    params.scale = benchScale();
    return params;
}

int
benchScale()
{
    if (const char *env = std::getenv("CMPMEM_SCALE"))
        return std::atoi(env);
    return 1;
}

std::uint64_t
benchScaleDivisor()
{
    if (const char *env = std::getenv("CMPMEM_BENCH_SCALE")) {
        long long v = std::atoll(env);
        if (v > 1)
            return std::uint64_t(v);
    }
    return 1;
}

std::uint64_t
benchIters(std::uint64_t base)
{
    const int scale = benchScale();
    const std::uint64_t factor = scale <= 0 ? 1 : 20 * std::uint64_t(scale);
    const std::uint64_t iters = base * factor / benchScaleDivisor();
    return iters ? iters : 1;
}

SweepResult
runBenchJobs(const std::string &name, std::vector<SweepJob> jobs,
             SweepOptions opts)
{
    if (benchIsolate)
        opts.isolate = SweepIsolate::On;
    if (benchResume)
        opts.resume = true;
    if (benchRetries > 0 && opts.maxRetries == 0)
        opts.maxRetries = benchRetries;
    if (benchDeadline > 0 && opts.jobDeadlineSeconds <= 0)
        opts.jobDeadlineSeconds = benchDeadline;
    if (opts.journalPath.empty())
        opts.journalPath = journalPath(name);
    try {
        return runJobs(name, std::move(jobs), opts);
    } catch (const SimError &e) {
        // Resume refusal (journal identity mismatch) and similar
        // harness-level Config errors: CLI misuse, not a bug.
        fatal("%s", e.what());
    }
}

SweepResult
runBenchSweep(const SweepSpec &spec, SweepOptions opts)
{
    return runBenchJobs(spec.name(), spec.expand(), std::move(opts));
}

int
finishBench(const SweepResult &res)
{
    std::printf("\n%s\n", res.summary().c_str());
    std::string path = res.writeArtifact();
    if (!path.empty())
        std::printf("artifact: %s\n", path.c_str());
    return res.allRan() ? 0 : 1;
}

std::string
breakdownCells(const NormBreakdown &b)
{
    return fmt("total=%.3f useful=%.3f sync=%.3f load=%.3f store=%.3f",
               b.total(), b.useful, b.sync, b.load, b.store);
}

} // namespace cmpmem
