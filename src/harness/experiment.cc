#include "harness/experiment.hh"

#include <cctype>
#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "harness/table.hh"
#include "sim/log.hh"

namespace cmpmem
{

namespace
{

/** Process-wide overrides from parseBenchArgs(). */
WatchdogConfig benchWatchdog;

} // namespace

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

bool
parseNonNegativeNumber(const char *s, double &out)
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

unsigned long long
envCount(const char *name, unsigned long long max,
         unsigned long long fallback)
{
    const char *env = std::getenv(name);
    if (!env)
        return fallback;
    unsigned long long v = 0;
    if (!parseCount(env, max, v))
        fatal("%s='%s' is not a whole number in [0, %llu]", name, env,
              max);
    return v;
}

void
parseBenchArgs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        unsigned long long n = 0;
        if (std::strncmp(arg, "--watchdog-ticks=", 17) != 0 ||
            !parseCount(arg + 17, ULLONG_MAX, n)) {
            fatal("%s: unknown or malformed argument '%s' (supported: "
                  "--watchdog-ticks=N)",
                  argv[0], arg);
        }
        benchWatchdog.maxTicks = n;
    }
    // Read the bench environment now, so a malformed value is fatal
    // before the bench prints anything.
    (void)benchScale();
    (void)benchScaleDivisor();
    (void)sweepWorkerCount(0);
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
    return int(envCount("CMPMEM_SCALE", INT_MAX, 1));
}

std::uint64_t
benchScaleDivisor()
{
    const std::uint64_t v = envCount("CMPMEM_BENCH_SCALE", LLONG_MAX, 1);
    return v > 1 ? v : 1;
}

std::uint64_t
benchIters(std::uint64_t base)
{
    const int scale = benchScale();
    const std::uint64_t factor = scale <= 0 ? 1 : 20 * std::uint64_t(scale);
    const std::uint64_t iters = base * factor / benchScaleDivisor();
    return iters ? iters : 1;
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
