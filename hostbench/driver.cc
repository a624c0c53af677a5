/**
 * @file
 * Host-performance benchmark driver for cmpmem.
 *
 * Runs one benchmark workload (a fixed list of paper applications on
 * one memory model, 16 cores, Table 2 defaults, WorkloadParams.scale)
 * through the public library API in passes: a discarded warm-up pass,
 * then timed passes while the next one is expected to end within
 * --seconds. Each pass builds every job's system from scratch, so the
 * simulated caches start cold in every job, and runs the jobs in an
 * order shuffled by --seed. Every job is checked: a SimError, a
 * failed Workload::verify(), or a stats digest that differs from the
 * job's digest in an earlier pass fails the job.
 *
 * Built twice from this file (CMakeLists.txt): `hostbench` against
 * the plain library, and `hostbench_traced` (HOSTBENCH_TRACED) with
 * the layer entry points wrapped by trace.cc. The traced driver also
 * checks its wrapper call counts against the library's own counters
 * and that the layer self times add up to the simulate() span. The
 * plain driver also times a host-speed reference (namespace hostref)
 * during the run and reports its bursts per pass.
 *
 * Usage:
 *   hostbench --workload NAME [--seed N] [--seconds S] [--scale K]
 *             [--inject-hang]
 *
 * Human-readable lines go to stdout as the run goes; the last line is
 * one JSON object with every per-pass sample, which run.py reduces to
 * the benchmark's metrics. Exit status: 0 when every job passed every
 * check, 1 when any job failed, 2 on a usage error.
 */

#include <sys/resource.h>
#include <sys/time.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <deque>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "cmpmem.hh"
#include "sim/log.hh"

#ifdef HOSTBENCH_TRACED
#include "trace.hh"
#endif

using namespace cmpmem;

namespace
{

struct Job
{
    std::string app;
    MemModel model;
    bool expectFailure = false; ///< the injected hang job
};

struct WorkloadDef
{
    const char *name;
    MemModel model;
    std::vector<const char *> apps;
};

// Keep in step with BENCHMARK.json and hostbench/README.md.
const WorkloadDef kWorkloads[] = {
    {"cc_congested", MemModel::CC, {"fem", "art", "merge", "fir"}},
    {"str_dma", MemModel::STR, {"fem", "art", "merge", "mpeg2", "jpeg_enc"}},
    {"cc_compute", MemModel::CC, {"raytrace", "depth", "h264"}},
};

constexpr int kCores = 16;

/**
 * setup_s is short and noisy next to a pass, so it is sampled in
 * rounds of its own, spread over the run: a few after every timed
 * pass, topped up at the end to a minimum count.
 */
constexpr int kSetupRoundsPerPass = 4;
constexpr int kMinSetupRounds = 24;

/** Simulated-tick budget of the injected hang job's watchdog. */
constexpr Tick kHangBudgetTicks = 50 * ticksPerUs;

double
wallNow()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Host-speed reference of the untraced driver.
 *
 * The host is shared, and its speed for the simulator's hot code
 * drifts by ±25% within seconds and again over minutes, more than
 * any end-to-end bound allows. So the driver measures that speed
 * alongside the run it times: a SIGPROF timer interrupts the process
 * after every kPeriodUs of its CPU time, and the handler runs one
 * burst of fixed work, first-fit scans over a private calendar of
 * busy intervals, the loop shape of Resource::acquire. Bursts sample
 * the host at the same moments as the run around them, so run.py
 * divides each pass's times by the mean burst time of that pass.
 *
 * Every interval the driver times leaves the bursts out: netWall()
 * and netCpu() subtract the reference's own time. The traced driver
 * never starts the reference, so its spans see no bursts.
 */
namespace hostref
{

struct Interval
{
    std::uint64_t start;
    std::uint64_t end;
};

constexpr int kIntervals = 32768;   ///< 512 KiB of calendar
constexpr int kScansPerBurst = 20;  ///< about 0.7 ms per burst
constexpr long kPeriodUs = 20000;   ///< CPU time between bursts
constexpr std::uint64_t kSlot = 3;  ///< wider than every gap

std::deque<Interval> *calendar = nullptr;
std::atomic<std::int64_t> wallNs{0};
std::atomic<std::int64_t> cpuNs{0};
std::atomic<std::int64_t> bursts{0}; ///< written last by a burst
volatile std::uint64_t sink;

std::int64_t
clockNs(clockid_t id)
{
    timespec ts;
    clock_gettime(id, &ts);
    return std::int64_t(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

/** The SIGPROF handler: one burst, timed. Allocates nothing. */
void
burst(int)
{
    const int saved_errno = errno;
    const std::int64_t w0 = clockNs(CLOCK_MONOTONIC);
    const std::int64_t c0 = clockNs(CLOCK_THREAD_CPUTIME_ID);
    std::uint64_t acc = 0;
    for (int s = 0; s < kScansPerBurst; ++s) {
        // No gap fits kSlot, so every scan walks the whole calendar.
        std::uint64_t start = std::uint64_t(s);
        for (const Interval &iv : *calendar) {
            if (iv.end <= start)
                continue;
            if (iv.start >= start + kSlot)
                break;
            start = iv.end;
        }
        acc += start;
    }
    sink = acc;
    cpuNs += clockNs(CLOCK_THREAD_CPUTIME_ID) - c0;
    wallNs += clockNs(CLOCK_MONOTONIC) - w0;
    ++bursts;
    errno = saved_errno;
}

/** Build the calendar and start the timer. */
[[maybe_unused]] void
start()
{
    calendar = new std::deque<Interval>;
    std::mt19937_64 rng(7);
    std::uint64_t t = 0;
    for (int i = 0; i < kIntervals; ++i) {
        t += rng() % kSlot; // gap of 0..kSlot-1 ticks
        const std::uint64_t begin = t;
        t += 1 + rng() % 8;
        calendar->push_back({begin, t});
    }
    struct sigaction sa = {};
    sa.sa_handler = burst;
    sa.sa_flags = SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, nullptr);
    itimerval it = {};
    it.it_interval.tv_usec = kPeriodUs;
    it.it_value = it.it_interval;
    setitimer(ITIMER_PROF, &it, nullptr);
}

/** Stop the timer; no burst runs after this returns. */
[[maybe_unused]] void
stop()
{
    itimerval it = {};
    setitimer(ITIMER_PROF, &it, nullptr);
    signal(SIGPROF, SIG_IGN);
}

/** Reference totals so far, consistent with each other. */
struct Totals
{
    double wallS = 0;
    double cpuS = 0;
    std::int64_t bursts = 0;

    Totals
    operator-(const Totals &o) const
    {
        return {wallS - o.wallS, cpuS - o.cpuS, bursts - o.bursts};
    }
};

/**
 * Read a clock together with the reference totals, retrying if a
 * burst landed in between. @return {clock, totals}.
 */
template <class Clock>
std::pair<double, Totals>
readWith(Clock clock)
{
    for (;;) {
        const std::int64_t n = bursts.load();
        const double now = clock();
        const Totals t{wallNs.load() * 1e-9, cpuNs.load() * 1e-9, n};
        if (bursts.load() == n)
            return {now, t};
    }
}

Totals
totals()
{
    return readWith([] { return 0.0; }).second;
}

} // namespace hostref

/** Wall seconds, less the time spent in reference bursts. */
double
netWall()
{
    const auto [now, ref] = hostref::readWith(wallNow);
    return now - ref.wallS;
}

/** Thread CPU seconds, less the CPU time of reference bursts. */
double
netCpu()
{
    const auto [now, ref] = hostref::readWith(threadCpuSeconds);
    return now - ref.cpuS;
}

std::string
jobName(const Job &j)
{
    return j.app + "/" + (j.model == MemModel::CC ? "CC" : "STR");
}

/** Host-time samples of one job in one pass. */
struct JobTimes
{
    double buildS = 0;   ///< CmpSystem construction
    double setupS = 0;   ///< createWorkload + setup + kernel binding
    double simWallS = 0; ///< simulate(), wall
    double simCpuS = 0;  ///< simulate(), thread CPU
    double collectS = 0; ///< collectStats + EnergyModel::compute
    double verifyS = 0;  ///< Workload::verify
};

/** Simulated (deterministic) figures of one job, summed per pass. */
struct SimTotals
{
    double instructions = 0;
    double events = 0;
    double l1Accesses = 0;
    double l1Hits = 0;
    double l1Fastpath = 0;
    double missPathAllocs = 0;
    double l2Hits = 0;
    double l2Accesses = 0;
    double dramBytes = 0;
    double dramUtilMax = 0;
    double dmaAccesses = 0;
    double dmaBytes = 0;
    double stallTicks = 0;
    double coreTicks = 0;

    void
    add(const RunStats &rs)
    {
        const CoreStats &c = rs.coreTotal;
        instructions += double(c.instructions());
        events += double(rs.eventsExecuted);
        l1Accesses += double(rs.l1Total.demandAccesses());
        l1Hits += double(rs.l1Total.loadHits + rs.l1Total.storeHits);
        l1Fastpath += double(rs.l1Total.fastpathHits);
        missPathAllocs += double(rs.missPathAllocs);
        l2Hits += double(rs.l2Hits);
        l2Accesses += double(rs.l2Hits + rs.l2Misses);
        dramBytes += double(rs.dramReadBytes + rs.dramWriteBytes);
        if (rs.execTicks)
            dramUtilMax = std::max(dramUtilMax, double(rs.dramBusyTicks) /
                                                    double(rs.execTicks));
        dmaAccesses += double(rs.dmaAccesses);
        dmaBytes += double(rs.dmaBytesRead + rs.dmaBytesWritten);
        stallTicks += double(c.loadStallTicks + c.storeStallTicks);
        coreTicks += double(c.totalTicks());
    }
};

struct PassResult
{
    double passS = 0;
    JobTimes times;      ///< summed over the pass's jobs
    hostref::Totals ref; ///< reference bursts during the pass
    SimTotals sim;
#ifdef HOSTBENCH_TRACED
    hostbench::TraceTotals trace;
#endif
};

struct JobOutcome
{
    bool ok = false;
    std::string digest;
    Tick execTicks = 0;
    double dramUtil = 0;
    std::string error;
};

#ifdef HOSTBENCH_TRACED
/**
 * The traced run's self-check for one job: every wrapper whose layer
 * keeps a matching public counter must have been called exactly that
 * many times. @return an empty string, or what disagreed.
 */
std::string
checkTraceCounts(CmpSystem &sys, const RunStats &rs,
                 const hostbench::TraceTotals &d)
{
    using hostbench::Entry;
    auto calls = [&d](Entry e) { return d.calls[int(e)]; };
    std::string err;
    auto expect = [&err](const char *what, std::uint64_t wrapped,
                         std::uint64_t counted) {
        if (wrapped != counted)
            err += strformat("%s: %llu wrapped calls, library counts "
                             "%llu; ",
                             what, (unsigned long long)wrapped,
                             (unsigned long long)counted);
    };

    expect("L2Cache::readLine+writeLine vs L2Cache::accesses()",
           calls(Entry::L2Read) + calls(Entry::L2Write),
           sys.l2().accesses());
    expect("DramChannel::read vs readAccesses()", calls(Entry::DramRead),
           sys.dram().readAccesses());
    expect("DramChannel::write vs writeAccesses()",
           calls(Entry::DramWrite), sys.dram().writeAccesses());

    std::uint64_t dma_commands = 0;
    for (int i = 0; i < sys.cores(); ++i)
        if (DmaEngine *dma = sys.core(i).dma())
            dma_commands += dma->counters().commands;
    expect("DmaEngine get/put calls vs DmaCounters::commands",
           calls(Entry::DmaGet) + calls(Entry::DmaPut) +
               calls(Entry::DmaGetStrided) + calls(Entry::DmaPutStrided) +
               calls(Entry::DmaGetIndexed) + calls(Entry::DmaPutIndexed),
           dma_commands);

    // The inline micro path (L1Controller::microLoad/microStore)
    // serves fastpathHits without entering load()/store().
    expect("L1Controller load/store/atomic vs demand accesses - "
           "fast-path hits",
           calls(Entry::L1Load) + calls(Entry::L1Store) +
               calls(Entry::L1Atomic),
           rs.l1Total.demandAccesses() - rs.l1Total.fastpathHits);

    expect("EventQueue::run/runGuarded per simulate()",
           calls(Entry::EventRun) + calls(Entry::EventRunGuarded), 1);
    return err;
}
#endif

/** A job's system and workload, ready to simulate. */
struct Prepared
{
    std::unique_ptr<CmpSystem> sys;
    std::unique_ptr<Workload> workload;
};

/**
 * Build @p job's system and set its workload up, as runWorkload()
 * does: construction, Workload::setup, I-cache model and kernel
 * binding. Records the build and setup times in @p t.
 */
Prepared
prepare(const Job &job, int scale, JobTimes &t)
{
    SystemConfig cfg = makeConfig(kCores, job.model);
    if (job.expectFailure)
        cfg.watchdog.maxTicks = kHangBudgetTicks;
    WorkloadParams params;
    params.scale = scale;

    Prepared p;
    const double t0 = netWall();
    p.sys = std::make_unique<CmpSystem>(cfg);
    const double t1 = netWall();
    t.buildS = t1 - t0;

    CmpSystem &sys = *p.sys;
    p.workload = createWorkload(job.app, params);
    p.workload->setup(sys);
    const double mpki = p.workload->icacheMpki(sys.config());
    for (int i = 0; i < sys.cores(); ++i) {
        sys.core(i).icache().setMissesPerKiloInstr(mpki);
        sys.bindKernel(i, p.workload->kernel(sys.context(i)));
    }
    t.setupS = netWall() - t1;
    return p;
}

/**
 * Run one job from system construction to verification, adding its
 * host times and simulated totals to @p pass.
 */
JobOutcome
runJob(const Job &job, int scale, PassResult &pass)
{
    JobOutcome out;
    JobTimes t;
    try {
        Prepared prep = prepare(job, scale, t);
        CmpSystem &sys = *prep.sys;
        Workload *workload = prep.workload.get();
        const SystemConfig &cfg = sys.config();

#ifdef HOSTBENCH_TRACED
        const hostbench::TraceTotals before = hostbench::traceTotals();
#endif
        const double c0 = netCpu();
        const double t2 = netWall();
        {
#ifdef HOSTBENCH_TRACED
            hostbench::Span span(hostbench::Entry::Simulate);
#endif
            sys.simulate();
        }
        const double t3 = netWall();
        t.simCpuS = netCpu() - c0;
        t.simWallS = t3 - t2;

        RunStats rs = sys.collectStats();
        rs.workload = workload->name();
        rs.variant = workload->variant();
        EnergyModel(cfg.energy).compute(rs); // as runWorkload() does
        const double t4 = netWall();
        t.collectS = t4 - t3;

        const bool verified = workload->verify(sys);
        t.verifyS = netWall() - t4;

        out.digest = rs.toStatSet().digest();
        out.execTicks = rs.execTicks;
        out.dramUtil =
            rs.execTicks ? double(rs.dramBusyTicks) / double(rs.execTicks)
                         : 0;
        out.ok = verified;
        if (!verified)
            out.error = "verify() failed";

#ifdef HOSTBENCH_TRACED
        const hostbench::TraceTotals d = hostbench::traceTotals() - before;
        const std::string count_err = checkTraceCounts(sys, rs, d);
        // Every tick of the Simulate span belongs to exactly one
        // span's self time. Against the driver's own steady_clock
        // reading of simulate(), only the span bookkeeping just
        // inside it and the tick-to-second calibration may differ.
        const double span_s = d.totalSelfSeconds();
        const bool sums_ok = std::abs(t.simWallS - span_s) <=
                             1e-4 * t.simWallS + 20e-6;
        if (!count_err.empty() || !sums_ok) {
            out.ok = false;
            out.error = "trace check: " + count_err +
                        (sums_ok ? ""
                                 : strformat("self times sum to %.9f s, "
                                             "simulate() took %.9f s",
                                             span_s, t.simWallS));
        }
        pass.trace += d;
#endif
        pass.sim.add(rs);
    } catch (const SimError &e) {
        out.ok = false;
        out.error = strformat("SimError(%s): %s", e.kindName(), e.what());
    } catch (const std::exception &e) {
        out.ok = false;
        out.error = strformat("exception: %s", e.what());
    }
    pass.times.buildS += t.buildS;
    pass.times.setupS += t.setupS;
    pass.times.simWallS += t.simWallS;
    pass.times.simCpuS += t.simCpuS;
    pass.times.collectS += t.collectS;
    pass.times.verifyS += t.verifyS;
    return out;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB
}

/**
 * One set-up round: set every job up as a pass does, in shuffled
 * order, and tear it down unsimulated. @return the summed build and
 * set-up seconds.
 */
double
setupRound(std::vector<Job> &jobs, int scale, std::mt19937_64 &rng)
{
    std::shuffle(jobs.begin(), jobs.end(), rng);
    double sum = 0;
    for (const Job &job : jobs) {
        JobTimes t;
        try {
            prepare(job, scale, t);
        } catch (const std::exception &) {
            // Already counted: the same set-up ran in every pass.
        }
        sum += t.buildS + t.setupS;
    }
    return sum;
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "hostbench: %s\n"
                 "usage: hostbench --workload NAME [--seed N] "
                 "[--seconds S] [--scale K] "
                 "[--inject-hang]\n",
                 msg);
    std::exit(2);
}

/** Append "key": [v0, v1, ...] with every digit of each value. */
void
jsonArray(std::string &out, const char *key, const std::vector<double> &v)
{
    out += strformat("\"%s\": [", key);
    for (std::size_t i = 0; i < v.size(); ++i)
        out += strformat("%s%.17g", i ? ", " : "", v[i]);
    out += "]";
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload_name;
    std::uint64_t seed = 1;
    double seconds = 10;
    int scale = 1;
    bool inject_hang = false;

    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload")
            workload_name = value();
        else if (a == "--seed")
            seed = std::strtoull(value(), nullptr, 10);
        else if (a == "--seconds")
            seconds = std::atof(value());
        else if (a == "--scale")
            scale = std::atoi(value());
        else if (a == "--inject-hang")
            inject_hang = true;
        else
            usage(("unknown argument " + a).c_str());
    }

    const WorkloadDef *def = nullptr;
    for (const auto &w : kWorkloads)
        if (workload_name == w.name)
            def = &w;
    if (!def)
        usage(("unknown workload '" + workload_name + "'").c_str());
    if (scale < 0 || !(seconds > 0))
        usage("--scale must be non-negative and --seconds positive");

    // The simulator's warn() lines (e.g. the hang job's watchdog) go
    // to stderr; only the driver writes stdout.
    std::vector<Job> jobs;
    for (const char *app : def->apps)
        jobs.push_back({app, def->model});
    if (inject_hang)
        jobs.push_back({"hang", MemModel::CC, true});

    std::mt19937_64 rng(seed);
    std::map<std::string, JobOutcome> first; // per job, from its first run
    std::vector<PassResult> timed;
    std::vector<double> setup_rounds;
    std::uint64_t attempted = 0, failed = 0;

#ifndef HOSTBENCH_TRACED
    hostref::start();
#endif
    double timed_start = 0;
    hostref::Totals run_ref0;
    for (int p = 0;; ++p) {
        const bool warmup = p == 0;
        // Start a timed pass only if it should end within the budget
        // (at least one runs), so a run takes about warm-up + seconds.
        if (!warmup && !timed.empty() &&
            wallNow() - timed_start + timed.back().passS > seconds)
            break;
        std::shuffle(jobs.begin(), jobs.end(), rng);

        PassResult pass;
        const hostref::Totals r0 = hostref::totals();
        const double p0 = netWall();
        for (const Job &job : jobs) {
            JobOutcome o = runJob(job, scale, pass);
            const std::string name = jobName(job);
            auto it = first.find(name);
            if (it == first.end()) {
                std::printf("job %-14s digest=%s exec_ticks=%llu "
                            "dram_util=%.4f %s%s\n",
                            name.c_str(), o.digest.c_str(),
                            (unsigned long long)o.execTicks, o.dramUtil,
                            o.ok ? "ok" : "FAILED: ", o.error.c_str());
                first.emplace(name, o);
            } else if (o.ok && o.digest != it->second.digest) {
                o.ok = false;
                o.error = "stats digest " + o.digest + " differs from " +
                          it->second.digest + " in an earlier pass";
            }
            ++attempted;
            if (!o.ok) {
                ++failed;
                if (it != first.end())
                    std::printf("job %-14s FAILED in pass %d: %s\n",
                                name.c_str(), p, o.error.c_str());
            }
        }
        pass.passS = netWall() - p0;
        pass.ref = hostref::totals() - r0;
        std::printf("pass %d%s: pass_s=%.4f setup_s=%.4f "
                    "sim_minst_per_s=%.3f ref_burst_us=%.1f (%lld)\n",
                    p, warmup ? " (warm-up, discarded)" : "", pass.passS,
                    pass.times.buildS + pass.times.setupS,
                    pass.times.simCpuS > 0
                        ? pass.sim.instructions / pass.times.simCpuS / 1e6
                        : 0.0,
                    pass.ref.bursts ? pass.ref.wallS / pass.ref.bursts * 1e6
                                    : 0.0,
                    (long long)pass.ref.bursts);
        std::fflush(stdout);
        if (warmup) {
            timed_start = wallNow();
            run_ref0 = hostref::totals();
        } else {
            timed.push_back(pass);
            for (int r = 0; r < kSetupRoundsPerPass; ++r)
                setup_rounds.push_back(setupRound(jobs, scale, rng));
        }
    }

    while (int(setup_rounds.size()) < kMinSetupRounds)
        setup_rounds.push_back(setupRound(jobs, scale, rng));
    const hostref::Totals run_ref = hostref::totals() - run_ref0;
#ifndef HOSTBENCH_TRACED
    hostref::stop();
#endif

    std::string js = "{";
    js += strformat("\"attempted\": %llu, \"failed\": %llu, "
                    "\"peak_rss_mb\": %.17g, ",
                    (unsigned long long)attempted,
                    (unsigned long long)failed, peakRssMb());
    js += "\"jobs\": {";
    bool comma = false;
    for (const auto &[name, o] : first) {
        js += strformat("%s\"%s\": {\"digest\": \"%s\", \"exec_ticks\": "
                        "%llu}",
                        comma ? ", " : "", name.c_str(), o.digest.c_str(),
                        (unsigned long long)o.execTicks);
        comma = true;
    }
    js += "}, ";

    auto series = [&timed](auto f) {
        std::vector<double> v;
        for (const PassResult &p : timed)
            v.push_back(f(p));
        return v;
    };
    auto field = [&](const char *key, auto f) {
        jsonArray(js, key, series(f));
        js += ", ";
    };
    field("pass_s", [](const PassResult &p) { return p.passS; });
    jsonArray(js, "setup_s", setup_rounds);
    js += ", ";
    field("sim_cpu_s", [](const PassResult &p) { return p.times.simCpuS; });
    field("sim_wall_s", [](const PassResult &p) { return p.times.simWallS; });
    field("build_s", [](const PassResult &p) { return p.times.buildS; });
    field("workload_setup_s",
          [](const PassResult &p) { return p.times.setupS; });
    field("collect_s", [](const PassResult &p) { return p.times.collectS; });
    field("verify_s", [](const PassResult &p) { return p.times.verifyS; });
    // Reference bursts, per pass and over the whole timed run.
    field("ref_wall_s", [](const PassResult &p) { return p.ref.wallS; });
    field("ref_cpu_s", [](const PassResult &p) { return p.ref.cpuS; });
    field("ref_bursts",
          [](const PassResult &p) { return double(p.ref.bursts); });
    js += strformat("\"run_ref\": {\"wall_s\": %.17g, \"cpu_s\": %.17g, "
                    "\"bursts\": %lld}, ",
                    run_ref.wallS, run_ref.cpuS, (long long)run_ref.bursts);

    // Simulated totals are deterministic, so any pass gives them.
    const SimTotals sim = timed.empty() ? SimTotals{} : timed.back().sim;
    js += strformat(
        "\"sim\": {\"instructions\": %.17g, \"events\": %.17g, "
        "\"l1_accesses\": %.17g, \"l1_hits\": %.17g, "
        "\"l1_fastpath_hits\": %.17g, \"miss_path_allocs\": %.17g, "
        "\"l2_hits\": %.17g, \"l2_accesses\": %.17g, "
        "\"dram_bytes\": %.17g, \"dram_util_max\": %.17g, "
        "\"dma_accesses\": %.17g, \"dma_bytes\": %.17g, "
        "\"stall_ticks\": %.17g, \"core_ticks\": %.17g}",
        sim.instructions, sim.events, sim.l1Accesses, sim.l1Hits,
        sim.l1Fastpath, sim.missPathAllocs, sim.l2Hits, sim.l2Accesses,
        sim.dramBytes, sim.dramUtilMax, sim.dmaAccesses, sim.dmaBytes,
        sim.stallTicks, sim.coreTicks);

#ifdef HOSTBENCH_TRACED
    // Per layer and timed pass: calls, self seconds; plus the
    // resource wait in ticks.
    js += ", \"layers\": {";
    for (int l = 0; l < hostbench::kLayers; ++l) {
        const auto layer = hostbench::Layer(l);
        js += strformat("%s\"%s\": {", l ? ", " : "",
                        hostbench::kLayerNames[l]);
        jsonArray(js, "calls", series([layer](const PassResult &p) {
                      return double(p.trace.layerCalls(layer));
                  }));
        js += ", ";
        jsonArray(js, "self_s", series([layer](const PassResult &p) {
                      return p.trace.layerSelfSeconds(layer);
                  }));
        js += "}";
    }
    js += "}, ";
    jsonArray(js, "resource_wait_ticks", series([](const PassResult &p) {
                  return double(p.trace.resourceWaitTicks);
              }));
#endif
    js += "}";
    std::printf("%s\n", js.c_str());
    return failed ? 1 : 0;
}
