/**
 * @file
 * Event-engine microbenchmark on the sweep engine: measures raw
 * scheduler throughput (events/sec) for the access patterns the
 * calendar queue must serve, plus one full-system point so the
 * simulator-wide events/sec trajectory is tracked PR over PR in
 * BENCH_micro_events.json.
 *
 * Jobs (all custom-run, single-threaded, deterministic event
 * streams):
 *   churn  - 64 self-rescheduling chains with mixed strides inside
 *            the calendar window: the schedule/dispatch hot loop.
 *   burst  - same-tick fan-out bursts: the now-FIFO path.
 *   far    - horizons beyond the calendar ring: overflow heap and
 *            migration on window advance.
 *   stress - the full-system randomized "stress" workload (CC,
 *            4 cores), where model code dominates each event.
 *
 * CMPMEM_SCALE scales the event counts (0 = smoke);
 * CMPMEM_BENCH_SCALE divides them (sanitized-tree TIMEOUT relief).
 */

#include <cstdio>

#include "cmpmem.hh"

using namespace cmpmem;

namespace
{

/** Package a finished queue run as a sweep RunResult. */
RunResult
queueResult(const EventQueue &eq, double host_seconds)
{
    RunResult r;
    r.stats.eventsExecuted = eq.executed();
    r.stats.peakPendingEvents = eq.peakPending();
    r.stats.calendarOverflows = eq.calendarOverflows();
    r.stats.execTicks = eq.now();
    r.hostSeconds = host_seconds;
    r.verified = true;
    return r;
}

/** 64 interleaved chains, strides 100..692 ticks (in-window). */
RunResult
runChurn()
{
    constexpr int kChains = 64;
    const std::uint64_t perChain = benchIters(2000);

    EventQueue eq;
    std::uint64_t fired = 0;
    struct Chain
    {
        EventQueue *eq;
        std::uint64_t *fired;
        std::uint64_t left;
        Tick stride;

        void
        arm(Tick when)
        {
            eq->schedule(when, [this, when] {
                ++*fired;
                if (--left)
                    arm(when + stride);
            });
        }
    };
    std::vector<Chain> chains(kChains);
    double t0 = threadCpuSeconds();
    for (int i = 0; i < kChains; ++i) {
        chains[i] = {&eq, &fired, perChain, Tick(100 + 37 * (i % 17))};
        chains[i].arm(Tick(i));
    }
    eq.run();
    return queueResult(eq, threadCpuSeconds() - t0);
}

/** Same-tick fan-out: one trigger spawns a 63-event burst, repeat. */
RunResult
runBurst()
{
    constexpr int kBurst = 63;
    const std::uint64_t rounds = benchIters(2000);

    EventQueue eq;
    std::uint64_t fired = 0;
    struct Driver
    {
        EventQueue *eq;
        std::uint64_t *fired;
        std::uint64_t left;

        void
        arm(Tick when)
        {
            eq->schedule(when, [this, when] {
                ++*fired;
                for (int i = 0; i < kBurst; ++i)
                    eq->schedule(when, [this] { ++*fired; });
                if (--left)
                    arm(when + 1000);
            });
        }
    };
    Driver d{&eq, &fired, rounds};
    double t0 = threadCpuSeconds();
    d.arm(0);
    eq.run();
    return queueResult(eq, threadCpuSeconds() - t0);
}

struct FarChain
{
    EventQueue *eq;
    std::uint64_t *fired;
    std::uint64_t left;
    Tick stride;

    void
    arm(Tick when)
    {
        eq->schedule(when, [this, when] {
            ++*fired;
            if (--left)
                arm(when + stride);
        });
    }
};

/** Chains whose stride exceeds the calendar window (overflow path). */
RunResult
runFar()
{
    constexpr int kChains = 16;
    const std::uint64_t perChain = benchIters(2000);

    EventQueue eq;
    std::uint64_t fired = 0;
    std::vector<FarChain> chains(kChains);
    double t0 = threadCpuSeconds();
    for (std::size_t i = 0; i < chains.size(); ++i) {
        // Well past the ~262k-tick window, so every hop overflows.
        chains[i] = {&eq, &fired, perChain, Tick(300000 + 40001 * i)};
        chains[i].arm(Tick(i));
    }
    eq.run();
    return queueResult(eq, threadCpuSeconds() - t0);
}

} // namespace

int
main(int argc, char **argv)
{
    parseBenchArgs(argc, argv);
    std::printf("Event-engine microbenchmark (events/sec, higher is "
                "better)\n\n");

    WorkloadParams stress_params = benchParams();
    stress_params.seed = 42;

    std::vector<SweepJob> jobs;
    jobs.emplace_back("churn", "", SystemConfig{}, WorkloadParams{},
                      std::map<std::string, std::string>{{"job", "churn"}},
                      runChurn);
    jobs.emplace_back("burst", "", SystemConfig{}, WorkloadParams{},
                      std::map<std::string, std::string>{{"job", "burst"}},
                      runBurst);
    jobs.emplace_back("far", "", SystemConfig{}, WorkloadParams{},
                      std::map<std::string, std::string>{{"job", "far"}},
                      runFar);
    jobs.emplace_back("stress/model=CC", "stress",
                      makeConfig(4, MemModel::CC), stress_params,
                      std::map<std::string, std::string>{{"job", "stress"}});

    // Serial on purpose: events/sec is a latency measurement, and
    // concurrent jobs would steal cache and memory bandwidth from
    // each other.
    SweepResult res = runJobs("micro_events", std::move(jobs), 1);

    TextTable table({"job", "events", "host ms", "events/sec",
                     "peak pending", "overflows"});
    for (const JobResult &jr : res.jobs()) {
        table.addRow({jr.job.id,
                      fmt("%llu", (unsigned long long)
                                      jr.run.stats.eventsExecuted),
                      fmtF(jr.run.hostSeconds * 1e3, 2),
                      fmt("%.3g", jr.run.eventsPerSec()),
                      fmt("%llu", (unsigned long long)
                                      jr.run.stats.peakPendingEvents),
                      fmt("%llu", (unsigned long long)
                                      jr.run.stats.calendarOverflows)});
    }
    std::printf("%s", table.format().c_str());
    return finishBench(res);
}
