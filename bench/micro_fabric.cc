/**
 * @file
 * Resource-calendar microbenchmark on the sweep engine: measures
 * host acquires/sec of the busy-interval calendar every bus,
 * crossbar port, L2 bank and DRAM channel is built on (DESIGN.md
 * §19), tracked change over change in BENCH_micro_fabric.json.
 *
 * Each job drives one standalone resource with a seeded request
 * stream shaped like the streams measured on the bandwidth-bound
 * CC and STR runs: most requests reserve a little ahead of the
 * newest issue time (transactions walk their path at issue), so
 * about half the grants land at the tail; the rest arrive a bounded
 * skew behind it and fill gaps mid-list. Times sit on the 1250-tick
 * bus clock, so reservations abut and merge with their neighbours,
 * and the 10 us prune horizon retains hundreds of live intervals.
 * The stats block records that shape (tail grants, mean and peak
 * live intervals) plus a digest over every granted
 * start, so a change to what the calendar grants breaks the
 * baseline's bit-identity.
 *
 * Jobs (all custom-run, deterministic):
 *   resource_dram - a Resource booked in 5 ns granules (1 in 10
 *                   requests takes 2-4), one request per ~14 ns:
 *                   about 440 live intervals.
 *   channel_xbar  - a ChannelResource with 16-byte, 1.25 ns beats
 *                   moving 32-128 byte transfers, one per ~5 ns:
 *                   about 860 live intervals.
 *
 * CMPMEM_SCALE scales the request counts (0 = smoke);
 * CMPMEM_BENCH_SCALE divides them (sanitized-tree TIMEOUT relief).
 */

#include <algorithm>
#include <cstdio>

#include "cmpmem.hh"
#include "mem/resource.hh"
#include "sim/rng.hh"

using namespace cmpmem;

namespace
{

/** Request times are quantized to the bus clock so bookings abut. */
constexpr Tick kClock = 1250;

/** Knobs of one seeded request stream. */
struct StreamShape
{
    std::uint64_t seed;
    Tick meanGap;     ///< mean spacing of successive issue times
    Tick ahead;       ///< reach of an on-path request past issue time
    Tick skew;        ///< reach of a late request behind issue time
    unsigned latePct; ///< share of late requests, in percent
};

/** One request: earliest start and a size drawn by the job. */
struct Request
{
    Tick earliest;
    std::uint64_t size;
};

/**
 * Pre-generate @p n requests so the timed loop measures the
 * calendar, not the generator. @p draw_size maps the stream's Rng
 * to the job's request size (ticks or bytes).
 */
template <typename DrawSize>
std::vector<Request>
makeStream(const StreamShape &shape, std::uint64_t n, DrawSize &&draw_size)
{
    Rng rng(shape.seed);
    std::vector<Request> reqs;
    reqs.reserve(n);
    Tick now = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        now += rng.nextBelow(2 * shape.meanGap + 1);
        Tick earliest;
        if (rng.nextBelow(100) < shape.latePct)
            earliest = now - std::min(now, rng.nextBelow(shape.skew + 1));
        else
            earliest = now + rng.nextBelow(shape.ahead + 1);
        earliest -= earliest % kClock;
        reqs.push_back({earliest, draw_size(rng)});
    }
    return reqs;
}

/**
 * Replay @p reqs through @p acquire (which books one request on
 * @p res and returns its start), recording the stream's shape and
 * a digest over the granted starts.
 */
template <typename Acquire>
RunResult
replay(const Resource &res, const std::vector<Request> &reqs,
       Acquire &&acquire)
{
    ResourceStreamStats s;
    std::uint64_t digest = 0xcbf29ce484222325ULL; // FNV-1a offset basis
    double t0 = threadCpuSeconds();
    for (const Request &req : reqs) {
        const Tick tail = res.nextFree();
        const std::uint64_t live = res.intervals();
        s.intervalSum += live;
        s.peakIntervals = std::max(s.peakIntervals, live);
        const Tick start = acquire(req);
        s.tailGrants += start >= tail;
        digest = (digest ^ start) * 0x100000001b3ULL; // FNV-1a prime
    }
    RunResult r;
    r.hostSeconds = threadCpuSeconds() - t0;
    s.acquires = res.acquisitions();
    // Keep 53 bits so the digest survives the stats block's doubles.
    s.grantDigest = digest & ((std::uint64_t(1) << 53) - 1);
    r.stats.resource = s;
    r.verified = true;
    return r;
}

RunResult
runResourceDram()
{
    const StreamShape shape{1, 14000, 80000, 300000, 20};
    auto reqs = makeStream(shape, benchIters(200000), [](Rng &rng) {
        constexpr Tick kGranule = 5000;
        return kGranule * (rng.nextBelow(10) == 0 ? 2 + rng.nextBelow(3)
                                                  : 1);
    });
    Resource res("dram");
    return replay(res, reqs, [&](const Request &req) {
        return res.acquire(req.earliest, req.size);
    });
}

RunResult
runChannelXbar()
{
    const StreamShape shape{2, 5000, 30000, 150000, 20};
    auto reqs = makeStream(shape, benchIters(200000), [](Rng &rng) {
        return std::uint64_t(rng.nextBelow(10) == 0
                                 ? 64 * (1 + rng.nextBelow(2))
                                 : 32);
    });
    ChannelResource ch("xbar", 16, kClock);
    return replay(ch, reqs, [&](const Request &req) {
        return ch.acquireTransfer(req.earliest, req.size);
    });
}

} // namespace

int
main(int argc, char **argv)
{
    parseBenchArgs(argc, argv);
    std::printf("Resource-calendar microbenchmark (acquires/sec, higher "
                "is better)\n\n");

    std::vector<SweepJob> jobs;
    jobs.emplace_back("resource_dram", "", SystemConfig{}, WorkloadParams{},
                      std::map<std::string, std::string>{
                          {"job", "resource_dram"}},
                      runResourceDram);
    jobs.emplace_back("channel_xbar", "", SystemConfig{}, WorkloadParams{},
                      std::map<std::string, std::string>{
                          {"job", "channel_xbar"}},
                      runChannelXbar);

    // Serial on purpose: acquires/sec is a latency measurement, and
    // concurrent jobs would steal cache and memory bandwidth from
    // each other.
    SweepResult res = runJobs("micro_fabric", std::move(jobs), 1);

    TextTable table({"job", "acquires", "host ms", "acquires/sec",
                     "tail grants", "mean live", "peak live"});
    for (const JobResult &jr : res.jobs()) {
        const ResourceStreamStats &s = jr.run.stats.resource;
        const double n = s.acquires ? double(s.acquires) : 1.0;
        table.addRow({jr.job.id,
                      fmt("%llu", (unsigned long long)s.acquires),
                      fmtF(jr.run.hostSeconds * 1e3, 2),
                      fmt("%.3g", jr.run.acquiresPerSec()),
                      fmtF(100.0 * double(s.tailGrants) / n, 1) + "%",
                      fmtF(double(s.intervalSum) / n, 0),
                      fmt("%llu", (unsigned long long)s.peakIntervals)});
    }
    std::printf("%s", table.format().c_str());
    return finishBench(res);
}
