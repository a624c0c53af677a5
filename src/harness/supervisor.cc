#include "harness/supervisor.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "harness/experiment.hh"
#include "sim/log.hh"
#include "sim/sim_error.hh"
#include "system/cmp_system.hh"

namespace cmpmem
{

namespace
{

// ---------------------------------------------------------------- //
// JobResult codec                                                  //
//                                                                  //
// The codec carries the *raw* RunStats members, not the rendered   //
// StatSet: bench text tables read raw fields (perCore breakdowns,  //
// miss counters), and the digest is recomputed from the restored   //
// struct — so a lossy codec would be caught, not papered over.     //
// One visitor per struct keeps the two directions in lockstep: a   //
// new counter added to a struct needs exactly one new line here.   //
// ---------------------------------------------------------------- //

template <typename CS, typename F>
void
visitCoreStats(CS &c, F &&f)
{
    f("useful_ticks", c.usefulTicks);
    f("sync_ticks", c.syncTicks);
    f("load_stall_ticks", c.loadStallTicks);
    f("store_stall_ticks", c.storeStallTicks);
    f("bundles", c.bundles);
    f("fp_bundles", c.fpBundles);
    f("loads", c.loads);
    f("stores", c.stores);
    f("atomics", c.atomics);
    f("ls_reads", c.lsReads);
    f("ls_writes", c.lsWrites);
    f("dma_commands", c.dmaCommands);
    f("barriers", c.barriers);
}

template <typename L1, typename F>
void
visitL1Counters(L1 &l, F &&f)
{
    f("load_hits", l.loadHits);
    f("load_misses", l.loadMisses);
    f("store_hits", l.storeHits);
    f("store_misses", l.storeMisses);
    f("store_merged", l.storeMerged);
    f("pfs_stores", l.pfsStores);
    f("atomic_ops", l.atomicOps);
    f("writebacks", l.writebacks);
    f("fills", l.fills);
    f("snoops_received", l.snoopsReceived);
    f("invalidations_received", l.invalidationsReceived);
    f("supplies_provided", l.suppliesProvided);
    f("prefetches_issued", l.prefetchesIssued);
    f("prefetches_useful", l.prefetchesUseful);
    f("fastpath_hits", l.fastpathHits);
}

template <typename FC, typename F>
void
visitFabricCounters(FC &fc, F &&f)
{
    f("cluster_requests", fc.clusterRequests);
    f("global_requests", fc.globalRequests);
    f("snoop_probes", fc.snoopProbes);
    f("local_supplies", fc.localSupplies);
    f("remote_supplies", fc.remoteSupplies);
    f("upgrades", fc.upgrades);
    f("writebacks", fc.writebacks);
    f("uncore_reads", fc.uncoreReads);
    f("uncore_writes", fc.uncoreWrites);
    f("remote_atomics", fc.remoteAtomics);
}

template <typename RS, typename F>
void
visitRunStatsScalars(RS &s, F &&f)
{
    f("exec_ticks", s.execTicks);
    f("icache_fetches", s.icacheFetches);
    f("icache_misses", s.icacheMisses);
    f("ls_reads", s.lsReads);
    f("ls_writes", s.lsWrites);
    f("dma_accesses", s.dmaAccesses);
    f("dma_bytes_read", s.dmaBytesRead);
    f("dma_bytes_written", s.dmaBytesWritten);
    f("bus_bytes", s.busBytes);
    f("xbar_bytes", s.xbarBytes);
    f("l2_hits", s.l2Hits);
    f("l2_misses", s.l2Misses);
    f("l2_refills_avoided", s.l2RefillsAvoided);
    f("dram_read_bytes", s.dramReadBytes);
    f("dram_write_bytes", s.dramWriteBytes);
    f("dram_busy_ticks", s.dramBusyTicks);
    f("dram_row_hits", s.dramRowHits);
    f("dram_row_misses", s.dramRowMisses);
    f("checker_violations", s.checkerViolations);
    f("checker_events", s.checkerEvents);
    f("events_executed", s.eventsExecuted);
    f("peak_pending_events", s.peakPendingEvents);
    f("calendar_overflows", s.calendarOverflows);
    f("resource_acquires", s.resource.acquires);
    f("resource_tail_grants", s.resource.tailGrants);
    f("resource_interval_sum", s.resource.intervalSum);
    f("resource_peak_intervals", s.resource.peakIntervals);
    f("resource_grant_digest", s.resource.grantDigest);
}

template <typename EB, typename F>
void
visitEnergy(EB &e, F &&f)
{
    f("core_mj", e.coreMj);
    f("icache_mj", e.icacheMj);
    f("dstore_mj", e.dstoreMj);
    f("network_mj", e.networkMj);
    f("l2_mj", e.l2Mj);
    f("dram_mj", e.dramMj);
}

/** Visitor writing each field as a "%.17g" JSON number member. */
struct FieldWriter
{
    JsonValue &obj;

    template <typename T>
    void
    operator()(const char *name, const T &v)
    {
        obj.set(name, JsonValue::makeNumber(double(v)));
    }
};

/** Visitor restoring each field; missing members are Config errors. */
struct FieldReader
{
    const JsonValue &obj;

    template <typename T>
    void
    operator()(const char *name, T &v)
    {
        v = T(obj.at(name).asNumber());
    }
};

std::string
jsonStringOr(const JsonValue &doc, const char *key, const char *dflt)
{
    const JsonValue *v = doc.find(key);
    return v ? v->asString() : std::string(dflt);
}

// ---------------------------------------------------------------- //
// Pipe protocol                                                    //
//                                                                  //
// Length-prefixed frames: "<kind> <payload-bytes>\n<payload>".     //
// 'L' frames stream captured log lines as the job produces them;   //
// one final 'R' frame carries the serialized JobResult. A child    //
// killed mid-frame leaves a prefix the parser simply never         //
// completes — the partial frame is dropped, everything before it   //
// survives.                                                        //
// ---------------------------------------------------------------- //

bool
writeAll(int fd, const char *p, std::size_t n)
{
    while (n > 0) {
        ssize_t w = ::write(fd, p, n);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false; // parent gone (EPIPE) or pipe broken
        }
        p += w;
        n -= std::size_t(w);
    }
    return true;
}

void
writeFrame(int fd, char kind, const std::string &payload)
{
    std::string buf;
    buf += kind;
    buf += ' ';
    buf += std::to_string(payload.size());
    buf += '\n';
    buf += payload;
    (void)writeAll(fd, buf.data(), buf.size());
}

struct FrameParser
{
    std::string buf;

    /** Extract the next complete frame; false when none is buffered. */
    bool
    next(char &kind, std::string &payload)
    {
        const std::size_t nl = buf.find('\n');
        if (nl == std::string::npos)
            return false;
        if (nl < 3 || buf[1] != ' ')
            return false; // malformed header: stop consuming
        char *end = nullptr;
        const unsigned long long len =
            std::strtoull(buf.c_str() + 2, &end, 10);
        if (!end || *end != '\n')
            return false;
        if (buf.size() < nl + 1 + len)
            return false; // payload still in flight
        kind = buf[0];
        payload = buf.substr(nl + 1, len);
        buf.erase(0, nl + 1 + len);
        return true;
    }
};

std::string
signalName(int sig)
{
    switch (sig) {
      case SIGSEGV: return "SIGSEGV";
      case SIGKILL: return "SIGKILL";
      case SIGABRT: return "SIGABRT";
      case SIGBUS: return "SIGBUS";
      case SIGILL: return "SIGILL";
      case SIGFPE: return "SIGFPE";
      case SIGTERM: return "SIGTERM";
      case SIGINT: return "SIGINT";
    }
    return strformat("signal %d", sig);
}

/** Child body after fork: run the job, stream log + result, _exit. */
[[noreturn]] void
childRun(const SweepJob &job, const SweepOptions &opts, int fd)
{
    // The pipe is the only channel back; a vanished parent must not
    // kill us with SIGPIPE mid-write (writeAll already stops on the
    // resulting EPIPE).
    std::signal(SIGPIPE, SIG_IGN);
    JobResult jr =
        runJobInProcess(job, opts, [fd](const std::string &line) {
            writeFrame(fd, 'L', line);
        });
    writeFrame(fd, 'R', jobResultToJson(jr, false).dumpCompact());
    ::close(fd);
    // _exit, not exit: the forked image shares atexit handlers and
    // static destructors with the parent; running them here would
    // corrupt shared artifacts (flushed stdio, temp files).
    ::_exit(0);
}

/** One fork/supervise cycle; retry policy lives in the caller. */
JobResult
superviseOnce(const SweepJob &job, const SweepOptions &opts)
{
    int fds[2];
    if (::pipe(fds) != 0) {
        warn("sweep job '%s': pipe() failed (%s); running in-process",
             job.id.c_str(), std::strerror(errno));
        return runJobInProcess(job, opts);
    }

    pid_t pid;
    {
        // Hold the log mutex across fork(): a child created while
        // another pool thread owns it would inherit the lock forever
        // and deadlock on its first fatal()/emitRaw(). Flushing
        // stdio under the same lock keeps buffered output from being
        // emitted twice (once per process).
        std::lock_guard<std::mutex> lock(logMutex());
        std::fflush(stdout);
        std::fflush(stderr);
        pid = ::fork();
    }
    if (pid < 0) {
        warn("sweep job '%s': fork() failed (%s); running in-process",
             job.id.c_str(), std::strerror(errno));
        ::close(fds[0]);
        ::close(fds[1]);
        return runJobInProcess(job, opts);
    }
    if (pid == 0) {
        ::close(fds[0]);
        childRun(job, opts, fds[1]); // does not return
    }
    ::close(fds[1]);

    using clock = std::chrono::steady_clock;
    const bool hasDeadline = opts.jobDeadlineSeconds > 0;
    const clock::time_point deadline =
        clock::now() + std::chrono::duration_cast<clock::duration>(
                           std::chrono::duration<double>(
                               opts.jobDeadlineSeconds));

    FrameParser parser;
    std::string log, resultJson;
    bool sawResult = false;
    bool killedOnDeadline = false;
    char chunk[4096];
    for (;;) {
        int timeout_ms = -1;
        if (hasDeadline && !killedOnDeadline) {
            const auto left = deadline - clock::now();
            const auto ms =
                std::chrono::duration_cast<std::chrono::milliseconds>(
                    left)
                    .count();
            timeout_ms = int(std::clamp<long long>(ms, 0, 60 * 60 * 1000));
        }
        struct pollfd pfd = {fds[0], POLLIN, 0};
        const int pr = ::poll(&pfd, 1, timeout_ms);
        if (pr < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (pr == 0) {
            // Deadline expired with the child still holding the
            // pipe: hard-kill it, then keep reading — frames already
            // in the pipe (the partial log) are still ours.
            ::kill(pid, SIGKILL);
            killedOnDeadline = true;
            continue;
        }
        const ssize_t n = ::read(fds[0], chunk, sizeof(chunk));
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (n == 0)
            break; // EOF: the child exited (or was killed)
        parser.buf.append(chunk, std::size_t(n));
        char kind = 0;
        std::string payload;
        while (parser.next(kind, payload)) {
            if (kind == 'L')
                log += payload;
            else if (kind == 'R') {
                resultJson = std::move(payload);
                sawResult = true;
            }
        }
    }
    ::close(fds[0]);

    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }

    JobResult jr;
    jr.job = job;
    jr.log = log;

    if (sawResult) {
        // A result that raced a deadline kill still counts: the job
        // finished its work and reported before the SIGKILL landed.
        try {
            jobResultFromJson(JsonValue::parse(resultJson), jr);
            // The codec intentionally omits the config (the artifact
            // renders job.cfg); restore it for table code reading
            // stats.config off the merged result.
            jr.run.stats.config = job.cfg;
            jr.log = log; // 'L' frames are authoritative
            return jr;
        } catch (const SimError &e) {
            jr = JobResult();
            jr.job = job;
            jr.log = log;
            jr.errorKind = to_string(SimErrorKind::Crash);
            jr.error = strformat(
                "child result frame did not decode (%s)", e.what());
            return jr;
        }
    }

    if (killedOnDeadline) {
        jr.errorKind = to_string(SimErrorKind::Timeout);
        jr.signal = "SIGKILL";
        jr.error = strformat(
            "job exceeded the %.3g s wall-clock deadline and was "
            "killed",
            opts.jobDeadlineSeconds);
    } else if (WIFSIGNALED(status)) {
        const int sig = WTERMSIG(status);
        jr.errorKind = to_string(SimErrorKind::Crash);
        jr.signal = signalName(sig);
        jr.error = strformat("child killed by %s", jr.signal.c_str());
    } else if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
        jr.errorKind = to_string(SimErrorKind::Crash);
        jr.error = strformat(
            "child exited with status %d before reporting a result",
            WEXITSTATUS(status));
    } else {
        jr.errorKind = to_string(SimErrorKind::Crash);
        jr.error = "child exited without reporting a result";
    }
    return jr;
}

bool
sandboxDied(const JobResult &jr)
{
    return jr.errorKind == to_string(SimErrorKind::Crash) ||
           jr.errorKind == to_string(SimErrorKind::Timeout);
}

} // namespace

bool
isolationEnabled(const SweepOptions &opts)
{
    switch (opts.isolate) {
      case SweepIsolate::On: return true;
      case SweepIsolate::Off: return false;
      case SweepIsolate::Env: break;
    }
    const char *env = std::getenv("CMPMEM_ISOLATE");
    return env && *env && std::strcmp(env, "0") != 0;
}

JobResult
runJobSupervised(const SweepJob &job, const SweepOptions &opts)
{
    const int maxAttempts = 1 + std::max(0, opts.maxRetries);
    JobResult jr;
    for (int attempt = 1; attempt <= maxAttempts; ++attempt) {
        if (attempt > 1) {
            const double backoff =
                std::min(opts.retryBackoffSeconds * (attempt - 1),
                         opts.retryBackoffMaxSeconds);
            if (backoff > 0) {
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(backoff));
            }
        }
        jr = superviseOnce(job, opts);
        jr.attempts = attempt;
        // Only sandbox death is worth retrying: a deterministic
        // SimError (bad config, watchdog, checker) would fail the
        // same way on every attempt.
        if (!sandboxDied(jr))
            break;
        if (attempt < maxAttempts) {
            warn("sweep job '%s': %s (%s); re-dispatching, attempt "
                 "%d of %d",
                 job.id.c_str(), jr.errorKind.c_str(),
                 jr.error.c_str(), attempt + 1, maxAttempts);
        }
    }
    return jr;
}

JsonValue
jobResultToJson(const JobResult &jr, bool include_log)
{
    JsonValue doc = JsonValue::makeObject();
    doc.set("ran", JsonValue::makeBool(jr.ran));
    doc.set("verified", JsonValue::makeBool(jr.run.verified));
    doc.set("attempts", JsonValue::makeNumber(jr.attempts));
    doc.set("host_seconds", JsonValue::makeNumber(jr.run.hostSeconds));
    doc.set("workload", JsonValue::makeString(jr.run.stats.workload));
    doc.set("variant", JsonValue::makeString(jr.run.stats.variant));
    doc.set("error", JsonValue::makeString(jr.error));
    doc.set("error_kind", JsonValue::makeString(jr.errorKind));
    doc.set("signal", JsonValue::makeString(jr.signal));
    doc.set("diagnostic", JsonValue::makeString(jr.diagnostic));

    JsonValue stats = JsonValue::makeObject();
    FieldWriter sw{stats};
    visitRunStatsScalars(jr.run.stats, sw);

    JsonValue coreTotal = JsonValue::makeObject();
    FieldWriter cw{coreTotal};
    visitCoreStats(jr.run.stats.coreTotal, cw);
    stats.set("core_total", std::move(coreTotal));

    JsonValue perCore = JsonValue::makeArray();
    for (const auto &cs : jr.run.stats.perCore) {
        JsonValue one = JsonValue::makeObject();
        FieldWriter w{one};
        visitCoreStats(cs, w);
        perCore.append(std::move(one));
    }
    stats.set("per_core", std::move(perCore));

    JsonValue l1 = JsonValue::makeObject();
    FieldWriter lw{l1};
    visitL1Counters(jr.run.stats.l1Total, lw);
    stats.set("l1_total", std::move(l1));

    JsonValue fabric = JsonValue::makeObject();
    FieldWriter fw{fabric};
    visitFabricCounters(jr.run.stats.fabric, fw);
    stats.set("fabric", std::move(fabric));

    doc.set("stats", std::move(stats));

    JsonValue energy = JsonValue::makeObject();
    FieldWriter ew{energy};
    visitEnergy(jr.run.energy, ew);
    doc.set("energy", std::move(energy));

    doc.set("stats_digest",
            JsonValue::makeString(jr.run.stats.toStatSet().digest()));
    if (include_log)
        doc.set("log", JsonValue::makeString(jr.log));
    return doc;
}

void
jobResultFromJson(const JsonValue &doc, JobResult &jr)
{
    jr.run = RunResult();
    jr.ran = doc.at("ran").asBool();
    jr.run.verified = doc.at("verified").asBool();
    jr.attempts = int(doc.at("attempts").asNumber());
    jr.run.hostSeconds = doc.at("host_seconds").asNumber();
    jr.run.stats.workload = doc.at("workload").asString();
    jr.run.stats.variant = doc.at("variant").asString();
    jr.error = jsonStringOr(doc, "error", "");
    jr.errorKind = jsonStringOr(doc, "error_kind", "");
    jr.signal = jsonStringOr(doc, "signal", "");
    jr.diagnostic = jsonStringOr(doc, "diagnostic", "");
    jr.log = jsonStringOr(doc, "log", "");

    const JsonValue &stats = doc.at("stats");
    FieldReader sr{stats};
    visitRunStatsScalars(jr.run.stats, sr);

    FieldReader cr{stats.at("core_total")};
    visitCoreStats(jr.run.stats.coreTotal, cr);

    jr.run.stats.perCore.clear();
    for (const JsonValue &one : stats.at("per_core").items()) {
        CoreStats cs;
        FieldReader r{one};
        visitCoreStats(cs, r);
        jr.run.stats.perCore.push_back(cs);
    }

    FieldReader lr{stats.at("l1_total")};
    visitL1Counters(jr.run.stats.l1Total, lr);

    FieldReader fr{stats.at("fabric")};
    visitFabricCounters(jr.run.stats.fabric, fr);

    FieldReader er{doc.at("energy")};
    visitEnergy(jr.run.energy, er);
}

// ---------------------------------------------------------------- //
// SweepJournal                                                     //
// ---------------------------------------------------------------- //

namespace
{

JsonValue
journalHeader(const std::string &sweep_name)
{
    JsonValue hdr = JsonValue::makeObject();
    hdr.set("journal", JsonValue::makeString(sweep_name));
    hdr.set("schema", JsonValue::makeNumber(2));
    // The same sizing identity the artifact records: a journal
    // written at one scale must not seed a resume at another.
    hdr.set("scale", JsonValue::makeNumber(benchScale()));
    hdr.set("bench_scale_div",
            JsonValue::makeNumber(double(benchScaleDivisor())));
    return hdr;
}

} // namespace

SweepJournal::SweepJournal(const std::string &path,
                           const std::string &sweep_name, bool fresh)
    : path_(path)
{
    int flags = O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC;
    if (fresh)
        flags |= O_TRUNC;
    fd = ::open(path.c_str(), flags, 0644);
    if (fd < 0) {
        warn("cannot open sweep journal %s: %s (journaling disabled "
             "for this run)",
             path.c_str(), std::strerror(errno));
        return;
    }
    struct stat st;
    const bool empty = ::fstat(fd, &st) == 0 && st.st_size == 0;
    if (empty)
        writeLine(journalHeader(sweep_name).dumpCompact());
}

SweepJournal::~SweepJournal()
{
    if (fd >= 0)
        ::close(fd);
}

void
SweepJournal::writeLine(const std::string &line)
{
    std::string out = line;
    out += '\n';
    if (!writeAll(fd, out.data(), out.size())) {
        warn("sweep journal %s: write failed (%s); journaling "
             "disabled for the rest of the run",
             path_.c_str(), std::strerror(errno));
        ::close(fd);
        fd = -1;
        return;
    }
    // The write-ahead property: a record is durable before the
    // sweep moves on, so a kill at any instant leaves at most one
    // torn trailing line (which load() discards).
    ::fsync(fd);
}

bool
SweepJournal::eligible(const JobResult &jr)
{
    // Crashes and timeouts are exactly what resume must re-attempt;
    // completed runs and deterministic failures are settled.
    return !sandboxDied(jr);
}

void
SweepJournal::record(const JobResult &jr)
{
    JsonValue rec = JsonValue::makeObject();
    rec.set("id", JsonValue::makeString(jr.job.id));
    rec.set("config", JsonValue::parse(configIdentityJson(jr.job.cfg)));
    rec.set("stats_digest",
            JsonValue::makeString(jr.run.stats.toStatSet().digest()));
    rec.set("result", jobResultToJson(jr, true));
    const std::string line = rec.dumpCompact();
    std::lock_guard<std::mutex> lock(m);
    if (fd < 0)
        return;
    writeLine(line);
}

std::map<std::string, JobResult>
SweepJournal::load(const std::string &path,
                   const std::string &sweep_name,
                   const std::vector<SweepJob> &jobs)
{
    std::map<std::string, JobResult> out;

    std::ifstream ifs(path, std::ios::binary);
    if (!ifs) {
        warn("resume: no journal at %s; running the full sweep",
             path.c_str());
        return out;
    }
    std::string text((std::istreambuf_iterator<char>(ifs)),
                     std::istreambuf_iterator<char>());
    if (text.empty()) {
        warn("resume: journal %s is empty; running the full sweep",
             path.c_str());
        return out;
    }

    // Split into lines; a file not ending in '\n' has a torn tail
    // (the process died mid-record).
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < text.size()) {
        std::size_t nl = text.find('\n', start);
        if (nl == std::string::npos) {
            lines.push_back(text.substr(start));
            break;
        }
        lines.push_back(text.substr(start, nl - start));
        start = nl + 1;
    }
    const bool endsComplete = !text.empty() && text.back() == '\n';

    // Header: identity of the sweep this journal belongs to. A torn
    // or unparseable header means no usable records at all.
    JsonValue hdr;
    try {
        if (lines.size() == 1 && !endsComplete)
            throw SimError(SimErrorKind::Config, "torn header line");
        hdr = JsonValue::parse(lines[0]);
    } catch (const SimError &) {
        warn("resume: journal %s has an unreadable header; running "
             "the full sweep",
             path.c_str());
        return out;
    }
    if (hdr.at("journal").asString() != sweep_name) {
        throwSimError(SimErrorKind::Config,
                      "refusing --resume: journal %s belongs to sweep "
                      "'%s', not '%s' — delete it or rerun without "
                      "--resume",
                      path.c_str(), hdr.at("journal").asString().c_str(),
                      sweep_name.c_str());
    }
    if (int(hdr.at("schema").asNumber()) != 2) {
        throwSimError(SimErrorKind::Config,
                      "refusing --resume: journal %s has schema %d, "
                      "expected 2",
                      path.c_str(), int(hdr.at("schema").asNumber()));
    }
    if (int(hdr.at("scale").asNumber()) != benchScale() ||
        std::uint64_t(hdr.at("bench_scale_div").asNumber()) !=
            benchScaleDivisor()) {
        throwSimError(
            SimErrorKind::Config,
            "refusing --resume: journal %s was written at scale=%d/"
            "div=%d but this run is scale=%d/div=%llu — results "
            "would not be comparable",
            path.c_str(), int(hdr.at("scale").asNumber()),
            int(hdr.at("bench_scale_div").asNumber()), benchScale(),
            (unsigned long long)benchScaleDivisor());
    }

    std::map<std::string, const SweepJob *> byId;
    for (const SweepJob &job : jobs)
        byId.emplace(job.id, &job);

    for (std::size_t i = 1; i < lines.size(); ++i) {
        const bool isLast = i + 1 == lines.size();
        if (isLast && !endsComplete && lines[i].empty())
            break;

        std::string id;
        JobResult jr;
        std::string recordedDigest;
        JsonValue recConfig;
        try {
            JsonValue rec = JsonValue::parse(lines[i]);
            id = rec.at("id").asString();
            recordedDigest = rec.at("stats_digest").asString();
            recConfig = rec.at("config");
            jobResultFromJson(rec.at("result"), jr);
        } catch (const SimError &) {
            // Shape/parse damage: tolerable only as the torn tail of
            // a killed run — anywhere else the file is corrupt.
            if (isLast) {
                warn("resume: discarding torn trailing record in %s "
                     "(the interrupted job will re-run)",
                     path.c_str());
                break;
            }
            throwSimError(SimErrorKind::Config,
                          "journal %s: corrupt record on line %zu — "
                          "delete the journal or rerun without "
                          "--resume",
                          path.c_str(), i + 1);
        }

        auto it = byId.find(id);
        if (it == byId.end()) {
            warn("resume: journal record for unknown job '%s' "
                 "ignored (sweep definition changed?)",
                 id.c_str());
            continue;
        }

        // Config identity must match the spec exactly — these are
        // the same fields bench_compare refuses to diff across.
        const std::string want =
            JsonValue::parse(configIdentityJson(it->second->cfg))
                .dumpCompact();
        if (recConfig.dumpCompact() != want) {
            throwSimError(
                SimErrorKind::Config,
                "refusing --resume: journal %s config identity for "
                "job '%s' does not match the sweep spec (the sweep "
                "definition changed) — delete the journal or rerun "
                "without --resume",
                path.c_str(), id.c_str());
        }

        // Integrity: the digest recomputed from the decoded stats
        // must equal the recorded key, or the record is damaged.
        if (jr.run.stats.toStatSet().digest() != recordedDigest) {
            if (isLast) {
                warn("resume: discarding trailing record with a "
                     "stats-digest mismatch in %s",
                     path.c_str());
                break;
            }
            throwSimError(SimErrorKind::Config,
                          "journal %s: stats digest mismatch on line "
                          "%zu — the journal is corrupt",
                          path.c_str(), i + 1);
        }

        jr.job = *it->second;
        // Merged without re-running: attempts = 0 distinguishes a
        // journal merge from a fresh single-attempt execution.
        jr.attempts = 0;
        out[id] = std::move(jr); // duplicates: last complete wins
    }
    return out;
}

} // namespace cmpmem
