/**
 * @file
 * Process-sandboxed job execution and the write-ahead sweep journal
 * (DESIGN.md §16).
 *
 * The sweep engine's failure isolation (SimError per job) only
 * covers failures that *throw*. A SIGSEGV, sanitizer abort, OOM
 * kill, or a host loop that wedges without simulating takes down the
 * whole process — every sibling's finished work with it. The
 * supervisor closes that gap with a process boundary per job:
 *
 *   parent (pool worker)                child (fork)
 *   --------------------                ------------
 *   fork(), close write end            close read end
 *   poll() read end with a             runJobInProcess(job)
 *     hard wall-clock deadline           - streams captured log
 *   on deadline: SIGKILL                   lines as 'L' frames
 *   read 'L'/'R' frames to EOF           - serializes the full
 *   waitpid(), classify:                   JobResult as one 'R'
 *     result frame  -> decoded result      frame (exact %.17g
 *     WIFSIGNALED   -> Crash + signal      double round-trip)
 *     nonzero exit  -> Crash             _exit(0)
 *     deadline kill -> Timeout
 *   crash/timeout: re-dispatch up to
 *     SweepOptions::maxRetries with
 *     bounded linear backoff
 *
 * Because the child reports raw RunStats fields (not a rendered
 * table), a sandboxed job's artifact entry — stats, digest, energy —
 * is bit-identical to in-process execution; tests/test_supervisor.cc
 * pins serial == parallel == isolated.
 *
 * The journal is the durability half: one fsynced JSONL record per
 * completed job, keyed by job id + config identity + stats digest.
 * A sweep killed at any point (including mid-write: a torn trailing
 * line is discarded) resumes by merging journaled completions and
 * re-running only the rest, producing the exact artifact an
 * uninterrupted run would have. This fork/classify/re-dispatch/
 * journal shape is deliberately the worker half of the ROADMAP's
 * distributed-sweep coordinator.
 */

#ifndef CMPMEM_HARNESS_SUPERVISOR_HH
#define CMPMEM_HARNESS_SUPERVISOR_HH

#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "harness/json.hh"
#include "harness/sweep.hh"

namespace cmpmem
{

/** Resolve SweepOptions::isolate (Env reads CMPMEM_ISOLATE). */
bool isolationEnabled(const SweepOptions &opts);

/**
 * Run one job in a forked, supervised child, re-dispatching on
 * crash/timeout per opts.maxRetries. Falls back to in-process
 * execution (with a warning) if fork/pipe themselves fail. Never
 * throws; sandbox death is recorded in the returned JobResult
 * (errorKind "crash"/"timeout", signal name, attempts).
 */
JobResult runJobSupervised(const SweepJob &job, const SweepOptions &opts);

/**
 * Serialize a JobResult — raw RunStats (scalars, per-core, fabric
 * counters), energy, outcome, and optionally the captured log
 * — as a JSON object that jobResultFromJson() restores bit-exactly.
 * Shared by the child->parent result pipe and the journal.
 */
JsonValue jobResultToJson(const JobResult &jr, bool include_log);

/**
 * Restore the codec fields of @p jr (everything except jr.job,
 * which the caller owns) from @p doc. Missing or mistyped members
 * throw SimErrorKind::Config.
 */
void jobResultFromJson(const JsonValue &doc, JobResult &jr);

/**
 * Append-only write-ahead journal of completed jobs.
 *
 * File layout (JSONL): a header line carrying the sweep identity
 * {journal, schema, scale, bench_scale_div}, then one record per
 * completed job {id, config, stats_digest, result}. Each record is
 * written under a lock and fsynced before record() returns, so a
 * record either exists completely or is a torn trailing line the
 * loader discards.
 */
class SweepJournal
{
  public:
    /**
     * Open @p path for appending (@p fresh truncates first) and
     * write the header if the file is empty. An unopenable path
     * disables journaling with a warning rather than failing the
     * sweep (the journal is an optimization for re-runs, not a
     * correctness requirement of this run).
     */
    SweepJournal(const std::string &path, const std::string &sweep_name,
                 bool fresh);
    ~SweepJournal();

    SweepJournal(const SweepJournal &) = delete;
    SweepJournal &operator=(const SweepJournal &) = delete;

    bool ok() const { return fd >= 0; }

    /** Append one fsynced record for @p jr (thread-safe). */
    void record(const JobResult &jr);

    /**
     * Whether @p jr is worth journaling: completed runs and
     * deterministic SimError failures (which would fail identically
     * on re-run) are; crashes and timeouts are not — resume must
     * re-attempt those.
     */
    static bool eligible(const JobResult &jr);

    /**
     * Parse @p path for resume: journaled completions for jobs in
     * @p jobs, keyed by id. Duplicate ids take the last complete
     * record; a torn/corrupt trailing line is discarded with a
     * warning (that job re-runs); a missing or empty journal returns
     * no entries. Refuses with SimErrorKind::Config when the header
     * identity (sweep name, schema, scale, bench_scale_div) or a
     * record's config identity does not match the spec — a changed
     * sweep definition must not silently merge stale results.
     */
    static std::map<std::string, JobResult>
    load(const std::string &path, const std::string &sweep_name,
         const std::vector<SweepJob> &jobs);

  private:
    void writeLine(const std::string &line);

    std::mutex m;
    std::string path_;
    int fd = -1;
};

} // namespace cmpmem

#endif // CMPMEM_HARNESS_SUPERVISOR_HH
