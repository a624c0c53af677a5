/**
 * @file
 * The perf-regression gate: diff fresh BENCH_<name>.json sweep
 * artifacts against a committed baseline (DESIGN.md §14).
 *
 * Two classes of fields, two rules:
 *
 *  - Simulated results ("stats", "stats_digest", "energy", "config",
 *    "ran", "verified", job membership) must be bit-identical. They
 *    are deterministic functions of the configuration, so any drift
 *    is a correctness change that must be reviewed (and the baseline
 *    regenerated deliberately via scripts/check.sh
 *    --update-baselines).
 *
 *  - Host-time-derived fields ("host_seconds", "events_per_sec",
 *    "accesses_per_sec", "misses_per_sec", "acquires_per_sec",
 *    plus the sweep-level wall/serial/speedup aggregates) are
 *    excluded from identity — they vary run to run — but throughput
 *    is still guarded: the gate takes the median over the fresh
 *    repeats it is given and flags any job whose per-second rate
 *    dropped more than the tolerance
 *    (default 10%) below baseline. Feeding 3+ repeats is the noise
 *    guard; a single outlier cannot move the median.
 *
 * Artifacts record the two environment knobs that legitimately
 * change simulated stats ("scale" = CMPMEM_SCALE, "bench_scale_div"
 * = CMPMEM_BENCH_SCALE); comparing across different sizings is
 * refused outright rather than reported as a regression.
 */

#ifndef CMPMEM_HARNESS_BENCH_COMPARE_HH
#define CMPMEM_HARNESS_BENCH_COMPARE_HH

#include <string>
#include <vector>

#include "harness/json.hh"

namespace cmpmem
{

/** How host-throughput regressions affect the verdict/exit code. */
enum class HostMode
{
    Strict, ///< a flagged regression fails the gate (exit 3)
    Warn,   ///< printed but non-fatal (noisy shared machines, CI)
    Off,    ///< host metrics not checked at all
};

/** Parse "strict"/"warn"/"off"; anything else is a Config error. */
HostMode parseHostMode(const std::string &s);

struct CompareOptions
{
    /** Relative throughput drop that flags a host regression. */
    double hostTolerance = 0.10;
    HostMode hostMode = HostMode::Strict;
};

/** One mismatch, locatable by job and metric. */
struct CompareIssue
{
    std::string jobId;
    std::string metric; ///< e.g. "stats.l2.misses", "events_per_sec"
    std::string detail; ///< human-readable "baseline X, fresh Y"
};

struct CompareReport
{
    std::string sweep;
    std::size_t repeats = 0;  ///< fresh artifacts compared
    std::size_t jobsCompared = 0;
    std::vector<CompareIssue> identity; ///< bit-identity violations
    std::vector<CompareIssue> host;     ///< median throughput drops
    std::vector<std::string> notes;     ///< non-fatal observations
    HostMode hostMode = HostMode::Strict;
    double hostTolerance = 0.10;

    bool identityClean() const { return identity.empty(); }
    bool hostClean() const { return host.empty(); }

    /** 0 clean; 1 identity mismatch; 3 host regression (strict). */
    int exitCode() const;

    /** Multi-line human-readable report (one line per issue). */
    std::string format() const;

    /** Machine-readable summary for embedding into an artifact. */
    JsonValue toJson() const;
};

/**
 * Diff @p fresh repeats of one sweep against @p baseline. All
 * artifacts must be the same sweep at the same scale/divisor
 * (SimErrorKind::Config otherwise); at least one fresh repeat is
 * required. Identity must hold on every repeat; host metrics are
 * compared median-vs-baseline.
 */
CompareReport compareArtifacts(const JsonValue &baseline,
                               const std::vector<JsonValue> &fresh,
                               const CompareOptions &opts = {});

/**
 * Write the report's summary into artifact @p path as a top-level
 * "compare" member (replacing any previous one), preserving the rest
 * of the document.
 */
void annotateArtifact(const std::string &path,
                      const CompareReport &report);

} // namespace cmpmem

#endif // CMPMEM_HARNESS_BENCH_COMPARE_HH
