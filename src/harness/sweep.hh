/**
 * @file
 * Declarative sweep engine: every table and figure of the paper is a
 * sweep over {workload x SystemConfig knobs}, and every point is an
 * independent, deterministic, single-threaded simulation — so the
 * configuration axis is embarrassingly parallel.
 *
 * A SweepSpec names the axes (cross-product) and/or lists explicit
 * points; expand() turns it into a flat list of independent jobs;
 * runSweep() runs the list on a worker pool of std::jthread
 * (default std::thread::hardware_concurrency, overridable with the
 * CMPMEM_JOBS environment variable or the @c jobs argument) and
 * collects a SweepResult that renders both the existing text tables
 * (via per-id lookup) and a machine-readable BENCH_<name>.json
 * artifact. Normalized figures divide by their baseline point only
 * after runSweep() returns, so no job waits for another.
 *
 * Determinism: results are stored by job index, not completion
 * order, and each simulation owns all of its mutable state (see the
 * audit note in harness/runner.cc), so for a fixed spec the
 * per-point simulated tick counts are bit-identical regardless of
 * worker count. tests/test_sweep.cc asserts this.
 */

#ifndef CMPMEM_HARNESS_SWEEP_HH
#define CMPMEM_HARNESS_SWEEP_HH

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "harness/runner.hh"
#include "system/config.hh"
#include "workloads/workload.hh"

namespace cmpmem
{

/** One fully-specified simulation point within a sweep. */
struct SweepJob
{
    SweepJob() = default;

    SweepJob(std::string id_, std::string workload_, SystemConfig cfg_,
             WorkloadParams params_ = {},
             std::map<std::string, std::string> tags_ = {},
             std::function<RunResult()> run_ = {})
        : id(std::move(id_)), workload(std::move(workload_)),
          cfg(cfg_), params(params_), tags(std::move(tags_)),
          run(std::move(run_))
    {
    }

    /** Unique id within the sweep ("fir/cores=4/model=CC"). */
    std::string id;

    /** Registry workload name; may be empty when @c run is set. */
    std::string workload;

    SystemConfig cfg;
    WorkloadParams params;

    /** Axis-point labels for reporting ("cores" -> "4"). */
    std::map<std::string, std::string> tags;

    /**
     * Custom simulation body for points that are not a registry
     * workload (e.g. the hybrid-ablation kernels). When empty, the
     * engine runs runWorkload(workload, cfg, params).
     */
    std::function<RunResult()> run;
};

/** Outcome of one job. */
struct JobResult
{
    SweepJob job;
    RunResult run;
    bool ran = false;  ///< completed without throwing
    std::string error; ///< exception text when !ran

    /**
     * Error taxonomy when !ran: a SimErrorKind name ("watchdog",
     * "deadlock", ...) or "exception" for anything else.
     */
    std::string errorKind;

    /**
     * Machine-state dump attached to the failure (SimError::
     * diagnostic()), e.g. the watchdog's pending-event / MSHR /
     * store-buffer report. Empty for plain exceptions.
     */
    std::string diagnostic;

    std::string log;   ///< warn()/inform() output captured from the run
};

/** One value of a named axis: a label plus a job mutation. */
struct AxisValue
{
    std::string label;
    std::function<void(SweepJob &)> apply;
};

/**
 * A declarative sweep: base config/params, a workload list, named
 * axes expanded as a cross-product, and/or explicit points.
 */
class SweepSpec
{
  public:
    explicit SweepSpec(std::string name);

    const std::string &name() const { return specName; }

    /** Base configuration cloned into every cross-product job. */
    SweepSpec &base(const SystemConfig &cfg);

    /** Base workload parameters cloned into every cross-product job. */
    SweepSpec &baseParams(const WorkloadParams &p);

    /** The workload axis (outermost loop of the cross-product). */
    SweepSpec &workloads(std::vector<std::string> names);

    /** Generic named axis. */
    SweepSpec &axis(std::string name, std::vector<AxisValue> values);

    /** Numeric axis over a SystemConfig knob. */
    SweepSpec &axis(std::string name, const std::vector<double> &values,
                    std::function<void(SystemConfig &, double)> set,
                    int label_precision = 1);

    /** Convenience axis over the two memory models. */
    SweepSpec &modelAxis(std::vector<MemModel> models = {MemModel::CC,
                                                         MemModel::STR});

    /**
     * Explicit point, run alongside the cross-product jobs. The
     * caller provides the id (fatal() at expand() if missing or
     * duplicated).
     */
    SweepSpec &point(SweepJob job);

    /**
     * Expand into the job list: the cross-product of workloads x
     * axes (ids "<workload>/<axis>=<label>/..."), then explicit
     * points. Deterministic order; runJobs() fatal()s on duplicate
     * ids.
     */
    std::vector<SweepJob> expand() const;

  private:
    struct Axis
    {
        std::string name;
        std::vector<AxisValue> values;
    };

    std::string specName;
    SystemConfig baseCfg;
    WorkloadParams baseprm;
    std::vector<std::string> workloadList;
    std::vector<Axis> axes;
    std::vector<SweepJob> points;
};

/** Structured results of a sweep, in job-list order. */
class SweepResult
{
  public:
    SweepResult(std::string name, std::vector<JobResult> results,
                double wall_seconds, int workers);

    const std::string &name() const { return sweepName; }
    const std::vector<JobResult> &jobs() const { return results; }

    /** Lookup by id; null when absent. */
    const JobResult *find(const std::string &id) const;

    /** Lookup by id; fatal()s when absent (bench formatting). */
    const JobResult &at(const std::string &id) const;

    /** Shorthand for at(id).run. */
    const RunResult &runOf(const std::string &id) const;

    bool allRan() const;
    bool allVerified() const;

    /** Sum of per-job host seconds (the serial-execution cost). */
    double serialSeconds() const;

    /** Wall-clock seconds of the pooled execution. */
    double wallSeconds() const { return wallSecs; }

    /** Serial-sum / wall-clock (the parallelism win). */
    double speedup() const;

    int workers() const { return nWorkers; }

    /** One-line aggregate: jobs, host time, wall time, speedup. */
    std::string summary() const;

    /** Full machine-readable artifact (see DESIGN.md for schema). */
    std::string toJson() const;

    /**
     * Write toJson() to "<dir>/BENCH_<name>.json" where dir is
     * CMPMEM_ARTIFACT_DIR or ".". @return the path written.
     */
    std::string writeArtifact() const;

  private:
    std::string sweepName;
    std::vector<JobResult> results;
    std::map<std::string, std::size_t> index;
    double wallSecs = 0;
    int nWorkers = 1;
};

/**
 * Expand @p spec and run its jobs on @p jobs workers (0 = resolve
 * with sweepWorkerCount()).
 */
SweepResult runSweep(const SweepSpec &spec, int jobs = 0);

/**
 * Run an already-expanded job list on @p jobs workers (0 = resolve
 * with sweepWorkerCount()). Each job's captured warn()/inform() text
 * is re-emitted to stderr, prefixed with its id, once the job ends.
 */
SweepResult runJobs(std::string name, std::vector<SweepJob> list,
                    int jobs = 0);

/**
 * Resolved worker count for @p requested (0 = CMPMEM_JOBS, then the
 * hardware default; a malformed CMPMEM_JOBS is fatal).
 */
int sweepWorkerCount(int requested);

/** Artifact path "<CMPMEM_ARTIFACT_DIR or .>/BENCH_<name>.json". */
std::string artifactPath(const std::string &name);

/**
 * The config-identity JSON object recorded per job in artifacts —
 * exactly the fields bench_compare diffs.
 */
std::string configIdentityJson(const SystemConfig &cfg);

} // namespace cmpmem

#endif // CMPMEM_HARNESS_SWEEP_HH
