/**
 * @file
 * Shared helpers for the reproduction benches: canonical
 * configurations (Table 2 defaults with one knob turned) and the
 * normalized execution-time breakdown of Figure 2.
 */

#ifndef CMPMEM_HARNESS_EXPERIMENT_HH
#define CMPMEM_HARNESS_EXPERIMENT_HH

#include <cstdint>
#include <string>

#include "harness/runner.hh"
#include "harness/sweep.hh"
#include "system/config.hh"

namespace cmpmem
{

/**
 * A Table 2 configuration with the usual experiment knobs. Also
 * applies any process-wide bench overrides recorded by
 * parseBenchArgs() (the watchdog budget).
 */
SystemConfig makeConfig(int cores, MemModel model, double ghz = 0.8,
                        double dram_gbps = 3.2);

/**
 * Parse the common bench command-line flags and record them as
 * process-wide overrides that makeConfig() folds into every
 * configuration it hands out:
 *
 *   --watchdog-ticks=N   guard every run with an N-simulated-tick
 *                        liveness budget
 *
 * Unknown arguments and malformed values (a sign, trailing text, an
 * empty or out-of-range number) are fatal, so typos don't silently
 * run the default experiment or turn the watchdog off. It also reads
 * CMPMEM_SCALE, CMPMEM_BENCH_SCALE and CMPMEM_JOBS, so a malformed
 * value there is fatal before any output. Call it first thing in
 * main().
 */
void parseBenchArgs(int argc, char **argv);

/**
 * Strict parsers for command-line and environment values, shared by
 * parseBenchArgs(), the CMPMEM_* environment readers and cmpsim.
 * Each accepts the whole string or nothing: an empty value, a sign,
 * trailing text and overflow all return false and leave @p out
 * untouched.
 */

/** A decimal whole number no larger than @p max. */
bool parseCount(const char *s, unsigned long long max,
                unsigned long long &out);

/** A finite non-negative decimal number ("3.2", ".5", "1e3"). */
bool parseNonNegativeNumber(const char *s, double &out);

/**
 * The environment variable @p name as parseCount() reads it, or
 * @p fallback when it is unset; a malformed value is fatal().
 */
unsigned long long envCount(const char *name, unsigned long long max,
                            unsigned long long fallback);

/**
 * Figure 2-style breakdown: each component is the per-core average
 * time in that category divided by @p baseline_ticks (the 1-core CC
 * execution time). The components sum to approximately the
 * normalized execution time of the run.
 */
struct NormBreakdown
{
    double useful = 0;
    double sync = 0;
    double load = 0;
    double store = 0;

    double total() const { return useful + sync + load + store; }
};

NormBreakdown normalizedBreakdown(const RunStats &rs,
                                  Tick baseline_ticks);

/** One row of a Figure 2-style chart, formatted. */
std::string breakdownCells(const NormBreakdown &b);

/**
 * Workload scale for bench binaries: reads the CMPMEM_SCALE
 * environment variable (default 1; 0 selects the tiny test inputs
 * for a quick pass; anything but a whole number is fatal).
 */
WorkloadParams benchParams();

/** The CMPMEM_SCALE in effect (default 1, 0 = smoke). */
int benchScale();

/**
 * Iteration divisor for the substrate microbenchmarks, from the
 * CMPMEM_BENCH_SCALE environment variable (default 1, clamped to at
 * least 1; anything but a whole number is fatal). Sanitized trees
 * set it so the ctest "perf" entries fit their TIMEOUT budget under
 * ASan's ~10-20x slowdown; because it changes iteration counts (and
 * therefore simulated stats), the value is recorded in every BENCH
 * artifact and bench_compare refuses to diff artifacts produced
 * under different divisors.
 */
std::uint64_t benchScaleDivisor();

/**
 * @p base iterations scaled for the current environment:
 * base * max(1, 20 * CMPMEM_SCALE) / CMPMEM_BENCH_SCALE, clamped to
 * at least 1. The common sizing helper of micro_events/micro_access.
 */
std::uint64_t benchIters(std::uint64_t base);

/**
 * Bench epilogue: print the sweep's aggregate host-time and
 * speedup line (serial-sum vs wall-clock), write the
 * BENCH_<name>.json artifact, and return the process exit code
 * (0 unless a job failed to execute).
 */
int finishBench(const SweepResult &res);

} // namespace cmpmem

#endif // CMPMEM_HARNESS_EXPERIMENT_HH
