/**
 * @file
 * Recoverable simulation errors.
 *
 * fatal()/panic() (sim/log.hh) kill the whole process, which is the
 * right behaviour for CLI misuse and for bugs in the harness itself —
 * but a sweep runs many independent simulations, and one bad config
 * point or hung kernel must not take the other jobs down with it.
 * Every failure path reachable from *simulation* code therefore
 * throws SimError instead; the sweep executor
 * (harness/sweep.cc) catches it per job and records a structured
 * {kind, message, diagnostic} blob in the BENCH_<name>.json artifact.
 *
 * The taxonomy (see DESIGN.md §11):
 *  - Config:   invalid user configuration (bad knob values, unknown
 *              workload).
 *  - Model:    a kernel or model-API contract violation (DMA on a
 *              cache-model core, local-store overrun, an event
 *              scheduled in the past).
 *  - Deadlock: the event queue drained with kernels still blocked.
 *  - Watchdog: a liveness budget tripped (max ticks, host CPU time,
 *              or no forward progress); carries a diagnostic dump.
 *  - Check:    the runtime MESI checker failed fast on a violation.
 *
 * A job that kills the host process (a signal, an abort) is outside
 * the taxonomy: sweep jobs run in-process, so it ends the whole sweep
 * before any artifact is written.
 */

#ifndef CMPMEM_SIM_SIM_ERROR_HH
#define CMPMEM_SIM_SIM_ERROR_HH

#include <stdexcept>
#include <string>

namespace cmpmem
{

enum class SimErrorKind
{
    Config,
    Model,
    Deadlock,
    Watchdog,
    Check,
};

/** Lower-case kind tag, as recorded in sweep JSON artifacts. */
const char *to_string(SimErrorKind kind);

class SimError : public std::runtime_error
{
  public:
    SimError(SimErrorKind kind, std::string message,
             std::string diagnostic = {})
        : std::runtime_error(std::move(message)), k(kind),
          diag(std::move(diagnostic))
    {
    }

    SimErrorKind kind() const { return k; }

    /** to_string(kind()): the JSON "kind" field. */
    const char *kindName() const { return to_string(k); }

    /**
     * Machine-state dump attached at throw time (watchdog/deadlock
     * errors); empty otherwise.
     */
    const std::string &diagnostic() const { return diag; }

  private:
    SimErrorKind k;
    std::string diag;
};

/** printf-style SimError with no diagnostic attached. */
[[noreturn]] void throwSimError(SimErrorKind kind, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

} // namespace cmpmem

#endif // CMPMEM_SIM_SIM_ERROR_HH
