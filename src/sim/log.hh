/**
 * @file
 * Minimal logging in the gem5 spirit: fatal() for user errors,
 * panic() for simulator bugs, warn()/inform() for status.
 *
 * Thread safety: the sweep engine (harness/sweep.hh) runs many
 * simulations concurrently, so the logging layer is thread-aware.
 * Direct writes are serialized under one mutex, the quiet flag is
 * atomic, and a worker can install a thread-local LogCapture so the
 * messages of one job are buffered and re-emitted as a block instead
 * of interleaving with other jobs mid-line.
 */

#ifndef CMPMEM_SIM_LOG_HH
#define CMPMEM_SIM_LOG_HH

#include <cstdarg>
#include <string>

namespace cmpmem
{

/** vsnprintf into a std::string (the formatter behind fatal/warn). */
std::string vstrformat(const char *fmt, std::va_list ap);

/** printf-style formatting into a std::string. */
std::string strformat(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print an error caused by bad user input/configuration and exit(1). */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print an internal-invariant violation and abort(). */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Print a warning about questionable but survivable conditions. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Print an informational status message. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Globally silence warn()/inform() (used by tests and sweeps). */
void setQuiet(bool quiet);

/**
 * Write @p text to stderr verbatim as one block, serialized against
 * all other log output (used by the sweep engine to re-emit a job's
 * captured log without interleaving).
 */
void emitRaw(const std::string &text);

/** Current quiet state (atomic load). */
bool isQuiet();

/**
 * RAII sink that redirects this thread's warn()/inform() output into
 * a buffer for the capture's lifetime. Captures nest (the previous
 * sink is restored on destruction) and are strictly thread-local:
 * installing one never affects logging on other threads.
 *
 * fatal()/panic() bypass the capture — they first flush the pending
 * buffer so the context of a dying run is not lost, then write their
 * own message directly to stderr.
 *
 * A capture destroyed during stack unwinding (a job dying via
 * exception) does not lose its pending lines: they flush into the
 * enclosing capture if one exists, else straight to stderr, so a
 * failed sweep job still emits its log block.
 */
class LogCapture
{
  public:
    LogCapture();
    ~LogCapture();

    LogCapture(const LogCapture &) = delete;
    LogCapture &operator=(const LogCapture &) = delete;

    /** Captured text so far ("tag: message\n" lines, possibly empty). */
    const std::string &text() const { return buf; }

    bool empty() const { return buf.empty(); }

    /** Move the captured text out and reset the buffer. */
    std::string drain();

    /** Internal: append one formatted line (called by warn/inform). */
    void append(const char *tag, const std::string &msg);

  private:
    LogCapture *prev;
    std::string buf;
};

} // namespace cmpmem

#endif // CMPMEM_SIM_LOG_HH
