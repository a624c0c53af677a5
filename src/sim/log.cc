#include "sim/log.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <vector>

namespace cmpmem
{

namespace
{

std::atomic<bool> quietMode{false};

thread_local LogCapture *tlsCapture = nullptr;

/** Serializes direct stderr writes across sweep worker threads. */
std::mutex &
logMutex()
{
    static std::mutex m;
    return m;
}

/** One locked, line-atomic write to stderr. */
void
emit(const char *tag, const std::string &msg)
{
    std::lock_guard<std::mutex> lock(logMutex());
    std::fprintf(stderr, "%s: %s\n", tag, msg.c_str());
}

void
vlog(const char *tag, const char *fmt, std::va_list ap)
{
    std::string msg = vstrformat(fmt, ap);
    if (tlsCapture)
        tlsCapture->append(tag, msg);
    else
        emit(tag, msg);
}

/**
 * Terminal path: flush this thread's pending capture (the dying
 * run's context) and write the final message straight to stderr.
 */
void
vlogFatal(const char *tag, const char *fmt, std::va_list ap)
{
    std::string msg = vstrformat(fmt, ap);
    std::lock_guard<std::mutex> lock(logMutex());
    if (tlsCapture && !tlsCapture->empty())
        std::fputs(tlsCapture->drain().c_str(), stderr);
    std::fprintf(stderr, "%s: %s\n", tag, msg.c_str());
}

} // namespace

std::string
vstrformat(const char *fmt, std::va_list ap)
{
    std::va_list ap2;
    va_copy(ap2, ap);
    int n = std::vsnprintf(nullptr, 0, fmt, ap2);
    va_end(ap2);
    if (n < 0)
        return fmt; // formatting error: fall back to the raw string
    std::vector<char> buf(std::size_t(n) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap);
    return std::string(buf.data(), std::size_t(n));
}

std::string
strformat(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string out = vstrformat(fmt, ap);
    va_end(ap);
    return out;
}

LogCapture::LogCapture() : prev(tlsCapture)
{
    tlsCapture = this;
}

LogCapture::~LogCapture()
{
    tlsCapture = prev;
    // Dying via exception with lines still buffered: hand them to the
    // enclosing capture (the sweep worker's, typically) or emit them,
    // so a failed job's log block survives the unwind.
    if (!buf.empty() && std::uncaught_exceptions() > 0) {
        if (prev)
            prev->buf += buf;
        else
            emitRaw(buf);
    }
}

std::string
LogCapture::drain()
{
    std::string out = std::move(buf);
    buf.clear();
    return out;
}

void
LogCapture::append(const char *tag, const std::string &msg)
{
    std::string line = tag;
    line += ": ";
    line += msg;
    line += '\n';
    buf += line;
}

void
emitRaw(const std::string &text)
{
    std::lock_guard<std::mutex> lock(logMutex());
    std::fputs(text.c_str(), stderr);
}

void
setQuiet(bool quiet)
{
    quietMode.store(quiet, std::memory_order_relaxed);
}

bool
isQuiet()
{
    return quietMode.load(std::memory_order_relaxed);
}

void
fatal(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    vlogFatal("fatal", fmt, ap);
    va_end(ap);
    std::exit(1);
}

void
panic(const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    vlogFatal("panic", fmt, ap);
    va_end(ap);
    std::abort();
}

void
warn(const char *fmt, ...)
{
    if (isQuiet())
        return;
    std::va_list ap;
    va_start(ap, fmt);
    vlog("warn", fmt, ap);
    va_end(ap);
}

void
inform(const char *fmt, ...)
{
    if (isQuiet())
        return;
    std::va_list ap;
    va_start(ap, fmt);
    vlog("info", fmt, ap);
    va_end(ap);
}

} // namespace cmpmem
