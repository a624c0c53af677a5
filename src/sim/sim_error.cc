#include "sim/sim_error.hh"

#include <cstdarg>

#include "sim/log.hh"

namespace cmpmem
{

const char *
to_string(SimErrorKind kind)
{
    switch (kind) {
      case SimErrorKind::Config: return "config";
      case SimErrorKind::Model: return "model";
      case SimErrorKind::Deadlock: return "deadlock";
      case SimErrorKind::Watchdog: return "watchdog";
      case SimErrorKind::Check: return "check";
    }
    return "unknown";
}

void
throwSimError(SimErrorKind kind, const char *fmt, ...)
{
    std::va_list ap;
    va_start(ap, fmt);
    std::string msg = vstrformat(fmt, ap);
    va_end(ap);
    throw SimError(kind, std::move(msg));
}

} // namespace cmpmem
