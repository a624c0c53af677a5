/**
 * @file
 * Span accounting and the link-time wrappers of the traced driver.
 *
 * Each HOSTBENCH_WRAP below defines `__wrap_<sym>` and declares
 * `__real_<sym>`; linking with `-Wl,--wrap=<sym>` routes every
 * undefined reference to <sym> (a call from another object file of
 * libcmpmem, or from the driver) to the wrapper, and `__real_<sym>`
 * to the original definition. Calls inside the defining object file
 * are resolved by the compiler and are not wrapped: their time stays
 * in the calling span (e.g. ChannelResource::acquireTransfer's own
 * call of Resource::acquire, or CoherenceFabric::fetchLine inside
 * L1Controller::load).
 *
 * The wrappers are declared with C linkage and C-level parameter
 * types that match the Itanium C++ ABI of the member functions they
 * replace: `this` first; references and class types passed by value
 * that have a non-trivial move or destructor (TickCallback) become
 * pointers, which is how the ABI passes them. The pointer is handed
 * straight to the real function, so nothing is copied or destroyed
 * here. The mangled names are the link contract: if the library
 * changes a signature, the traced driver fails to link rather than
 * mis-calling it.
 */

#include "trace.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "sim/types.hh"

namespace hostbench
{

const char *const kLayerNames[kLayers] = {
    "mem.resource", "mem.l1",             "mem.l2",  "mem.dram",
    "stream.dma",   "stream.local_store", "sim_core", "simulate",
};

namespace
{

Layer
layerOf(Entry e)
{
    switch (e) {
      case Entry::ResourceAcquire:
      case Entry::ResourceTransfer:
        return Layer::Resource;
      case Entry::L1Load:
      case Entry::L1Store:
      case Entry::L1Atomic:
      case Entry::L1Prefetch:
        return Layer::L1;
      case Entry::L2Read:
      case Entry::L2Write:
      case Entry::L2Drain:
        return Layer::L2;
      case Entry::DramRead:
      case Entry::DramWrite:
        return Layer::Dram;
      case Entry::DmaGet:
      case Entry::DmaPut:
      case Entry::DmaGetStrided:
      case Entry::DmaPutStrided:
      case Entry::DmaGetIndexed:
      case Entry::DmaPutIndexed:
      case Entry::DmaExecutePending:
        return Layer::Dma;
      case Entry::LsRead:
      case Entry::LsWrite:
        return Layer::LocalStore;
      case Entry::EventRun:
      case Entry::EventRunGuarded:
        return Layer::SimCore;
      case Entry::Simulate:
      case Entry::Count:
        break;
    }
    return Layer::Simulate;
}

struct Frame
{
    std::int64_t start;
    std::int64_t childTicks;
};

/** Far deeper than any real nesting (simulate > run > l1 > l2 > dram). */
constexpr int kMaxDepth = 64;

Frame stack[kMaxDepth];
int depth = 0;
TraceTotals totals;

std::int64_t
steadyNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::int64_t
spanClock()
{
#if defined(__x86_64__)
    return std::int64_t(__rdtsc());
#else
    return steadyNs();
#endif
}

/** Calibration origin: both clocks read together at start-up. */
const std::int64_t originNs = steadyNs();
const std::int64_t originTicks = spanClock();

/**
 * Seconds per span clock tick. The span clock is the TSC on x86-64,
 * calibrated against steady_clock since process start: a read costs
 * 18 ns against steady_clock's 32 ns on a 4-vCPU Xeon VM, so the
 * spans perturb what they measure less.
 */
double
secondsPerTick()
{
    const std::int64_t ns = steadyNs() - originNs;
    const std::int64_t ticks = spanClock() - originTicks;
    return ticks > 0 ? double(ns) * 1e-9 / double(ticks) : 0.0;
}

} // namespace

std::uint64_t
TraceTotals::layerCalls(Layer l) const
{
    std::uint64_t n = 0;
    for (int e = 0; e < kEntries; ++e)
        if (layerOf(Entry(e)) == l)
            n += calls[e];
    return n;
}

double
TraceTotals::layerSelfSeconds(Layer l) const
{
    std::int64_t ticks = 0;
    for (int e = 0; e < kEntries; ++e)
        if (layerOf(Entry(e)) == l)
            ticks += selfTicks[e];
    return double(ticks) * secondsPerTick();
}

double
TraceTotals::totalSelfSeconds() const
{
    std::int64_t ticks = 0;
    for (int e = 0; e < kEntries; ++e)
        ticks += selfTicks[e];
    return double(ticks) * secondsPerTick();
}

TraceTotals
TraceTotals::operator-(const TraceTotals &base) const
{
    TraceTotals d;
    for (int e = 0; e < kEntries; ++e) {
        d.calls[e] = calls[e] - base.calls[e];
        d.selfTicks[e] = selfTicks[e] - base.selfTicks[e];
    }
    d.resourceWaitTicks = resourceWaitTicks - base.resourceWaitTicks;
    return d;
}

TraceTotals &
TraceTotals::operator+=(const TraceTotals &other)
{
    for (int e = 0; e < kEntries; ++e) {
        calls[e] += other.calls[e];
        selfTicks[e] += other.selfTicks[e];
    }
    resourceWaitTicks += other.resourceWaitTicks;
    return *this;
}

TraceTotals
traceTotals()
{
    return totals;
}

Span::Span(Entry e) : entry(e)
{
    if (depth == kMaxDepth) {
        std::fprintf(stderr, "hostbench: span stack overflow\n");
        std::abort();
    }
    Frame &f = stack[depth++];
    f.childTicks = 0;
    f.start = spanClock();
}

Span::~Span()
{
    const std::int64_t end = spanClock();
    const Frame &f = stack[--depth];
    const std::int64_t dur = end - f.start;
    totals.selfTicks[int(entry)] += dur - f.childTicks;
    ++totals.calls[int(entry)];
    if (depth > 0)
        stack[depth - 1].childTicks += dur;
}

} // namespace hostbench

using cmpmem::Addr;
using cmpmem::Tick;
using hostbench::Entry;
using hostbench::Span;

#define HOSTBENCH_WRAP(entry, sym, Ret, params, args)                     \
    extern "C" Ret __real_##sym params;                                   \
    extern "C" Ret __wrap_##sym params                                    \
    {                                                                     \
        Span span(entry);                                                 \
        return __real_##sym args;                                         \
    }

// mem.resource. The queueing delay is the grant's distance past the
// requested earliest tick, so these two are written out.
extern "C" Tick __real__ZN6cmpmem8Resource7acquireEmm(void *self,
                                                      Tick earliest,
                                                      Tick occupancy);
extern "C" Tick
__wrap__ZN6cmpmem8Resource7acquireEmm(void *self, Tick earliest,
                                      Tick occupancy)
{
    Span span(Entry::ResourceAcquire);
    const Tick start =
        __real__ZN6cmpmem8Resource7acquireEmm(self, earliest, occupancy);
    hostbench::totals.resourceWaitTicks += start - earliest;
    return start;
}

extern "C" Tick
__real__ZN6cmpmem15ChannelResource15acquireTransferEmm(void *self,
                                                       Tick earliest,
                                                       std::uint64_t bytes);
extern "C" Tick
__wrap__ZN6cmpmem15ChannelResource15acquireTransferEmm(void *self,
                                                       Tick earliest,
                                                       std::uint64_t bytes)
{
    Span span(Entry::ResourceTransfer);
    const Tick start = __real__ZN6cmpmem15ChannelResource15acquireTransferEmm(
        self, earliest, bytes);
    hostbench::totals.resourceWaitTicks += start - earliest;
    return start;
}

// mem.l1 (the TickCallback argument is passed by invisible reference).
HOSTBENCH_WRAP(Entry::L1Load,
               _ZN6cmpmem12L1Controller4loadEmmNS_14InlineFunctionIFvmELm24EEE,
               bool, (void *self, Tick t, Addr a, void *cb),
               (self, t, a, cb))
HOSTBENCH_WRAP(Entry::L1Store,
               _ZN6cmpmem12L1Controller5storeEmmbNS_14InlineFunctionIFvmELm24EEE,
               bool, (void *self, Tick t, Addr a, bool pfs, void *cb),
               (self, t, a, pfs, cb))
HOSTBENCH_WRAP(Entry::L1Atomic,
               _ZN6cmpmem12L1Controller6atomicEmmNS_14InlineFunctionIFvmELm24EEE,
               void, (void *self, Tick t, Addr a, void *cb),
               (self, t, a, cb))
HOSTBENCH_WRAP(Entry::L1Prefetch, _ZN6cmpmem12L1Controller16softwarePrefetchEmm,
               void, (void *self, Tick t, Addr a), (self, t, a))

// mem.l2
HOSTBENCH_WRAP(Entry::L2Read, _ZN6cmpmem7L2Cache8readLineEmmRb, Tick,
               (void *self, Tick when, Addr line, bool *hit),
               (self, when, line, hit))
HOSTBENCH_WRAP(Entry::L2Write, _ZN6cmpmem7L2Cache9writeLineEmmjb, Tick,
               (void *self, Tick when, Addr line, std::uint32_t bytes,
                bool full_line),
               (self, when, line, bytes, full_line))
HOSTBENCH_WRAP(Entry::L2Drain, _ZN6cmpmem7L2Cache10drainDirtyEv,
               std::uint64_t, (void *self), (self))

// mem.dram
HOSTBENCH_WRAP(Entry::DramRead, _ZN6cmpmem11DramChannel4readEmmj, Tick,
               (void *self, Tick when, Addr a, std::uint32_t bytes),
               (self, when, a, bytes))
HOSTBENCH_WRAP(Entry::DramWrite, _ZN6cmpmem11DramChannel5writeEmmj, Tick,
               (void *self, Tick when, Addr a, std::uint32_t bytes),
               (self, when, a, bytes))

// stream.dma
HOSTBENCH_WRAP(Entry::DmaGet, _ZN6cmpmem9DmaEngine3getEmmjj, std::uint64_t,
               (void *self, Tick t, Addr mem, std::uint32_t ls_off,
                std::uint32_t bytes),
               (self, t, mem, ls_off, bytes))
HOSTBENCH_WRAP(Entry::DmaPut, _ZN6cmpmem9DmaEngine3putEmmjj, std::uint64_t,
               (void *self, Tick t, Addr mem, std::uint32_t ls_off,
                std::uint32_t bytes),
               (self, t, mem, ls_off, bytes))
HOSTBENCH_WRAP(Entry::DmaGetStrided, _ZN6cmpmem9DmaEngine10getStridedEmmmjjj,
               std::uint64_t,
               (void *self, Tick t, Addr base, std::uint64_t stride,
                std::uint32_t row_bytes, std::uint32_t rows,
                std::uint32_t ls_off),
               (self, t, base, stride, row_bytes, rows, ls_off))
HOSTBENCH_WRAP(Entry::DmaPutStrided, _ZN6cmpmem9DmaEngine10putStridedEmmmjjj,
               std::uint64_t,
               (void *self, Tick t, Addr base, std::uint64_t stride,
                std::uint32_t row_bytes, std::uint32_t rows,
                std::uint32_t ls_off),
               (self, t, base, stride, row_bytes, rows, ls_off))
HOSTBENCH_WRAP(Entry::DmaGetIndexed,
               _ZN6cmpmem9DmaEngine10getIndexedEmRKSt6vectorImSaImEEjj,
               std::uint64_t,
               (void *self, Tick t, const void *addrs,
                std::uint32_t elem_bytes, std::uint32_t ls_off),
               (self, t, addrs, elem_bytes, ls_off))
HOSTBENCH_WRAP(Entry::DmaPutIndexed,
               _ZN6cmpmem9DmaEngine10putIndexedEmRKSt6vectorImSaImEEjj,
               std::uint64_t,
               (void *self, Tick t, const void *addrs,
                std::uint32_t elem_bytes, std::uint32_t ls_off),
               (self, t, addrs, elem_bytes, ls_off))
HOSTBENCH_WRAP(Entry::DmaExecutePending,
               _ZN6cmpmem9DmaEngine14executePendingERKNS0_7PendingE, Tick,
               (void *self, const void *pending), (self, pending))

// stream.local_store
HOSTBENCH_WRAP(Entry::LsRead, _ZNK6cmpmem10LocalStore4readEjPvm, void,
               (const void *self, std::uint32_t off, void *dst,
                std::size_t n),
               (self, off, dst, n))
HOSTBENCH_WRAP(Entry::LsWrite, _ZN6cmpmem10LocalStore5writeEjPKvm, void,
               (void *self, std::uint32_t off, const void *src,
                std::size_t n),
               (self, off, src, n))

// sim_core: the event loop; its self time is everything dispatched
// from it that no wrapper above claims.
HOSTBENCH_WRAP(Entry::EventRun, _ZN6cmpmem10EventQueue3runEv, Tick,
               (void *self), (self))
HOSTBENCH_WRAP(Entry::EventRunGuarded,
               _ZN6cmpmem10EventQueue10runGuardedERKNS0_8RunGuardE, Tick,
               (void *self, const void *guard), (self, guard))
