/**
 * @file
 * Layer attribution for the traced benchmark driver.
 *
 * trace.cc defines a `__wrap_<symbol>` for each layer entry point
 * listed in kEntryNames; the traced driver is linked with
 * `-Wl,--wrap=<symbol>` for each of them (CMakeLists.txt), so every
 * call into the layer that crosses an object-file boundary of
 * libcmpmem goes through a wrapper. A wrapper opens a span, calls the
 * real function and closes the span. A span's self time is its
 * duration minus the durations of the spans opened inside it, so the
 * self times of all spans opened inside the driver's Simulate span
 * add up to that span exactly, in span clock ticks.
 *
 * Spans are aggregated per entry point as they close; nothing is
 * kept per call. The driver runs one simulation at a time on one
 * thread (SystemConfig::hostThreads = 1), which the single span stack
 * relies on.
 */

#ifndef HOSTBENCH_TRACE_HH
#define HOSTBENCH_TRACE_HH

#include <cstdint>

namespace hostbench
{

enum class Entry : int
{
    ResourceAcquire,
    ResourceTransfer,
    L1Load,
    L1Store,
    L1Atomic,
    L1Prefetch,
    L2Read,
    L2Write,
    L2Drain,
    DramRead,
    DramWrite,
    DmaGet,
    DmaPut,
    DmaGetStrided,
    DmaPutStrided,
    DmaGetIndexed,
    DmaPutIndexed,
    DmaExecutePending,
    LsRead,
    LsWrite,
    EventRun,
    EventRunGuarded,
    Simulate, ///< opened by the driver around CmpSystem::simulate()
    Count,
};

constexpr int kEntries = int(Entry::Count);

/** Layers, named after the library's modules. */
enum class Layer : int
{
    Resource,
    L1,
    L2,
    Dram,
    Dma,
    LocalStore,
    SimCore,
    Simulate, ///< simulate() outside the event loop and every layer
    Count,
};

constexpr int kLayers = int(Layer::Count);

extern const char *const kLayerNames[kLayers];

/** Running totals since process start; subtract two to get a delta. */
struct TraceTotals
{
    std::uint64_t calls[kEntries] = {};
    std::int64_t selfTicks[kEntries] = {}; ///< span clock ticks

    /** Sum over Resource spans of (returned start - earliest), in
     *  simulated ticks. */
    std::uint64_t resourceWaitTicks = 0;

    std::uint64_t layerCalls(Layer l) const;
    double layerSelfSeconds(Layer l) const;
    double totalSelfSeconds() const;

    TraceTotals operator-(const TraceTotals &base) const;
    TraceTotals &operator+=(const TraceTotals &other);
};

TraceTotals traceTotals();

/** RAII span: one call of @p e, timed from construction to destruction. */
class Span
{
  public:
    explicit Span(Entry e);
    ~Span();

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Entry entry;
};

} // namespace hostbench

#endif // HOSTBENCH_TRACE_HH
