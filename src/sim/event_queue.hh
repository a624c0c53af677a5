/**
 * @file
 * The global discrete-event scheduler driving a simulation.
 *
 * Engine layout (see DESIGN.md section 12): events live in pooled
 * nodes (free list, no per-event heap allocation) holding the
 * callback inline (sim/inline_function.hh), and are ordered by a
 * two-level calendar queue:
 *
 *  - a "now" FIFO for events at exactly the current tick (same-tick
 *    chains append and pop in O(1), sequence order by construction);
 *  - a sorted array over the *active* bucket (the one containing the
 *    current tick), popped by index;
 *  - a ring of 1024 buckets x 2^kBucketShift (256) ticks of unsorted
 *    singly-linked lists with an occupancy bitmap (push O(1),
 *    activation sorts one bucket);
 *  - an overflow heap for events beyond the ring horizon (~262 ns),
 *    migrated into the ring as the window advances.
 *
 * Pop order is globally (tick, sequence) — bit-identical to the old
 * single priority queue — because every container holds a disjoint,
 * ordered slice of the future: now-FIFO and active-bucket events
 * precede all ring buckets, which precede the overflow heap.
 */

#ifndef CMPMEM_SIM_EVENT_QUEUE_HH
#define CMPMEM_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/inline_function.hh"
#include "sim/types.hh"

namespace cmpmem
{

/**
 * A single-threaded discrete-event queue ordered by (tick, sequence).
 *
 * Events scheduled for the same tick fire in scheduling order, which
 * keeps the simulation deterministic. Callbacks may schedule further
 * events, including at the current tick.
 */
class EventQueue
{
  public:
    /**
     * Scheduled callbacks store their captures inline in the event
     * node; a capture beyond kCallbackBytes is a compile error at the
     * schedule() site (shrink it — every scheduler in src/mem,
     * src/core and src/stream fits).
     */
    static constexpr std::size_t kCallbackBytes = 48;
    using Callback = InlineFunction<void(), kCallbackBytes>;

    /**
     * Calendar geometry: log2 of the tick width of one ring bucket,
     * so the ring horizon is kNumBuckets << kBucketShift ticks;
     * events past the horizon take the overflow heap. Fixed, because
     * every run simulates the same machine (DESIGN.md section 14).
     */
    static constexpr unsigned kBucketShift = 8;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. Never decreases. */
    Tick now() const { return curTick; }

    /**
     * Schedule @p f to run at tick @p when.
     *
     * The callable is constructed directly in a pooled event node —
     * the one move happens inline at the call site; only dispatch
     * and destruction go through the type-erased table.
     *
     * @pre when >= now(); scheduling in the past is a simulator bug
     *      and throws SimErrorKind::Model (in release builds too).
     */
    template <typename F>
    void
    schedule(Tick when, F &&f)
    {
        if (when < curTick)
            throwSchedulePast(when);
        Node *n = allocNode(when);
        n->cb.emplace(std::forward<F>(f));
        insert(n);
    }

    /** Run until the queue drains. @return the final tick reached. */
    Tick run();

    /**
     * Run until the queue drains or @p limit is reached.
     * Events at ticks > limit remain queued.
     */
    Tick runUntil(Tick limit);

    /**
     * Liveness budgets for runGuarded(). All budgets are optional;
     * with none set the guarded run degenerates to run(). The guard
     * only observes execution — it never changes event order or
     * timing, so a guarded run that stays within budget produces
     * bit-identical results to an unguarded one.
     */
    struct RunGuard
    {
        /** Budget of simulated ticks past the tick at run start. */
        Tick maxTicks = 0;

        /** Budget of host thread-CPU seconds (hang insurance). */
        double maxHostSeconds = 0;

        /**
         * Every this many executed events, progressProbe() must have
         * advanced; catches livelocks that neither drain the queue
         * nor run out the tick budget (0 disables the check).
         */
        std::uint64_t progressCheckEvents = 0;

        /**
         * Monotone forward-progress counter (instructions retired,
         * typically). When empty, the current tick is the probe, so
         * a same-tick self-rescheduling loop is still caught.
         */
        std::function<std::uint64_t()> progressProbe;

        /**
         * Machine-state dump attached to the thrown SimError
         * (CmpSystem wires dumpDiagnostics() here).
         */
        std::function<std::string()> diagnostic;

        bool engaged() const
        {
            return maxTicks != 0 || maxHostSeconds > 0 ||
                   progressCheckEvents != 0;
        }
    };

    /**
     * Run until the queue drains, enforcing @p guard's budgets.
     * Throws SimErrorKind::Watchdog (diagnostic attached) when a
     * budget is exceeded or forward progress stops.
     */
    Tick runGuarded(const RunGuard &guard);

    bool empty() const { return pendingCount == 0; }

    std::size_t pending() const { return pendingCount; }

    /** Total events executed so far (monotone; useful in tests). */
    std::uint64_t executed() const { return numExecuted; }

    //
    // Host-throughput telemetry. Both are pure functions of the
    // deterministic event stream (no host timing), so they are
    // bit-identical across runs and safe to ship in RunStats/JSON.
    //

    /** High-water mark of pending() over the queue's lifetime. */
    std::uint64_t peakPending() const { return peakPendingCount; }

    /**
     * Events whose horizon exceeded the calendar ring at schedule
     * time and were routed to the overflow heap (they migrate back
     * into the ring as the window advances).
     */
    std::uint64_t calendarOverflows() const { return overflowCount; }

    /** Pool capacity in nodes (tests: free-list reuse under churn). */
    std::size_t nodesAllocated() const
    {
        return chunks.size() * kChunkNodes;
    }

    /**
     * Ticks of the next @p max pending events in firing order
     * (diagnostics only). Walks the calendar structures and
     * partial-sorts candidates; never copies callbacks.
     */
    std::vector<Tick> pendingEventTicks(std::size_t max = 16) const;

  private:
    /** Ring geometry: 1024 buckets of 256 ticks, a ~262 ns horizon. */
    static constexpr std::size_t kNumBuckets = 1024;
    static constexpr std::size_t kBucketMask = kNumBuckets - 1;
    static constexpr std::size_t kBitmapWords = kNumBuckets / 64;
    static constexpr std::size_t kChunkNodes = 256;

    struct Node
    {
        Tick when = 0;
        std::uint64_t seq = 0;
        Node *next = nullptr; ///< free list / bucket list / now FIFO
        Callback cb;
    };

    /**
     * Sorted-array element for the active bucket: the key is copied
     * next to the pointer so ordering the bucket never chases nodes.
     */
    struct Entry
    {
        Tick when;
        std::uint64_t seq;
        Node *node;

        bool
        operator<(const Entry &o) const
        {
            if (when != o.when)
                return when < o.when;
            return seq < o.seq;
        }
    };

    /** (when, seq) strict ordering. */
    static bool
    before(const Node *a, const Node *b)
    {
        if (a->when != b->when)
            return a->when < b->when;
        return a->seq < b->seq;
    }

    Node *allocNode(Tick when);
    void releaseNode(Node *n);

    /** Route a fresh node into now-FIFO / active / ring / overflow. */
    void insert(Node *n);

    [[noreturn]] void throwSchedulePast(Tick when) const;

    void pushBucket(Node *n);
    void heapPush(std::vector<Node *> &heap, Node *n);
    Node *heapPop(std::vector<Node *> &heap);

    /**
     * Make the global minimum O(1)-reachable (advancing the window /
     * migrating overflow events as needed) and return it without
     * removing it; null when empty. The returned node stays owned by
     * the queue.
     */
    Node *peekNext();

    /** Remove the node peekNext() returned (must follow a peek). */
    Node *takeNext();

    /**
     * Advance the ring cursor to the earliest non-empty bucket (or
     * to the overflow heap's earliest bucket, whichever is sooner),
     * migrate newly-in-window overflow events, and drain that bucket
     * into the sorted active array. @return false when nothing is
     * pending beyond the now-FIFO and active array.
     */
    bool advanceWindow();

    /** Absolute bucket index of a tick. */
    static std::uint64_t bucketOf(Tick t) { return t >> kBucketShift; }

    /** The shared body of run()/runUntil()/runGuarded()'s inner step. */
    void dispatch(Node *n);

    // Node pool.
    std::vector<std::unique_ptr<Node[]>> chunks;
    Node *freeList = nullptr;

    // Now-FIFO: events at exactly curTick, in sequence order.
    Node *nowHead = nullptr;
    Node *nowTail = nullptr;

    // Active bucket (index == cursor): entries sorted by (when, seq),
    // consumed from activePos (pop is an index bump). Rebuilt by
    // advanceWindow(); same-bucket stragglers binary-search-insert
    // into the unconsumed tail.
    std::vector<Entry> active;
    std::size_t activePos = 0;

    // Ring buckets (unsorted lists) + occupancy bitmap. A slot holds
    // only events for the current window (cursor, cursor+kNumBuckets);
    // anything later sits in the overflow heap.
    Node *buckets[kNumBuckets] = {};
    std::uint64_t bucketBits[kBitmapWords] = {};

    // Far future: min-heap by (when, seq).
    std::vector<Node *> farHeap;

    /** Absolute index of the active bucket (contains curTick). */
    std::uint64_t cursor = 0;

    /** Set by peekNext(): the peeked node is nowHead, not the heap. */
    bool peekedNow = false;

    Tick curTick = 0;
    std::uint64_t nextSeq = 0;
    std::uint64_t numExecuted = 0;
    std::size_t pendingCount = 0;
    std::uint64_t peakPendingCount = 0;
    std::uint64_t overflowCount = 0;
};

} // namespace cmpmem

#endif // CMPMEM_SIM_EVENT_QUEUE_HH
