#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>
#include <ctime>
#include <utility>

#include "sim/log.hh"
#include "sim/sim_error.hh"

namespace cmpmem
{

namespace
{

/**
 * CPU seconds consumed by the calling thread. Local copy of the
 * harness helper: sim/ must not depend on harness/, and the watchdog
 * wants per-thread time so one slow sweep job cannot spend the
 * budgets of its siblings.
 */
double
hostThreadSeconds()
{
    timespec ts{};
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) != 0)
        return 0;
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

} // namespace

EventQueue::Node *
EventQueue::allocNode(Tick when)
{
    Node *n = freeList;
    if (n) {
        freeList = n->next;
    } else {
        chunks.push_back(std::make_unique<Node[]>(kChunkNodes));
        Node *chunk = chunks.back().get();
        // Keep chunk[0] for the caller; thread the rest onto the
        // free list (reverse order so they hand out in address order).
        for (std::size_t i = kChunkNodes - 1; i >= 1; --i) {
            chunk[i].next = freeList;
            freeList = &chunk[i];
        }
        n = &chunk[0];
    }
    n->when = when;
    n->seq = nextSeq++;
    n->next = nullptr;
    return n;
}

void
EventQueue::throwSchedulePast(Tick when) const
{
    // A model bug, not user error — but one that must surface in
    // release builds too, or the event silently fires "now" and
    // corrupts timing for the rest of the run.
    throwSimError(SimErrorKind::Model,
                  "event scheduled in the past (when=%llu, now=%llu)",
                  static_cast<unsigned long long>(when),
                  static_cast<unsigned long long>(curTick));
}

void
EventQueue::releaseNode(Node *n)
{
    n->cb.reset();
    n->next = freeList;
    freeList = n;
}

void
EventQueue::heapPush(std::vector<Node *> &heap, Node *n)
{
    heap.push_back(n);
    std::push_heap(heap.begin(), heap.end(),
                   [](const Node *a, const Node *b) { return before(b, a); });
}

EventQueue::Node *
EventQueue::heapPop(std::vector<Node *> &heap)
{
    std::pop_heap(heap.begin(), heap.end(),
                  [](const Node *a, const Node *b) { return before(b, a); });
    Node *n = heap.back();
    heap.pop_back();
    return n;
}

void
EventQueue::pushBucket(Node *n)
{
    const std::size_t slot = bucketOf(n->when) & kBucketMask;
    n->next = buckets[slot];
    buckets[slot] = n;
    bucketBits[slot >> 6] |= std::uint64_t(1) << (slot & 63);
}

void
EventQueue::insert(Node *n)
{
    const Tick when = n->when;
    if (when == curTick) {
        // Same-tick events append in sequence order, so the now-FIFO
        // is sorted by construction.
        if (nowTail)
            nowTail->next = n;
        else
            nowHead = n;
        nowTail = n;
    } else {
        const std::uint64_t b = bucketOf(when);
        if (b <= cursor) {
            // The active bucket — or behind it: peekNext() may park
            // the cursor ahead of curTick (e.g. runUntil stopping
            // short of the next event), and anything scheduled into
            // that gap still precedes every ring/overflow event.
            const Entry e{when, n->seq, n};
            active.insert(std::upper_bound(active.begin() + activePos,
                                           active.end(), e),
                          e);
        } else if (b < cursor + kNumBuckets) {
            pushBucket(n);
        } else {
            heapPush(farHeap, n);
            ++overflowCount;
        }
    }
    if (++pendingCount > peakPendingCount)
        peakPendingCount = pendingCount;
}

bool
EventQueue::advanceWindow()
{
    // Nearest occupied ring slot, as a wrap-corrected delta from the
    // cursor's slot (0 when the ring is empty; the cursor's own slot
    // is empty by invariant while the bucket is active).
    std::size_t delta = 0;
    {
        const std::size_t start = cursor & kBucketMask;
        std::size_t slot = (start + 1) & kBucketMask;
        for (std::size_t visits = 0; visits <= kBitmapWords; ++visits) {
            const unsigned bit = slot & 63;
            if (std::uint64_t word = bucketBits[slot >> 6] >> bit) {
                const std::size_t s =
                    slot + std::size_t(std::countr_zero(word));
                delta = (s - start) & kBucketMask;
                break;
            }
            slot = (slot + (64 - bit)) & kBucketMask;
        }
    }

    const bool haveRing = delta != 0;
    const bool haveFar = !farHeap.empty();
    if (!haveRing && !haveFar)
        return false;

    std::uint64_t target = haveRing ? cursor + delta : ~std::uint64_t(0);
    if (haveFar)
        target = std::min(target, bucketOf(farHeap.front()->when));
    cursor = target;

    active.clear();
    activePos = 0;

    // Pull overflow events that the new window now covers back into
    // the calendar (each event migrates at most once).
    while (!farHeap.empty() &&
           bucketOf(farHeap.front()->when) < cursor + kNumBuckets) {
        Node *n = heapPop(farHeap);
        if (bucketOf(n->when) == cursor)
            active.push_back(Entry{n->when, n->seq, n});
        else
            pushBucket(n);
    }

    // Activate the target bucket: copy its unsorted list into the
    // active array and sort once, restoring (when, seq) order.
    const std::size_t slot = cursor & kBucketMask;
    Node *n = buckets[slot];
    buckets[slot] = nullptr;
    bucketBits[slot >> 6] &= ~(std::uint64_t(1) << (slot & 63));
    while (n) {
        active.push_back(Entry{n->when, n->seq, n});
        n = n->next;
    }
    std::sort(active.begin(), active.end());
    return true;
}

EventQueue::Node *
EventQueue::peekNext()
{
    if (!nowHead && activePos == active.size() && !advanceWindow())
        return nullptr;
    // The global minimum is always the better of the now-FIFO head
    // and the active array's front: every ring bucket is a strictly
    // later tick range, and the overflow heap is later still.
    const Entry *e = activePos < active.size() ? &active[activePos] : nullptr;
    if (nowHead &&
        (!e || nowHead->when < e->when ||
         (nowHead->when == e->when && nowHead->seq < e->seq))) {
        peekedNow = true;
        return nowHead;
    }
    peekedNow = false;
    return e->node;
}

EventQueue::Node *
EventQueue::takeNext()
{
    // Relies on the immediately preceding peekNext(); schedule()
    // cannot run in between (callbacks execute only after take).
    --pendingCount;
    if (peekedNow) {
        Node *n = nowHead;
        nowHead = n->next;
        if (!nowHead)
            nowTail = nullptr;
        return n;
    }
    return active[activePos++].node;
}

void
EventQueue::dispatch(Node *n)
{
    curTick = n->when;
    ++numExecuted;
    // Invoke in place: the node is off every list but not yet on the
    // free list, so callbacks may schedule (and allocate) freely.
    n->cb();
    releaseNode(n);
}

Tick
EventQueue::run()
{
    return runUntil(maxTick);
}

Tick
EventQueue::runUntil(Tick limit)
{
    Node *n;
    while ((n = peekNext()) && n->when <= limit) {
        takeNext();
        dispatch(n);
    }
    return curTick;
}

Tick
EventQueue::runGuarded(const RunGuard &guard)
{
    if (!guard.engaged())
        return run();

    const Tick startTick = curTick;
    const double startHost = guard.maxHostSeconds > 0 ? hostThreadSeconds() : 0;

    // The host-time check needs a cadence even when the caller only
    // set maxHostSeconds; checking every event would thrash
    // clock_gettime.
    const std::uint64_t cadence = guard.progressCheckEvents != 0
                                      ? guard.progressCheckEvents
                                      : 4096;
    std::uint64_t nextCheck = numExecuted + cadence;
    std::uint64_t lastProbe =
        guard.progressProbe ? guard.progressProbe() : curTick;
    bool probeArmed = false;

    auto fail = [&](const char *what, std::string detail) {
        std::string diag = guard.diagnostic ? guard.diagnostic() : "";
        throw SimError(SimErrorKind::Watchdog,
                       strformat("watchdog: %s (%s)", what, detail.c_str()),
                       std::move(diag));
    };

    Node *n;
    while ((n = peekNext())) {
        // Budget check against a true peek: the event stays queued,
        // so a post-mortem diagnostic sees it as pending.
        if (guard.maxTicks != 0 && n->when > startTick + guard.maxTicks) {
            fail("simulated-tick budget exceeded",
                 strformat("next event at tick %llu, budget was %llu ticks "
                           "from tick %llu",
                           static_cast<unsigned long long>(n->when),
                           static_cast<unsigned long long>(guard.maxTicks),
                           static_cast<unsigned long long>(startTick)));
        }

        takeNext();
        dispatch(n);

        if (numExecuted < nextCheck)
            continue;
        nextCheck = numExecuted + cadence;

        if (guard.maxHostSeconds > 0) {
            double spent = hostThreadSeconds() - startHost;
            if (spent > guard.maxHostSeconds) {
                fail("host CPU-time budget exceeded",
                     strformat("%.1fs spent, budget %.1fs", spent,
                               guard.maxHostSeconds));
            }
        }

        if (guard.progressCheckEvents != 0) {
            std::uint64_t probe =
                guard.progressProbe ? guard.progressProbe() : curTick;
            if (probe != lastProbe) {
                lastProbe = probe;
                probeArmed = false;
            } else if (!probeArmed) {
                // Grace interval: require two consecutive stalled
                // windows so a long-latency phase isn't misread as a
                // livelock.
                probeArmed = true;
            } else {
                fail("no forward progress",
                     strformat("probe stuck at %llu for %llu events "
                               "(tick %llu)",
                               static_cast<unsigned long long>(probe),
                               static_cast<unsigned long long>(2 * cadence),
                               static_cast<unsigned long long>(curTick)));
            }
        }
    }
    return curTick;
}

std::vector<Tick>
EventQueue::pendingEventTicks(std::size_t max) const
{
    std::vector<Tick> out;
    if (max == 0 || pendingCount == 0)
        return out;
    out.reserve(max < pendingCount ? max : pendingCount);

    // (when, seq) keys only — unlike the old full-queue copy, the
    // callbacks are never touched.
    using Key = std::pair<Tick, std::uint64_t>;

    // Now-FIFO and active array first: together they hold everything
    // that precedes the ring buckets.
    std::vector<Key> head;
    head.reserve(active.size() - activePos + 8);
    for (const Node *n = nowHead; n; n = n->next)
        head.emplace_back(n->when, n->seq);
    for (std::size_t i = activePos; i < active.size(); ++i)
        head.emplace_back(active[i].when, active[i].seq);
    std::sort(head.begin(), head.end());
    for (const Key &k : head) {
        if (out.size() == max)
            return out;
        out.push_back(k.first);
    }

    // Ring buckets nearest-first; each bucket wholly precedes the
    // next, so we can stop as soon as `max` is reached.
    const std::size_t start = cursor & kBucketMask;
    for (std::size_t d = 1; d < kNumBuckets && out.size() < max; ++d) {
        const std::size_t slot = (start + d) & kBucketMask;
        if (!(bucketBits[slot >> 6] & (std::uint64_t(1) << (slot & 63))))
            continue;
        std::vector<Key> b;
        for (const Node *n = buckets[slot]; n; n = n->next)
            b.emplace_back(n->when, n->seq);
        std::sort(b.begin(), b.end());
        for (const Key &k : b) {
            if (out.size() == max)
                return out;
            out.push_back(k.first);
        }
    }

    if (out.size() < max && !farHeap.empty()) {
        std::vector<Key> far;
        far.reserve(farHeap.size());
        for (const Node *n : farHeap)
            far.emplace_back(n->when, n->seq);
        const std::size_t want =
            std::min(max - out.size(), far.size());
        std::partial_sort(far.begin(), far.begin() + want, far.end());
        for (std::size_t i = 0; i < want; ++i)
            out.push_back(far[i].first);
    }
    return out;
}

} // namespace cmpmem
