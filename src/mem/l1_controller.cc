#include "mem/l1_controller.hh"

#include <algorithm>
#include <bit>
#include <cassert>
#include <utility>

#include "sim/log.hh"
#include "sim/sim_error.hh"

namespace cmpmem
{

namespace
{

/** Null-guarded checker notification; no-transition events elided. */
inline void
note(CoherenceChecker *ck, Tick t, int core, Addr line, MesiState from,
     MesiState to, CoherenceChecker::Cause cause)
{
    if (ck && from != to)
        ck->onTransition(t, core, line, from, to, cause);
}

} // namespace

//
// CoherenceFabric
//

CoherenceFabric::CoherenceFabric(const InterconnectConfig &net_cfg,
                                 int cores, int cluster_size, L2Cache &l2,
                                 DramChannel &dram)
    : net(net_cfg),
      numCores(cores),
      clusterSize(cluster_size),
      numClusters((cores + cluster_size - 1) / cluster_size),
      l2cache(l2),
      dramChannel(dram),
      xbar(net_cfg, (cores + cluster_size - 1) / cluster_size)
{
    for (int c = 0; c < numClusters; ++c)
        buses.push_back(std::make_unique<LocalBus>(net, c));
}

void
CoherenceFabric::registerL1(L1Controller *l1)
{
    assert(int(l1s.size()) == l1->coreId());
    assert(l1->coreId() < numCores);
    // Presence filter sizing: 16 buckets per L1 frame, so a core
    // occupies at most 1/16 of the buckets and most non-holders read
    // a zero count. The bucket bits cover the set-index bits, so a
    // bucket's lines share one set and a count never exceeds the
    // associativity.
    const CacheGeometry &g = l1->tags().geometry();
    const std::size_t buckets = std::size_t(16) * g.sizeBytes / g.lineBytes;
    if (l1s.empty()) {
        if (g.assoc > 255)
            throwSimError(SimErrorKind::Config,
                          "coherent L1 associativity %u exceeds the snoop "
                          "presence filter's 8-bit counts",
                          g.assoc);
        presenceLineShift = std::uint32_t(std::countr_zero(g.lineBytes));
        presenceMask = buckets - 1;
        presenceLimit = g.assoc;
        presence.assign(buckets * std::size_t(numCores), 0);
    }
    assert(buckets == presenceMask + 1 && g.assoc == presenceLimit &&
           "coherent L1s share one geometry");
    l1s.push_back(l1);
}

std::string
CoherenceFabric::diagnose() const
{
    return strformat(
        "requests: cluster=%llu global=%llu, snoops=%llu, supplies: "
        "local=%llu remote=%llu, upgrades=%llu, writebacks=%llu, "
        "uncore: rd=%llu wr=%llu atomic=%llu",
        (unsigned long long)stats.clusterRequests,
        (unsigned long long)stats.globalRequests,
        (unsigned long long)stats.snoopProbes,
        (unsigned long long)stats.localSupplies,
        (unsigned long long)stats.remoteSupplies,
        (unsigned long long)stats.upgrades,
        (unsigned long long)stats.writebacks,
        (unsigned long long)stats.uncoreReads,
        (unsigned long long)stats.uncoreWrites,
        (unsigned long long)stats.remoteAtomics);
}

int
CoherenceFabric::snoopCluster(int cluster, int requester, Addr line,
                              bool invalidate, bool &supplier_was_dirty,
                              bool &supplier_was_owner,
                              bool &others_retain)
{
    int supplier = -1;
    int lo = cluster * clusterSize;
    int hi = std::min(lo + clusterSize, int(l1s.size()));
    const std::uint8_t *held = &presence[presenceIndex(line, 0)];
    for (int j = lo; j < hi; ++j) {
        if (j == requester)
            continue;
        ++stats.snoopProbes;
        if (held[j] == 0) {
            // No valid line of this bucket, so not this one: skip
            // the tag lookup, keep the snoop's accounting.
            l1s[j]->snoopAbsent(line);
            continue;
        }
        auto res = l1s[j]->snoop(line, invalidate);
        if (res.had) {
            if (supplier < 0 || res.dirty) {
                supplier = j;
                supplier_was_dirty = res.dirty;
                supplier_was_owner = res.owned;
            }
            if (!invalidate)
                others_retain = true;
        }
    }
    return supplier;
}

CoherenceFabric::FetchResult
CoherenceFabric::fetchLine(Tick t, int core_id, Addr line, bool exclusive,
                           bool coherent)
{
    const std::uint32_t line_bytes = l2cache.config().lineBytes;
    const int cl = clusterOf(core_id);
    FetchResult result;

    ++stats.clusterRequests;

    // Step 1: broadcast the request on the local cluster bus.
    Tick t_req = bus(cl).transfer(t, net.requestBytes);

    if (coherent && !l1s.empty()) {
        bool dirty = false;
        bool owner = false;
        bool retain = false;
        int supplier = snoopCluster(cl, core_id, line, exclusive, dirty,
                                    owner, retain);
        if (supplier >= 0) {
            // Cache-to-cache supply within the cluster.
            ++stats.localSupplies;
            l1s[supplier]->stats.suppliesProvided++;
            if (dirty && !exclusive) {
                // MESI: downgraded dirty owner writes the line back.
                writebackLine(t_req, supplier, line);
            }
            result.done = bus(cl).transfer(t_req, line_bytes);
            result.othersRetainCopy = retain;
            if (exclusive && !owner) {
                // The supplier held the line Shared, so copies may
                // exist in other clusters: a read-for-ownership must
                // still broadcast invalidations globally and wait
                // for the acknowledgements.
                Tick t_global =
                    xbar.sendFromCluster(t_req, cl, net.requestBytes);
                Tick acked = t_global;
                for (int c2 = 0; c2 < numClusters; ++c2) {
                    if (c2 == cl)
                        continue;
                    Tick tr = bus(c2).transfer(t_global, net.requestBytes);
                    bool d2 = false, o2 = false, r2 = false;
                    snoopCluster(c2, core_id, line, true, d2, o2, r2);
                    acked = std::max(acked, tr);
                }
                acked = xbar.deliverToCluster(acked, cl, net.requestBytes);
                result.done = std::max(result.done, acked);
            }
            return result;
        }
    }

    // Step 2: the request goes global -- broadcast to the other
    // clusters and look up the L2 in parallel.
    ++stats.globalRequests;
    Tick t_global = xbar.sendFromCluster(t_req, cl, net.requestBytes);

    int remote_supplier = -1;
    int remote_cluster = -1;
    bool remote_dirty = false;
    Tick t_remote_snooped = t_global;
    if (coherent && !l1s.empty()) {
        for (int c2 = 0; c2 < numClusters; ++c2) {
            if (c2 == cl)
                continue;
            Tick tr = bus(c2).transfer(t_global, net.requestBytes);
            t_remote_snooped = std::max(t_remote_snooped, tr);
            bool dirty = false;
            bool owner = false;
            bool retain = false;
            int s = snoopCluster(c2, core_id, line, exclusive, dirty,
                                 owner, retain);
            if (s >= 0 && (remote_supplier < 0 || dirty)) {
                remote_supplier = s;
                remote_cluster = c2;
                remote_dirty = dirty;
            }
            if (retain)
                result.othersRetainCopy = true;
        }
    }

    if (remote_supplier >= 0) {
        // Remote cluster supplies: its bus, through the crossbar,
        // onto our bus.
        ++stats.remoteSupplies;
        l1s[remote_supplier]->stats.suppliesProvided++;
        if (remote_dirty && !exclusive)
            writebackLine(t_remote_snooped, remote_supplier, line);
        Tick t1 = bus(remote_cluster).transfer(t_remote_snooped, line_bytes);
        Tick t2 = xbar.sendFromCluster(t1, remote_cluster, line_bytes);
        Tick t3 = xbar.deliverToCluster(t2, cl, line_bytes);
        result.done = bus(cl).transfer(t3, line_bytes);
        return result;
    }

    // Step 3: L2 (and DRAM beyond it).
    bool l2_hit = false;
    Tick t_l2 = l2cache.readLine(t_global, line, l2_hit);
    Tick t_back = xbar.deliverToCluster(t_l2, cl, line_bytes);
    result.done = bus(cl).transfer(t_back, line_bytes);
    return result;
}

Tick
CoherenceFabric::upgradeLine(Tick t, int core_id, Addr line)
{
    const int cl = clusterOf(core_id);
    ++stats.upgrades;

    // Invalidate within the cluster.
    Tick t_req = bus(cl).transfer(t, net.requestBytes);
    bool dirty = false;
    bool owner = false;
    bool retain = false;
    if (!l1s.empty())
        snoopCluster(cl, core_id, line, true, dirty, owner, retain);

    // Upgrades cannot be satisfied within one cluster (another
    // sharer may exist anywhere), so they always broadcast globally.
    Tick t_global = xbar.sendFromCluster(t_req, cl, net.requestBytes);
    Tick done = t_global;
    for (int c2 = 0; c2 < numClusters; ++c2) {
        if (c2 == cl)
            continue;
        Tick tr = bus(c2).transfer(t_global, net.requestBytes);
        if (!l1s.empty())
            snoopCluster(c2, core_id, line, true, dirty, owner, retain);
        done = std::max(done, tr);
    }
    // Acknowledgement collapses back through the crossbar.
    return xbar.deliverToCluster(done, cl, net.requestBytes);
}

void
CoherenceFabric::writebackLine(Tick t, int core_id, Addr line)
{
    const std::uint32_t line_bytes = l2cache.config().lineBytes;
    const int cl = clusterOf(core_id);
    ++stats.writebacks;
    if (checker)
        checker->onWriteback(t, core_id, line);
    Tick t1 = bus(cl).transfer(t, line_bytes);
    Tick t2 = xbar.sendFromCluster(t1, cl, line_bytes);
    l2cache.writeLine(t2, line, line_bytes, true);
}

Tick
CoherenceFabric::uncoreRead(Tick t, int cluster, Addr line,
                            std::uint32_t bytes)
{
    ++stats.uncoreReads;
    Tick t1 = bus(cluster).transfer(t, net.requestBytes);
    Tick t2 = xbar.sendFromCluster(t1, cluster, net.requestBytes);
    bool hit = false;
    Tick t3 = l2cache.readLine(t2, line, hit);
    Tick t4 = xbar.deliverToCluster(t3, cluster, bytes);
    return bus(cluster).transfer(t4, bytes);
}

Tick
CoherenceFabric::uncoreWrite(Tick t, int cluster, Addr line,
                             std::uint32_t bytes, bool full_line)
{
    ++stats.uncoreWrites;
    Tick t1 = bus(cluster).transfer(t, bytes);
    Tick t2 = xbar.sendFromCluster(t1, cluster, bytes);
    return l2cache.writeLine(t2, line, bytes, full_line);
}

Tick
CoherenceFabric::remoteAtomic(Tick t, int cluster, Addr line)
{
    ++stats.remoteAtomics;
    // The L2-side atomic unit mutated functional memory; refresh the
    // checker's golden copy (no requester core: the op is uncore).
    if (checker)
        checker->onStoreData(t, -1, line);
    Tick t1 = bus(cluster).transfer(t, net.requestBytes);
    Tick t2 = xbar.sendFromCluster(t1, cluster, net.requestBytes);
    // One L2 bank pass performs the read-modify-write at the line
    // holding the synchronization variable. The hit/miss outcome is
    // intentionally unused here: readLine already folds it into the
    // returned completion tick and into the L2's own hit/miss
    // counters (reported as l2.hits/l2.misses), and the fabric keeps
    // no per-outcome remote-atomic stat — remoteAtomics counts both.
    bool hit = false;
    Tick t3 = l2cache.readLine(t2, line, hit);
    (void)hit;
    Tick t4 = xbar.deliverToCluster(t3, cluster, net.requestBytes);
    return bus(cluster).transfer(t4, net.requestBytes);
}

//
// L1Controller
//

L1Controller::L1Controller(int core_id, const L1Config &config,
                           EventQueue &event_queue,
                           CoherenceFabric &coherence_fabric)
    : id(core_id),
      cfg(config),
      eq(event_queue),
      fabric(coherence_fabric),
      array(config.geom),
      mshr(config.mshrs),
      sb(config.storeBufferEntries)
{
    if (cfg.prefetch)
        prefetcher.emplace(*cfg.prefetch);
    if (cfg.coherent)
        fabric.registerL1(this);
    // Part of the micro path's invalidation contract: a draining
    // buffered store changes its line's state, so the entry must not
    // survive it. (Inserts already invalidate, so this is defensive.)
    sb.setDrainHook([this](Addr line) {
        if (line == micro.addr)
            microInvalidate();
    });
}

void
L1Controller::attachChecker(CoherenceChecker *c)
{
    checker = c;
    microInvalidate();
    if (!c) {
        mshr.setObserver(nullptr);
        sb.setObserver(nullptr);
        return;
    }
    c->attachL1(id, &array, cfg.coherent);
    mshr.setObserver([this](bool allocated, Addr line) {
        if (allocated)
            checker->onMshrAllocate(eq.now(), id, line);
        else
            checker->onMshrComplete(eq.now(), id, line);
    });
    sb.setObserver([this](bool inserted, Addr line) {
        if (inserted)
            checker->onSbInsert(eq.now(), id, line);
        else
            checker->onSbComplete(eq.now(), id, line);
    });
}

void
L1Controller::forgeStateForTest(Addr addr, MesiState state)
{
    Addr line = array.lineAddr(addr);
    CacheArray::Line *l = array.lookup(line);
    bool was_valid = l != nullptr;
    if (!l) {
        CacheArray::Victim victim;
        l = &array.allocate(line, victim);
        if (cfg.coherent && victim.valid)
            fabric.noteAbsent(id, victim.addr);
    }
    l->state = state; // deliberately bypasses every checker hook
    // ...but not the presence filter, which must match the tags.
    if (cfg.coherent && was_valid != l->valid()) {
        if (was_valid)
            fabric.noteAbsent(id, line);
        else
            fabric.notePresent(id, line);
    }
    microInvalidate();
}

L1Controller::SnoopResult
L1Controller::snoop(Addr line, bool invalidate)
{
    snoopAbsent(line); // the part every snoop pays, holder or not

    CacheArray::Line *l = array.lookup(line);
    if (!l)
        return {false, false};

    SnoopResult res{true, l->dirty(),
                    l->state == MesiState::Modified ||
                        l->state == MesiState::Exclusive};
    MesiState prev = l->state;
    if (invalidate) {
        l->state = MesiState::Invalid;
        ++stats.invalidationsReceived;
        if (cfg.coherent)
            fabric.noteAbsent(id, line);
    } else if (l->state == MesiState::Modified ||
               l->state == MesiState::Exclusive) {
        l->state = MesiState::Shared;
    }
    note(checker, eq.now(), id, line, prev, l->state,
         invalidate ? CoherenceChecker::Cause::SnoopInvalidate
                    : CoherenceChecker::Cause::SnoopDowngrade);
    return res;
}

void
L1Controller::install(Tick t, Addr line, MesiState state, bool prefetched,
                      CoherenceChecker::Cause cause)
{
    // A snoop may have raced the fill; (re)check for an existing
    // frame before allocating.
    CacheArray::Line *existing = array.lookup(line);
    if (existing) {
        if (state == MesiState::Modified) {
            note(checker, t, id, line, existing->state,
                 MesiState::Modified, cause);
            existing->state = MesiState::Modified;
        }
        return;
    }

    CacheArray::Victim victim;
    CacheArray::Line &l = array.allocate(line, victim);
    if (&l == micro.line)
        microInvalidate(); // the micro entry's frame was re-tagged
    if (victim.valid) {
        if (cfg.coherent)
            fabric.noteAbsent(id, victim.addr);
        note(checker, t, id, victim.addr, victim.state,
             MesiState::Invalid, CoherenceChecker::Cause::Evict);
        if (victim.dirty) {
            ++stats.writebacks;
            fabric.writebackLine(t, id, victim.addr);
        }
    }
    l.state = state;
    l.flags = prefetched ? flagPrefetched : 0;
    if (cfg.coherent)
        fabric.notePresent(id, line);
    note(checker, t, id, line, MesiState::Invalid, state, cause);
    ++stats.fills;
}

void
L1Controller::startFill(Tick t, Addr line, bool exclusive, AccessKind kind)
{
    assert(!mshr.outstanding(line));
    mshr.allocate(line, exclusive);

    auto result = fabric.fetchLine(t, id, line, exclusive, cfg.coherent);
    bool prefetched = (kind == AccessKind::Prefetch);
    MesiState state;
    if (exclusive) {
        state = MesiState::Modified;
    } else if (cfg.coherent && result.othersRetainCopy) {
        state = MesiState::Shared;
    } else {
        state = MesiState::Exclusive;
    }

    scheduleLineDone(result.done, line, state, prefetched,
                     CoherenceChecker::Cause::Fill,
                     /*completeStoreBuffer=*/false);
}

void
L1Controller::scheduleLineDone(Tick done, Addr line, MesiState state,
                               bool prefetched,
                               CoherenceChecker::Cause cause,
                               bool completeStoreBuffer)
{
    eq.schedule(done, [this, done, line, state, prefetched, cause,
                       completeStoreBuffer] {
        install(done, line, state, prefetched, cause);
        mshr.complete(line, done);
        if (completeStoreBuffer)
            sb.complete(line, done);
    });
}

bool
L1Controller::load(Tick t, Addr addr, Callback cb)
{
    Addr line = array.lineAddr(addr);

    // Forwarding from a pending buffered store.
    if (sb.contains(line)) {
        ++stats.loadHits;
        return true;
    }

    CacheArray::Line *l = array.lookup(line);
    if (l) {
        ++stats.loadHits;
        array.touch(*l);
        if ((l->flags & flagPrefetched) != 0) {
            l->flags &= ~flagPrefetched;
            ++stats.prefetchesUseful;
            if (prefetcher) {
                for (Addr pf : prefetcher->onPrefetchHit(line))
                    issuePrefetchLine(t, pf);
            }
        }
        microAdopt(l, line);
        return true;
    }

    ++stats.loadMisses;
    if (mshr.outstanding(line)) {
        mshr.addWaiter(line, std::move(cb));
        // Keep prefetch streams advancing at demand rate even when
        // the demand merges onto an in-flight (prefetch) fill;
        // otherwise streams throttle to the fill latency and lose
        // their run-ahead.
        issuePrefetches(t, line);
        return false;
    }

    startFill(t, line, false, AccessKind::Load);
    mshr.addWaiter(line, std::move(cb));
    issuePrefetches(t, line);
    return false;
}

void
L1Controller::issuePrefetchLine(Tick t, Addr pf_line)
{
    if (array.lookup(pf_line) || mshr.outstanding(pf_line) ||
        sb.contains(pf_line))
        return;
    // Keep MSHR headroom for demand traffic: an in-order core has at
    // most one blocking load, the store-buffer entries, and an
    // atomic outstanding, so reserving a dozen entries guarantees
    // prefetches can never starve a demand miss.
    constexpr std::size_t demand_reserve = 12;
    if (mshr.inFlight() + demand_reserve >= cfg.mshrs)
        return;
    ++stats.prefetchesIssued;
    startFill(t, pf_line, false, AccessKind::Prefetch);
}

void
L1Controller::softwarePrefetch(Tick t, Addr addr)
{
    issuePrefetchLine(t, array.lineAddr(addr));
}

void
L1Controller::issuePrefetches(Tick t, Addr miss_line)
{
    if (!prefetcher)
        return;
    for (Addr pf : prefetcher->onMiss(miss_line))
        issuePrefetchLine(t, pf);
}

void
L1Controller::ensureOwnership(Tick t, Addr line)
{
    CacheArray::Line *l = array.lookup(line);
    if (l && (l->state == MesiState::Modified ||
              l->state == MesiState::Exclusive)) {
        note(checker, t, id, line, l->state, MesiState::Modified,
             CoherenceChecker::Cause::StoreHit);
        l->state = MesiState::Modified;
        sb.complete(line, t);
        return;
    }

    if (mshr.outstanding(line)) {
        // Another transaction is in flight; chain behind it.
        mshr.addWaiter(line, [this, line](Tick ft) {
            ensureOwnership(ft, line);
        });
        return;
    }

    if (l) {
        // Shared here: upgrade (invalidation-only broadcast).
        mshr.allocate(line, true);
        Tick done = fabric.upgradeLine(t, id, line);
        // install() covers both landings: frame still present (note
        // the S->M flip) or evicted mid-upgrade (re-install as M —
        // ownership is still ours).
        scheduleLineDone(done, line, MesiState::Modified, false,
                         CoherenceChecker::Cause::Upgrade,
                         /*completeStoreBuffer=*/true);
        return;
    }

    // Not present anymore (evicted while waiting): full exclusive
    // fetch, completing the buffered store at fill time.
    mshr.allocate(line, true);
    auto result = fabric.fetchLine(t, id, line, true, cfg.coherent);
    scheduleLineDone(result.done, line, MesiState::Modified, false,
                     CoherenceChecker::Cause::Fill,
                     /*completeStoreBuffer=*/true);
}

void
L1Controller::startPfsAllocate(Tick t, Addr line)
{
    assert(!mshr.outstanding(line));
    mshr.allocate(line, true);
    ++stats.pfsStores;
    Tick done = cfg.coherent ? fabric.upgradeLine(t, id, line) : t;
    scheduleLineDone(std::max(done, t), line, MesiState::Modified, false,
                     CoherenceChecker::Cause::PfsAllocate,
                     /*completeStoreBuffer=*/true);
}

bool
L1Controller::store(Tick t, Addr addr, bool pfs, Callback cb)
{
    Addr line = array.lineAddr(addr);

    // The core already performed the store's functional effect;
    // refresh the checker's golden copy of the line.
    if (checker)
        checker->onStoreData(t, id, line);

    // Coalesce into an already-buffered store to the same line.
    if (sb.contains(line)) {
        ++stats.storeMerged;
        return true;
    }

    CacheArray::Line *l = array.lookup(line);
    if (l && (l->state == MesiState::Modified ||
              l->state == MesiState::Exclusive)) {
        ++stats.storeHits;
        note(checker, t, id, line, l->state, MesiState::Modified,
             CoherenceChecker::Cause::StoreHit);
        l->state = MesiState::Modified;
        array.touch(*l);
        microAdopt(l, line);
        return true;
    }

    // Needs an ownership transaction: park in the store buffer.
    if (sb.full()) {
        // Member slot, not a capture: only the owning in-order core
        // can block on its own buffer, so one parked store per L1.
        assert(!parkedCb);
        parked = ParkedStore{t, addr, pfs};
        parkedCb = std::move(cb);
        sb.waitForSpace([this](Tick when) { retryParkedStore(when); });
        return false;
    }

    ++stats.storeMisses;
    sb.insert(line);
    // A buffered store to the micro entry's line changes how loads
    // to it must be accounted (forwarding, no LRU touch): drop it.
    if (line == micro.addr)
        microInvalidate();

    if (l) {
        // Present but Shared: upgrade.
        array.touch(*l);
        ensureOwnership(t, line);
    } else if (mshr.outstanding(line)) {
        // A fill is in flight; take ownership once it lands.
        mshr.addWaiter(line, [this, line](Tick ft) {
            ensureOwnership(ft, line);
        });
    } else if (pfs) {
        startPfsAllocate(t, line);
    } else {
        mshr.allocate(line, true);
        auto result = fabric.fetchLine(t, id, line, true, cfg.coherent);
        scheduleLineDone(result.done, line, MesiState::Modified, false,
                         CoherenceChecker::Cause::Fill,
                         /*completeStoreBuffer=*/true);
        issuePrefetches(t, line);
    }
    return true;
}

void
L1Controller::retryParkedStore(Tick when)
{
    // Copy out both slots before re-entering store(): the retry may
    // immediately re-park (it cannot here — a slot just freed — but
    // the slots must be clear regardless for the next blocked store).
    ParkedStore p = parked;
    Callback cb = std::move(parkedCb);
    parkedCb = nullptr;
    // Retry now that a slot freed; the retry always succeeds in
    // buffering, so complete the core's wait.
    bool ok = store(std::max(when, p.t), p.addr, p.pfs, nullptr);
    assert(ok);
    (void)ok;
    cb(when);
}

void
L1Controller::atomicFinish(Tick t, Addr line)
{
    CacheArray::Line *cur = array.lookup(line);
    if (cur && cur->state == MesiState::Shared) {
        // The atomic merged onto a non-exclusive fill, so other
        // caches may legitimately hold the line Shared; a silent
        // S -> M flip here would break single-writer. Acquire
        // ownership with a real upgrade transaction first. The
        // requester's callback stays in the atomicCb slot.
        if (mshr.outstanding(line)) {
            mshr.addWaiter(line, [this, line](Tick ft) {
                atomicFinish(ft, line);
            });
            return;
        }
        mshr.allocate(line, true);
        Tick done = fabric.upgradeLine(t, id, line);
        scheduleLineDone(done, line, MesiState::Modified, false,
                         CoherenceChecker::Cause::Upgrade,
                         /*completeStoreBuffer=*/false);
        mshr.addWaiter(line, [this, line](Tick ft) {
            atomicFinish(ft, line);
        });
        return;
    }

    if (cur) {
        note(checker, t, id, line, cur->state, MesiState::Modified,
             CoherenceChecker::Cause::AtomicHit);
        cur->state = MesiState::Modified;
    }
    // No frame: filled and already evicted (pathological); just
    // charge the time and proceed.
    Callback cb = std::move(atomicCb);
    atomicCb = nullptr;
    cb(t);
}

void
L1Controller::atomic(Tick t, Addr addr, Callback cb)
{
    Addr line = array.lineAddr(addr);
    ++stats.atomicOps;

    // The core already performed the RMW's functional effect.
    if (checker)
        checker->onStoreData(t, id, line);

    CacheArray::Line *l = array.lookup(line);
    if (l && (l->state == MesiState::Modified ||
              l->state == MesiState::Exclusive) &&
        !sb.contains(line)) {
        note(checker, t, id, line, l->state, MesiState::Modified,
             CoherenceChecker::Cause::AtomicHit);
        l->state = MesiState::Modified;
        array.touch(*l);
        // Completion callbacks must never fire synchronously (the
        // issuing coroutine has not suspended yet); bounce through
        // the event queue.
        Tick done = t + cfg.atomicLatency * cfg.cyclePeriod;
        eq.schedule(done,
                    [cb = std::move(cb), done]() mutable { cb(done); });
        return;
    }

    // Acquire ownership, then complete. The callback parks in the
    // atomicCb member slot (in-order core: at most one outstanding
    // atomic) so the MSHR waiter captures only [this, line].
    assert(!atomicCb);
    atomicCb = std::move(cb);
    auto finish = [this, line](Tick ft) { atomicFinish(ft, line); };

    if (mshr.outstanding(line)) {
        mshr.addWaiter(line, finish);
        return;
    }

    if (l) {
        // Shared: upgrade.
        mshr.allocate(line, true);
        Tick done = fabric.upgradeLine(t, id, line);
        scheduleLineDone(done, line, MesiState::Modified, false,
                         CoherenceChecker::Cause::Upgrade,
                         /*completeStoreBuffer=*/false);
        mshr.addWaiter(line, finish);
        return;
    }

    mshr.allocate(line, true);
    auto result = fabric.fetchLine(t, id, line, true, cfg.coherent);
    scheduleLineDone(result.done, line, MesiState::Modified, false,
                     CoherenceChecker::Cause::Fill,
                     /*completeStoreBuffer=*/false);
    mshr.addWaiter(line, finish);
}

std::string
L1Controller::diagName() const
{
    return strformat("l1[%d]", id);
}

std::string
L1Controller::diagnose() const
{
    std::string out = strformat(
        "mshr in-flight=%zu (peak %zu), store buffer occupancy=%zu, "
        "demand misses=%llu, fills=%llu",
        mshr.inFlight(), mshr.peakOccupancy(), sb.occupancy(),
        (unsigned long long)stats.demandMisses(),
        (unsigned long long)stats.fills);
    std::string lines = mshr.diagnose();
    if (!lines.empty())
        out += "\n" + lines;
    std::string sbd = sb.diagnose();
    if (!sbd.empty())
        out += "\n" + sbd;
    return out;
}

std::uint64_t
L1Controller::drainDirty(Tick t)
{
    microInvalidate(); // the drain downgrades every Modified line
    return array.forEachDirty([&](Addr line) {
        ++stats.writebacks;
        fabric.writebackLine(t, id, line);
        note(checker, t, id, line, MesiState::Modified,
             MesiState::Exclusive, CoherenceChecker::Cause::Drain);
    });
}

} // namespace cmpmem
