#include "mem/l2_cache.hh"

#include <cassert>
#include <string>

#include "sim/log.hh"
#include "sim/sim_error.hh"

namespace cmpmem
{

L2Cache::L2Cache(const L2Config &c, DramChannel &dram_channel)
    : cfg(c), dram(dram_channel)
{
    if (cfg.banks == 0 || (cfg.banks & (cfg.banks - 1)) != 0)
        throwSimError(SimErrorKind::Config,
                      "L2 bank count must be a power of two");
    if (cfg.sizeBytes % cfg.banks != 0)
        throwSimError(SimErrorKind::Config,
                      "L2 size must divide evenly across banks");

    CacheGeometry geom;
    geom.sizeBytes = cfg.sizeBytes / cfg.banks;
    geom.assoc = cfg.assoc;
    geom.lineBytes = cfg.lineBytes;
    for (std::uint32_t b = 0; b < cfg.banks; ++b)
        bankArray.push_back(std::make_unique<Bank>(
            geom, "l2_bank" + std::to_string(b)));
}

int
L2Cache::bankFor(Addr line) const
{
    return int((line / cfg.lineBytes) & (cfg.banks - 1));
}

void
L2Cache::handleVictim(Tick when, const CacheArray::Victim &victim)
{
    if (victim.valid && victim.dirty) {
        dram.write(when, victim.addr, cfg.lineBytes);
        ++numWbToDram;
    }
}

Tick
L2Cache::readLine(Tick when, Addr line, bool &hit)
{
    Bank &bank = *bankArray[bankFor(line)];
    Tick start = bank.port.acquire(when, cfg.portOccupancy);
    Tick ready = start + cfg.accessLatency;

    CacheArray::Line *l = bank.tags.lookup(line);
    if (l) {
        hit = true;
        ++numHits;
        bank.tags.touch(*l);
        if (obs)
            obs->l2Read(when, line, true);
        return ready;
    }

    hit = false;
    ++numMisses;
    if (obs)
        obs->l2Read(when, line, false);
    Tick dram_ready = dram.read(ready, line, cfg.lineBytes);

    CacheArray::Victim victim;
    CacheArray::Line &fresh = bank.tags.allocate(line, victim);
    handleVictim(ready, victim);
    fresh.state = MesiState::Exclusive; // clean with respect to DRAM

    // Fill and forward: one more port pass to write the array.
    Tick fill = bank.port.acquire(dram_ready, cfg.portOccupancy);
    return fill + cfg.accessLatency;
}

Tick
L2Cache::writeLine(Tick when, Addr line, std::uint32_t bytes,
                   bool full_line)
{
    assert(bytes <= cfg.lineBytes);
    Bank &bank = *bankArray[bankFor(line)];
    Tick start = bank.port.acquire(when, cfg.portOccupancy);
    Tick done = start + cfg.accessLatency;

    CacheArray::Line *l = bank.tags.lookup(line);
    if (l) {
        ++numHits;
        bank.tags.touch(*l);
        l->state = MesiState::Modified;
        if (obs)
            obs->l2Write(when, line, full_line, true);
        return done;
    }

    ++numMisses;
    if (obs)
        obs->l2Write(when, line, full_line, false);
    if (!full_line) {
        // Partial-line write to a missing line: refill from DRAM
        // first (read-modify-write), then install dirty.
        done = dram.read(done, line, cfg.lineBytes);
    } else {
        ++numRefillsAvoided;
    }

    CacheArray::Victim victim;
    CacheArray::Line &fresh = bank.tags.allocate(line, victim);
    handleVictim(done, victim);
    fresh.state = MesiState::Modified;
    return done;
}

std::string
L2Cache::diagnose() const
{
    std::string out = strformat(
        "hits=%llu misses=%llu, writebacks-to-dram=%llu, "
        "refills-avoided=%llu", (unsigned long long)numHits,
        (unsigned long long)numMisses, (unsigned long long)numWbToDram,
        (unsigned long long)numRefillsAvoided);
    for (std::size_t b = 0; b < bankArray.size(); ++b) {
        out += strformat("\nbank %zu: port next free at tick %llu", b,
                         (unsigned long long)
                             bankArray[b]->port.nextFree());
    }
    return out;
}

std::uint64_t
L2Cache::drainDirty()
{
    std::uint64_t drained = 0;
    for (auto &bank : bankArray) {
        drained += bank->tags.forEachDirty([&](Addr line) {
            dram.write(dram.nextFreeHint(), line, cfg.lineBytes);
            ++numWbToDram;
        });
    }
    return drained;
}

} // namespace cmpmem
