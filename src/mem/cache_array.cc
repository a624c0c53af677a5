#include "mem/cache_array.hh"

#include <cassert>

#include "sim/sim_error.hh"

namespace cmpmem
{

namespace
{
bool
isPow2(std::uint32_t x)
{
    return x != 0 && (x & (x - 1)) == 0;
}

std::uint32_t
log2Exact(std::uint32_t x)
{
    std::uint32_t shift = 0;
    while ((std::uint32_t(1) << shift) < x)
        ++shift;
    return shift;
}
} // namespace

CacheArray::CacheArray(const CacheGeometry &g) : geom(g)
{
    // Each field must be a power of two individually: pow2 sets can
    // emerge from a non-pow2 size/assoc pair only via the silently
    // truncating division in sets(), which would index a different
    // cache than the one configured.
    if (!isPow2(geom.sizeBytes) || !isPow2(geom.assoc) ||
        !isPow2(geom.lineBytes) ||
        geom.sizeBytes < geom.assoc * geom.lineBytes)
        throwSimError(SimErrorKind::Config,
                      "cache geometry must have power-of-two size, "
                      "associativity, and line size, with at least one "
                      "set (size=%u assoc=%u line=%u)",
                      geom.sizeBytes, geom.assoc, geom.lineBytes);
    lineShift = log2Exact(geom.lineBytes);
    setMask = geom.sets() - 1;
    assocShift = log2Exact(geom.assoc);
    lines.resize(std::size_t(geom.sets()) * geom.assoc);
    mruWay.assign(geom.sets(), 0);
}

CacheArray::Line *
CacheArray::lookup(Addr addr)
{
    Addr la = lineAddr(addr);
    std::size_t si = setIndex(addr);
    Line *set = &lines[si << assocShift];

    // Probe the set's MRU way first: back-to-back accesses to the
    // same set overwhelmingly hit the way last touched.
    std::uint32_t h = mruWay[si];
    if (set[h].valid() && set[h].tag == la)
        return &set[h];

    for (std::uint32_t w = 0; w < geom.assoc; ++w) {
        if (w != h && set[w].valid() && set[w].tag == la) {
            mruWay[si] = w;
            return &set[w];
        }
    }
    return nullptr;
}

const CacheArray::Line *
CacheArray::peek(Addr addr) const
{
    Addr la = lineAddr(addr);
    const Line *set = &lines[std::size_t(setIndex(addr)) << assocShift];
    for (std::uint32_t w = 0; w < geom.assoc; ++w) {
        if (set[w].valid() && set[w].tag == la)
            return &set[w];
    }
    return nullptr;
}

CacheArray::Line &
CacheArray::allocate(Addr addr, Victim &victim)
{
    Addr la = lineAddr(addr);
    std::uint32_t si = setIndex(addr);
    Line *set = &lines[std::size_t(si) << assocShift];

    // One walk of the set finds the first invalid way and the LRU
    // way, and checks the no-duplicate-tag precondition on the way.
    std::uint32_t way = geom.assoc; // first invalid way, if any
    std::uint32_t lru = 0;
    for (std::uint32_t w = 0; w < geom.assoc; ++w) {
        if (!set[w].valid()) {
            if (way == geom.assoc)
                way = w;
            continue;
        }
        assert(set[w].tag != la && "allocating a duplicate tag");
        if (set[w].lruStamp < set[lru].lruStamp)
            lru = w;
    }
    if (way == geom.assoc)
        way = lru;
    Line *pick = &set[way];

    victim.valid = pick->valid();
    victim.dirty = pick->dirty();
    victim.addr = pick->tag;
    victim.state = pick->state;

    pick->tag = la;
    pick->state = MesiState::Invalid;
    pick->flags = 0;
    pick->lruStamp = ++lruClock;
    // The demand that triggered the fill is about to access this way.
    mruWay[si] = way;
    return *pick;
}

void
CacheArray::invalidateAll()
{
    for (auto &line : lines)
        line.state = MesiState::Invalid;
}

std::size_t
CacheArray::validLines() const
{
    std::size_t n = 0;
    for (const auto &line : lines)
        n += line.valid();
    return n;
}

} // namespace cmpmem
