#include "mem/resource.hh"

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <iterator>
#include <utility>

namespace cmpmem
{

Resource::Resource(std::string name) : label(std::move(name)) {}

void
Resource::prune(Tick earliest)
{
    // Transactions are issued nearly in time order (bounded by the
    // core quantum plus transaction depth), so reservations ending
    // well before the current request can never conflict again.
    if (earliest < pruneHorizon)
        return;
    Tick cutoff = earliest - pruneHorizon;
    while (head < busyList.size() && busyList[head].end < cutoff)
        ++head;
    // Compact lazily: only once the dead prefix outweighs the live
    // entries, so each interval is moved O(1) times on average.
    if (head > compactMin && 2 * head > busyList.size()) {
        busyList.erase(busyList.begin(),
                       busyList.begin() + std::ptrdiff_t(head));
        head = 0;
    }
}

Tick
Resource::acquire(Tick earliest, Tick occupancy)
{
    ++count;
    busy += occupancy;
    prune(earliest);

    if (occupancy == 0)
        return earliest;

    // First-fit gap search: transactions may reserve future slots
    // (e.g. a response beat) without blocking the idle time before
    // them. Live ends increase strictly, so the intervals ending at
    // or before @p earliest are a prefix the search skips outright.
    const auto live = busyList.begin() + std::ptrdiff_t(head);
    auto pos = std::partition_point(
        live, busyList.end(),
        [earliest](const Interval &iv) { return iv.end <= earliest; });
    Tick start = earliest;
    for (; pos != busyList.end(); ++pos) {
        if (pos->start >= start + occupancy)
            break; // gap before this interval fits
        start = pos->end;
    }
    waited += start - earliest;

    // Book [start, end) before pos. Live intervals never touch, so a
    // reservation that abuts a neighbour extends it in place (and
    // fuses both when it fills the gap exactly); only an isolated
    // reservation shifts the tail of the array.
    const Tick end = start + occupancy;
    const bool joinsPrev = pos != live && std::prev(pos)->end == start;
    const bool joinsNext = pos != busyList.end() && pos->start == end;
    if (joinsPrev && joinsNext) {
        std::prev(pos)->end = pos->end;
        busyList.erase(pos);
    } else if (joinsPrev) {
        std::prev(pos)->end = end;
    } else if (joinsNext) {
        pos->start = start;
    } else {
        busyList.insert(pos, Interval{start, end});
    }
    return start;
}

Tick
Resource::nextFree() const
{
    return intervals() == 0 ? 0 : busyList.back().end;
}

void
Resource::reset()
{
    busyList.clear();
    head = 0;
    busy = 0;
    waited = 0;
    count = 0;
}

ChannelResource::ChannelResource(std::string name, std::uint32_t width_bytes,
                                 Tick beat_ticks)
    : Resource(std::move(name)), width(width_bytes), beat(beat_ticks)
{
    assert(width > 0 && beat > 0);
}

Tick
ChannelResource::transferTicks(std::uint64_t bytes) const
{
    std::uint64_t beats = (bytes + width - 1) / width;
    return beats * beat;
}

Tick
ChannelResource::acquireTransfer(Tick earliest, std::uint64_t bytes)
{
    totalBytes += bytes;
    return acquire(earliest, transferTicks(bytes));
}

} // namespace cmpmem
