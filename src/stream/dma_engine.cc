#include "stream/dma_engine.hh"

#include <algorithm>
#include <cassert>

#include "mem/functional_memory.hh"
#include "mem/l1_controller.hh"
#include "sim/log.hh"
#include "sim/sim_error.hh"
#include "stream/local_store.hh"

namespace cmpmem
{

DmaEngine::DmaEngine(int core_id, const DmaConfig &config,
                     CoherenceFabric &coherence_fabric,
                     FunctionalMemory &memory, LocalStore &local_store)
    : coreId(core_id),
      cfg(config),
      fabric(coherence_fabric),
      mem(memory),
      ls(local_store),
      inFlight(std::max<std::size_t>(1, config.maxOutstanding), 0),
      ticketDone(kTicketWindow, 0)
{
    // Warm-up reservations (uncounted): typical command shapes stay
    // within these, so steady-state streaming never allocates.
    chunkScratch.reserve(256);
    copyScratch.reserve(4096);
}

Tick
DmaEngine::issueSlot(Tick earliest)
{
    // The engine issues one access per issueOverhead; at most
    // maxOutstanding accesses are in flight at once (retire the
    // oldest when the ring is full).
    Tick start = std::max(earliest, engineFree);
    if (inFlightCount >= cfg.maxOutstanding) {
        start = std::max(start, inFlight[inFlightHead]);
        if (++inFlightHead == inFlight.size())
            inFlightHead = 0;
        --inFlightCount;
    }
    engineFree = start + cfg.issueOverhead;
    return start;
}

DmaEngine::Ticket
DmaEngine::reserveTicket()
{
    Ticket tk = ticketNext++;
    ticketDone[tk % kTicketWindow] = 0;
    return tk;
}

void
DmaEngine::stageChunks(std::size_t n)
{
    chunkScratch.clear();
    if (n > chunkScratch.capacity()) {
        ++hostAllocCount;
        chunkScratch.reserve(std::max(n, 2 * chunkScratch.capacity()));
    }
}

std::uint8_t *
DmaEngine::copyBuffer(std::size_t bytes)
{
    if (bytes > copyScratch.capacity()) {
        ++hostAllocCount;
        copyScratch.reserve(std::max(bytes, 2 * copyScratch.capacity()));
    }
    copyScratch.resize(bytes);
    return copyScratch.data();
}

Tick
DmaEngine::executePending(const Pending &p)
{
    return executeChunks(p.t, p.ticket, p.chunks, p.isGet);
}

Tick
DmaEngine::executeChunks(Tick t, Ticket ticket,
                         const std::vector<Chunk> &chunks, bool is_get)
{
    const int cluster = fabric.clusterOf(coreId);
    const std::uint32_t line = cfg.accessBytes;
    Tick done = t;

    for (const auto &c : chunks) {
        // Split the chunk into line-granule accesses. The uncore
        // moves whole granules; partial granules still occupy a full
        // granule slot (the block-transfer inefficiency of strided
        // access the paper discusses).
        Addr a = c.mem;
        std::uint32_t ls_off = c.lsOff;
        std::uint32_t remaining = c.bytes;
        while (remaining > 0) {
            Addr line_addr = a & ~Addr(line - 1);
            std::uint32_t in_line =
                std::min<std::uint32_t>(remaining,
                                        line - std::uint32_t(a - line_addr));
            Tick start = issueSlot(t);
            Tick comp;
            if (is_get) {
                comp = fabric.uncoreRead(start, cluster, line_addr, line);
                stats.bytesRead += line;
            } else {
                comp = fabric.uncoreWrite(start, cluster, line_addr, line,
                                          in_line == line);
                stats.bytesWritten += line;
            }
            ++stats.accesses;
            inFlight[(inFlightHead + inFlightCount) % inFlight.size()] =
                comp;
            ++inFlightCount;
            done = std::max(done, comp);

            a += in_line;
            ls_off += in_line;
            remaining -= in_line;
        }

        // Functional copy, in issue order (see file comment).
        std::uint8_t *buf = copyBuffer(c.bytes);
        if (is_get) {
            mem.read(c.mem, buf, c.bytes);
            ls.write(c.lsOff, buf, c.bytes);
        } else {
            ls.read(c.lsOff, buf, c.bytes);
            mem.write(c.mem, buf, c.bytes);
        }
    }

    ++stats.commands;
    ticketDone[ticket % kTicketWindow] = done;
    lastCompletion = std::max(lastCompletion, done);
    return done;
}

DmaEngine::Ticket
DmaEngine::get(Tick t, Addr mem_addr, std::uint32_t ls_off,
               std::uint32_t bytes)
{
    Ticket tk = reserveTicket();
    stageChunks(1);
    chunkScratch.push_back({mem_addr, ls_off, bytes});
    executeChunks(t, tk, chunkScratch, true);
    return tk;
}

DmaEngine::Ticket
DmaEngine::put(Tick t, Addr mem_addr, std::uint32_t ls_off,
               std::uint32_t bytes)
{
    Ticket tk = reserveTicket();
    stageChunks(1);
    chunkScratch.push_back({mem_addr, ls_off, bytes});
    executeChunks(t, tk, chunkScratch, false);
    return tk;
}

DmaEngine::Ticket
DmaEngine::getStrided(Tick t, Addr mem_base, std::uint64_t mem_stride,
                      std::uint32_t row_bytes, std::uint32_t rows,
                      std::uint32_t ls_off)
{
    Ticket tk = reserveTicket();
    stageChunks(rows);
    for (std::uint32_t r = 0; r < rows; ++r) {
        chunkScratch.push_back({mem_base + Addr(r) * mem_stride,
                                ls_off + r * row_bytes, row_bytes});
    }
    executeChunks(t, tk, chunkScratch, true);
    return tk;
}

DmaEngine::Ticket
DmaEngine::putStrided(Tick t, Addr mem_base, std::uint64_t mem_stride,
                      std::uint32_t row_bytes, std::uint32_t rows,
                      std::uint32_t ls_off)
{
    Ticket tk = reserveTicket();
    stageChunks(rows);
    for (std::uint32_t r = 0; r < rows; ++r) {
        chunkScratch.push_back({mem_base + Addr(r) * mem_stride,
                                ls_off + r * row_bytes, row_bytes});
    }
    executeChunks(t, tk, chunkScratch, false);
    return tk;
}

DmaEngine::Ticket
DmaEngine::getIndexed(Tick t, const std::vector<Addr> &addrs,
                      std::uint32_t elem_bytes, std::uint32_t ls_off)
{
    Ticket tk = reserveTicket();
    stageChunks(addrs.size());
    std::uint32_t off = ls_off;
    for (Addr a : addrs) {
        chunkScratch.push_back({a, off, elem_bytes});
        off += elem_bytes;
    }
    executeChunks(t, tk, chunkScratch, true);
    return tk;
}

DmaEngine::Ticket
DmaEngine::putIndexed(Tick t, const std::vector<Addr> &addrs,
                      std::uint32_t elem_bytes, std::uint32_t ls_off)
{
    Ticket tk = reserveTicket();
    stageChunks(addrs.size());
    std::uint32_t off = ls_off;
    for (Addr a : addrs) {
        chunkScratch.push_back({a, off, elem_bytes});
        off += elem_bytes;
    }
    executeChunks(t, tk, chunkScratch, false);
    return tk;
}

Tick
DmaEngine::completionTick(Ticket ticket) const
{
    assert(ticket < ticketNext);
    if (ticket + kTicketWindow <= ticketNext) {
        throwSimError(SimErrorKind::Model,
                      "DMA ticket %llu on core %d expired (completion "
                      "ring holds the most recent %zu tickets; newest "
                      "is %llu)",
                      (unsigned long long)ticket, coreId, kTicketWindow,
                      (unsigned long long)(ticketNext - 1));
    }
    return ticketDone[ticket % kTicketWindow];
}

std::string
DmaEngine::diagName() const
{
    return strformat("dma[%d]", coreId);
}

std::string
DmaEngine::diagnose() const
{
    std::string out = strformat(
        "commands=%llu accesses=%llu, in flight=%zu, engine free at "
        "tick %llu, last completion tick %llu",
        (unsigned long long)stats.commands,
        (unsigned long long)stats.accesses, inFlightCount,
        (unsigned long long)engineFree,
        (unsigned long long)lastCompletion);
    if (inFlightCount > 0) {
        out += strformat(
            "\noldest outstanding access completes at tick %llu",
            (unsigned long long)inFlight[inFlightHead]);
    }
    return out;
}

} // namespace cmpmem
