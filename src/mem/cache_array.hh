/**
 * @file
 * Set-associative tag/state array with true-LRU replacement (the
 * paper's policy).
 *
 * cmpmem caches carry timing and coherence *metadata* only; data
 * values live in FunctionalMemory (see functional_memory.hh for the
 * rationale). The array is shared by L1 D-caches, the streaming
 * model's small 8 KB caches, I-cache footprint modelling, and the L2.
 */

#ifndef CMPMEM_MEM_CACHE_ARRAY_HH
#define CMPMEM_MEM_CACHE_ARRAY_HH

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace cmpmem
{

/** MESI coherence states. Non-coherent caches use only I/E/M. */
enum class MesiState : std::uint8_t
{
    Invalid,
    Shared,
    Exclusive,
    Modified,
};

inline const char *
to_string(MesiState s)
{
    switch (s) {
      case MesiState::Invalid: return "I";
      case MesiState::Shared: return "S";
      case MesiState::Exclusive: return "E";
      case MesiState::Modified: return "M";
    }
    return "?";
}

/**
 * Geometry and identity of a cache array.
 *
 * Every field must be a power of two (CacheArray's constructor
 * raises SimErrorKind::Config otherwise), so sets() is exact and
 * set selection reduces to a shift and a mask.
 */
struct CacheGeometry
{
    std::uint32_t sizeBytes = 32 * 1024;
    std::uint32_t assoc = 2;
    std::uint32_t lineBytes = 32;

    std::uint32_t sets() const { return sizeBytes / (assoc * lineBytes); }
};

/**
 * The tag/state array.
 */
class CacheArray
{
  public:
    struct Line
    {
        Addr tag = 0; ///< line-aligned address of the cached block
        MesiState state = MesiState::Invalid;
        std::uint8_t flags = 0; ///< client-defined (e.g. prefetched)
        std::uint64_t lruStamp = 0;

        bool valid() const { return state != MesiState::Invalid; }
        bool dirty() const { return state == MesiState::Modified; }
    };

    /** Description of a line displaced by allocate(). */
    struct Victim
    {
        bool valid = false;
        bool dirty = false;
        Addr addr = 0;
        MesiState state = MesiState::Invalid; ///< state when displaced
    };

    explicit CacheArray(const CacheGeometry &geom);

    const CacheGeometry &geometry() const { return geom; }

    /** Line-align an address. */
    Addr lineAddr(Addr a) const { return a & ~Addr(geom.lineBytes - 1); }

    /**
     * Find the line holding @p addr, or nullptr. Never updates
     * replacement recency — that happens only through an explicit
     * touch() — but the non-const overload does refresh the set's
     * MRU-way hit hint (a host-only accelerator; see mruWay below).
     * Callers on timing paths decide whether the probe counts as a
     * use (demand access: lookup + touch) or not (snoop: lookup
     * alone); observers that must not perturb even the hint use
     * peek().
     */
    Line *lookup(Addr addr);

    /** Const probe; an alias of peek() (no side effects at all). */
    const Line *lookup(Addr addr) const { return peek(addr); }

    /**
     * Side-effect-free probe: find the line holding @p addr without
     * touching recency state *or* the MRU-way hint. For observers —
     * checker audits, test assertions, diagnostics — so that no
     * caller can update recency (or any other array state) by
     * accident.
     */
    const Line *peek(Addr addr) const;

    /**
     * Mark @p line most recently used. Also records the line's way
     * as the set's hit hint, so the next lookup probes it first.
     */
    void
    touch(Line &line)
    {
        line.lruStamp = ++lruClock;
        std::size_t idx = std::size_t(&line - lines.data());
        mruWay[idx >> assocShift] =
            std::uint32_t(idx) & (geom.assoc - 1);
    }

    /**
     * Claim a frame for @p addr: the set's first invalid way, else
     * its least recently used way (stamp ties go to the lowest way).
     * The displaced line (if any) is described in @p victim. The
     * returned line is re-tagged to @p addr, left Invalid (the caller
     * sets the state), and stamped most recently used.
     *
     * @pre lookup(addr) == nullptr (no duplicate tags; asserted
     * during the victim scan).
     */
    Line &allocate(Addr addr, Victim &victim);

    /** Invalidate every line (used between runs in tests). */
    void invalidateAll();

    /** Count of currently valid lines. */
    std::size_t validLines() const;

    /**
     * Invoke @p fn with the address of every Modified line and
     * downgrade it to Exclusive (clean). Used by end-of-run drains.
     * @return the number of dirty lines visited.
     */
    template <typename Fn>
    std::size_t
    forEachDirty(Fn &&fn)
    {
        std::size_t n = 0;
        for (auto &line : lines) {
            if (line.state == MesiState::Modified) {
                fn(line.tag);
                line.state = MesiState::Exclusive;
                ++n;
            }
        }
        return n;
    }

    /** Invoke @p fn with every valid line, read-only (checker audits). */
    template <typename Fn>
    void
    forEachValid(Fn &&fn) const
    {
        for (const auto &line : lines) {
            if (line.valid())
                fn(line);
        }
    }

  private:
    std::uint32_t
    setIndex(Addr addr) const
    {
        return std::uint32_t(addr >> lineShift) & setMask;
    }

    CacheGeometry geom;
    std::uint32_t lineShift = 0;  ///< log2(lineBytes)
    std::uint32_t setMask = 0;    ///< sets - 1
    std::uint32_t assocShift = 0; ///< log2(assoc)
    std::vector<Line> lines; ///< sets * assoc, set-major
    /**
     * Per-set MRU-way hit hint, probed first by lookup(). Purely a
     * host-time optimization: a stale hint only costs the probe,
     * never a wrong result (the tag is always re-validated).
     */
    std::vector<std::uint32_t> mruWay;
    std::uint64_t lruClock = 0;
};

} // namespace cmpmem

#endif // CMPMEM_MEM_CACHE_ARRAY_HH
