/**
 * @file
 * Set-associative cache model with LRU replacement.
 *
 * Used for the private L1s and the shared L2 (Table 5 geometries).
 * The model tracks tags only — data lives in MemoryState — but the
 * hit/miss outcomes are structural: they depend on the actual address
 * stream, so cache-overflow chunk truncation and the timing model both
 * see real behaviour.
 */

#ifndef DELOREAN_MEMORY_CACHE_HPP_
#define DELOREAN_MEMORY_CACHE_HPP_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"

namespace delorean
{

/** Where an access was satisfied. */
enum class HitLevel : std::uint8_t
{
    kL1,
    kL2,
    kMemory,
};

/**
 * Why @p size_bytes at @p ways ways is not a geometry the cache model
 * can simulate, or nullptr if it is. It needs at least one way, a
 * whole number of sets, at least one set, and a power-of-two set
 * count (the set index is a mask of the line address). Cache's
 * constructor and the recording loaders both check this.
 */
const char *cacheGeometryError(unsigned size_bytes, unsigned ways);

/**
 * Highest line address a Cache can hold: ways store 32-bit tags. The
 * engine asserts at compile time that every cached region of the
 * address layout fits (core/engine.cpp).
 */
constexpr Addr kMaxCachedLine = std::numeric_limits<std::uint32_t>::max();

/** One set-associative tag array with LRU replacement. */
class Cache
{
  public:
    /**
     * @param size_bytes total capacity
     * @param ways associativity
     * @throws ConfigError unless cacheGeometryError() accepts them
     */
    Cache(unsigned size_bytes, unsigned ways);

    /**
     * Look up @p line; on miss, fill it (possibly evicting LRU).
     * @return true on hit. Inline: this runs once per simulated
     * memory access and dominates the cache model's cost. Accesses
     * often repeat the previous line, so the way of the last access
     * is checked before the set is scanned; a line lives in at most
     * one way, so a match there is the hit the scan would find.
     */
    bool
    access(Addr line)
    {
        const std::uint32_t now = nextStamp();
        const std::uint32_t tag = tagOf(line);
        Way &mru = ways_storage_[mru_];
        if (mru.lastUse != 0 && mru.tag == tag) {
            mru.lastUse = now;
            ++hits_;
            return true;
        }
        const std::size_t base =
            static_cast<std::size_t>(indexOf(line)) * ways_;
        Way *set = &ways_storage_[base];
        // The victim is the last invalid way in scan order, else the
        // least recently used: an invalid way's lastUse of 0 is below
        // every valid one.
        Way *victim = &set[0];
        for (unsigned w = 0; w < ways_; ++w) {
            if (set[w].lastUse != 0 && set[w].tag == tag) {
                set[w].lastUse = now;
                ++hits_;
                mru_ = base + w;
                return true;
            }
            if (set[w].lastUse == 0 || set[w].lastUse < victim->lastUse)
                victim = &set[w];
        }
        ++misses_;
        victim->tag = tag;
        victim->lastUse = now;
        mru_ = static_cast<std::size_t>(victim - ways_storage_.data());
        return false;
    }

    /**
     * Record @p k more accesses to the line the last access() touched:
     * the k hits those calls would take on the last way, in one step.
     * The caller guarantees nothing touched the cache in between, so
     * that way still holds the newest stamp and LRU order is already
     * what the k hits would leave.
     */
    void repeatLast(std::uint64_t k) { hits_ += k; }

    /** Look up without filling or touching LRU state. */
    bool
    contains(Addr line) const
    {
        const Way *set =
            &ways_storage_[static_cast<std::size_t>(indexOf(line)) * ways_];
        for (unsigned w = 0; w < ways_; ++w)
            if (set[w].lastUse != 0 && set[w].tag == tagOf(line))
                return true;
        return false;
    }

    /** Invalidate @p line if present; returns true if it was. */
    bool
    invalidate(Addr line)
    {
        Way *set =
            &ways_storage_[static_cast<std::size_t>(indexOf(line)) * ways_];
        for (unsigned w = 0; w < ways_; ++w) {
            if (set[w].lastUse != 0 && set[w].tag == tagOf(line)) {
                set[w].lastUse = 0;
                return true;
            }
        }
        return false;
    }

    /** Set index that @p line maps to. */
    unsigned setIndexOf(Addr line) const { return indexOf(line); }

    unsigned numSets() const { return num_sets_; }
    unsigned numWays() const { return ways_; }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }
    /** Accesses since construction or reset(), repeats included. */
    std::uint64_t useClock() const { return hits_ + misses_; }

    /** The last LRU stamp handed out (0 after reset()). */
    std::uint32_t stamp() const { return stamp_; }

    /**
     * TEST ONLY: jump the stamp clock forward to @p stamp (at least
     * stamp()) so the renormalization at its wrap can be exercised
     * without 2^32 accesses.
     */
    void
    forceStampForTest(std::uint32_t stamp)
    {
        assert(stamp >= stamp_);
        stamp_ = stamp;
    }

    /** Drop all contents and statistics. */
    void reset();

  private:
    /// 8 bytes: a 32-bit line tag and a 32-bit LRU stamp. A way is
    /// valid iff lastUse != 0; invalidate() and reset() write 0.
    /// Stamps only order the ways of one set, so before the stamp
    /// clock wraps, renormalize() rewrites each set's stamps as their
    /// ranks (1..ways) and the clock continues above them.
    struct Way
    {
        std::uint32_t tag = 0;
        std::uint32_t lastUse = 0;
    };
    static_assert(sizeof(Way) == 8);

    unsigned indexOf(Addr line) const { return line & (num_sets_ - 1); }

    /// The tag is the line's low 32 bits: every simulated line fits
    /// (kMaxCachedLine), so no two lines share one.
    static std::uint32_t
    tagOf(Addr line)
    {
        assert(line <= kMaxCachedLine);
        return static_cast<std::uint32_t>(line);
    }

    /** The next LRU stamp; never 0 (the invalid mark). */
    std::uint32_t
    nextStamp()
    {
        if (stamp_ == std::numeric_limits<std::uint32_t>::max())
            renormalize();
        return ++stamp_;
    }

    /** Rank each set's stamps 1..ways and restart the clock above. */
    void renormalize();

    unsigned num_sets_;
    unsigned ways_;
    std::vector<Way> ways_storage_; // num_sets_ * ways_
    /// Index into ways_storage_ of the last accessed way (an index,
    /// not a pointer, so a copied cache checks its own storage).
    std::size_t mru_ = 0;
    std::uint32_t stamp_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

/**
 * Private-L1s + shared-L2 hierarchy. Returns the level that satisfied
 * each access and fills the caches along the way. Latency translation
 * is the timing model's job.
 */
class CacheHierarchy
{
  public:
    CacheHierarchy(const MachineConfig &config);

    /** Access @p line from processor @p proc; fills L1[proc] and L2. */
    HitLevel
    access(ProcId proc, Addr line)
    {
        if (l1s_[proc].access(line))
            return HitLevel::kL1;
        if (l2_.access(line))
            return HitLevel::kL2;
        return HitLevel::kMemory;
    }

    /** Probe-only variant (no state change). */
    HitLevel
    probe(ProcId proc, Addr line) const
    {
        if (l1s_[proc].contains(line))
            return HitLevel::kL1;
        if (l2_.contains(line))
            return HitLevel::kL2;
        return HitLevel::kMemory;
    }

    /** Invalidate @p line in every L1 except @p except (coherence). */
    void invalidateOthers(ProcId except, Addr line);

    /** Warm a line into a processor's L1 (wrong-path pollution). */
    void pollute(ProcId proc, Addr line);

    const Cache &l1(ProcId proc) const { return l1s_[proc]; }
    Cache &l1(ProcId proc) { return l1s_[proc]; }
    const Cache &l2() const { return l2_; }
    Cache &l2() { return l2_; }

    void reset();

  private:
    std::vector<Cache> l1s_;
    Cache l2_;
};

} // namespace delorean

#endif // DELOREAN_MEMORY_CACHE_HPP_
