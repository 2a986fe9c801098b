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

#include <cstddef>
#include <cstdint>
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
        ++use_clock_;
        Way &mru = ways_storage_[mru_];
        if (mru.lastUse != 0 && mru.line == line) {
            mru.lastUse = use_clock_;
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
            if (set[w].lastUse != 0 && set[w].line == line) {
                set[w].lastUse = use_clock_;
                ++hits_;
                mru_ = base + w;
                return true;
            }
            if (set[w].lastUse == 0 || set[w].lastUse < victim->lastUse)
                victim = &set[w];
        }
        ++misses_;
        victim->line = line;
        victim->lastUse = use_clock_;
        mru_ = static_cast<std::size_t>(victim - ways_storage_.data());
        return false;
    }

    /**
     * Record @p k more accesses to the line the last access() touched:
     * the k hits those calls would take on the last way, in one step.
     * The caller guarantees nothing touched the cache in between.
     */
    void
    repeatLast(std::uint64_t k)
    {
        use_clock_ += k;
        ways_storage_[mru_].lastUse = use_clock_;
        hits_ += k;
    }

    /** Look up without filling or touching LRU state. */
    bool
    contains(Addr line) const
    {
        const Way *set =
            &ways_storage_[static_cast<std::size_t>(indexOf(line)) * ways_];
        for (unsigned w = 0; w < ways_; ++w)
            if (set[w].lastUse != 0 && set[w].line == line)
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
            if (set[w].lastUse != 0 && set[w].line == line) {
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
    /** LRU clock: one tick per access, reset() sets it back to 0. */
    std::uint64_t useClock() const { return use_clock_; }

    /** Drop all contents and statistics. */
    void reset();

  private:
    /// 16 bytes: a way is valid iff lastUse != 0. The clock is
    /// incremented before every stamp, so a stamped way is never 0;
    /// invalidate() and reset() write 0.
    struct Way
    {
        Addr line = 0;
        std::uint64_t lastUse = 0;
    };
    static_assert(sizeof(Way) == 16);

    unsigned indexOf(Addr line) const { return line & (num_sets_ - 1); }

    unsigned num_sets_;
    unsigned ways_;
    std::vector<Way> ways_storage_; // num_sets_ * ways_
    /// Index into ways_storage_ of the last accessed way (an index,
    /// not a pointer, so a copied cache checks its own storage).
    std::size_t mru_ = 0;
    std::uint64_t use_clock_ = 0;
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
