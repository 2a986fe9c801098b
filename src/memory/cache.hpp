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

/** One set-associative tag array with LRU replacement. */
class Cache
{
  public:
    /**
     * @param size_bytes total capacity
     * @param ways associativity
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
        if (mru.valid && mru.line == line) {
            mru.lastUse = use_clock_;
            ++hits_;
            return true;
        }
        const std::size_t base =
            static_cast<std::size_t>(indexOf(line)) * ways_;
        Way *set = &ways_storage_[base];
        Way *victim = &set[0];
        for (unsigned w = 0; w < ways_; ++w) {
            if (set[w].valid && set[w].line == line) {
                set[w].lastUse = use_clock_;
                ++hits_;
                mru_ = base + w;
                return true;
            }
            if (!set[w].valid) {
                victim = &set[w];
            } else if (victim->valid && set[w].lastUse < victim->lastUse) {
                victim = &set[w];
            }
        }
        ++misses_;
        victim->valid = true;
        victim->line = line;
        victim->lastUse = use_clock_;
        mru_ = static_cast<std::size_t>(victim - ways_storage_.data());
        return false;
    }

    /** Look up without filling or touching LRU state. */
    bool
    contains(Addr line) const
    {
        const Way *set =
            &ways_storage_[static_cast<std::size_t>(indexOf(line)) * ways_];
        for (unsigned w = 0; w < ways_; ++w)
            if (set[w].valid && set[w].line == line)
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
            if (set[w].valid && set[w].line == line) {
                set[w].valid = false;
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

    /** Drop all contents and statistics. */
    void reset();

  private:
    struct Way
    {
        Addr line = 0;
        bool valid = false;
        std::uint64_t lastUse = 0;
    };

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
