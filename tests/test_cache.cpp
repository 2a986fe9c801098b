/**
 * @file
 * Unit tests for the cache models (memory/cache.hpp).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/errors.hpp"
#include "common/rng.hpp"
#include "memory/cache.hpp"

namespace delorean
{
namespace
{

TEST(Cache, MissThenHit)
{
    Cache c(1024, 2); // 16 lines, 8 sets, 2 ways
    EXPECT_FALSE(c.access(0x100));
    EXPECT_TRUE(c.access(0x100));
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 1u);
}

TEST(Cache, GeometryFromParameters)
{
    Cache c(32 * 1024, 4); // Table 5 L1: 1024 lines, 256 sets
    EXPECT_EQ(c.numSets(), 256u);
    EXPECT_EQ(c.numWays(), 4u);
}

TEST(Cache, LruEvictsLeastRecentlyUsed)
{
    Cache c(1024, 2); // 32 lines, 16 sets, 2 ways
    // Three lines in the same set (set 0): line = k * numSets.
    const Addr sets = c.numSets();
    const Addr a = 0, b = sets, d = 2 * sets;
    c.access(a);
    c.access(b);
    c.access(a);    // a more recent than b
    c.access(d);    // evicts b
    EXPECT_TRUE(c.contains(a));
    EXPECT_FALSE(c.contains(b));
    EXPECT_TRUE(c.contains(d));
}

TEST(Cache, ContainsDoesNotDisturbLru)
{
    Cache c(1024, 2);
    const Addr sets = c.numSets();
    const Addr a = 0, b = sets, d = 2 * sets;
    c.access(a);
    c.access(b);
    EXPECT_TRUE(c.contains(a)); // probe only
    c.access(d);                // should evict a (older than b)
    EXPECT_FALSE(c.contains(a));
    EXPECT_TRUE(c.contains(b));
}

TEST(Cache, InvalidateRemovesLine)
{
    Cache c(1024, 2);
    c.access(0x42);
    EXPECT_TRUE(c.invalidate(0x42));
    EXPECT_FALSE(c.contains(0x42));
    EXPECT_FALSE(c.invalidate(0x42)); // already gone
}

TEST(Cache, ResetClearsEverything)
{
    Cache c(1024, 2);
    c.access(1);
    c.access(1);
    c.reset();
    EXPECT_FALSE(c.contains(1));
    EXPECT_EQ(c.hits(), 0u);
    EXPECT_EQ(c.misses(), 0u);
}

TEST(Cache, SetIndexIsStable)
{
    Cache c(1024, 2); // 16 sets
    EXPECT_EQ(c.numSets(), 16u);
    EXPECT_EQ(c.setIndexOf(0), 0u);
    EXPECT_EQ(c.setIndexOf(15), 15u);
    EXPECT_EQ(c.setIndexOf(16), 0u);
    EXPECT_EQ(c.setIndexOf(31), 15u);
}

/**
 * Naive LRU reference: each set is a recency-ordered list of its
 * lines (front = most recent). A miss in a full set evicts the back.
 */
class ReferenceLru
{
  public:
    ReferenceLru(unsigned sets, unsigned ways) : ways_(ways), sets_(sets)
    {
    }

    /** True on hit; on a miss that evicts, @p evicted gets the line. */
    bool
    access(Addr line, std::optional<Addr> &evicted)
    {
        std::vector<Addr> &set = setOf(line);
        evicted.reset();
        const auto it = std::find(set.begin(), set.end(), line);
        const bool hit = it != set.end();
        if (hit) {
            set.erase(it);
            ++hits_;
        } else {
            if (set.size() == ways_) {
                evicted = set.back();
                set.pop_back();
            }
            ++misses_;
        }
        set.insert(set.begin(), line);
        return hit;
    }

    bool
    contains(Addr line)
    {
        const std::vector<Addr> &set = setOf(line);
        return std::find(set.begin(), set.end(), line) != set.end();
    }

    bool
    invalidate(Addr line)
    {
        std::vector<Addr> &set = setOf(line);
        const auto it = std::find(set.begin(), set.end(), line);
        if (it == set.end())
            return false;
        set.erase(it);
        return true;
    }

    void
    reset()
    {
        for (std::vector<Addr> &set : sets_)
            set.clear();
        hits_ = 0;
        misses_ = 0;
    }

    const std::vector<Addr> &
    linesInSetOf(Addr line)
    {
        return setOf(line);
    }

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

  private:
    std::vector<Addr> &
    setOf(Addr line)
    {
        return sets_[line & (sets_.size() - 1)];
    }

    unsigned ways_;
    std::vector<std::vector<Addr>> sets_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

TEST(Cache, MruWayMatchesReferenceLru)
{
    // Seeded random access/contains/invalidate/reset sequences, half
    // the accesses repeating the previous line so the last-way check
    // serves them: every result, every eviction and the hit/miss
    // counters match a naive per-set LRU. Some accesses are followed
    // by repeatLast(k), k in {1, 7, 4096}, which must equal k more
    // accesses of that line: the reference steps them, and the clock
    // must count every one. Halfway through, the run continues on a
    // copy while the original is reset and reused, so a last-way kept
    // as a pointer into the original's storage would answer from the
    // wrong cache.
    struct Geometry
    {
        unsigned bytes, ways;
    };
    for (const Geometry g : {Geometry{1024, 2}, Geometry{1024, 4},
                             Geometry{512, 1}, Geometry{2048, 8}}) {
        for (std::uint64_t seed = 1; seed <= 8; ++seed) {
            Cache original(g.bytes, g.ways);
            ReferenceLru ref(original.numSets(), g.ways);
            Xoshiro256ss rng(seed);
            const Addr pool = 3 * original.numSets() * g.ways;
            constexpr unsigned kSteps = 4000;
            std::optional<Cache> copy;
            Addr last = 0;
            std::uint64_t clock = 0; // accesses since the last reset
            for (unsigned step = 0; step < kSteps; ++step) {
                if (step == kSteps / 2) {
                    copy.emplace(original);
                    original.reset();
                    for (Addr line = 0; line < pool; ++line)
                        original.access(line);
                }
                Cache &c = copy ? *copy : original;
                const std::uint64_t op = rng.below(100);
                const Addr line = rng.below(2) ? last : rng.below(pool);
                if (op < 70) {
                    std::optional<Addr> evicted;
                    const bool want = ref.access(line, evicted);
                    ASSERT_EQ(c.access(line), want)
                        << "seed " << seed << " step " << step;
                    ++clock;
                    if (op < 10) {
                        const std::uint64_t k =
                            std::array<std::uint64_t, 3>{1, 7, 4096}[op % 3];
                        c.repeatLast(k);
                        std::optional<Addr> none;
                        for (std::uint64_t r = 0; r < k; ++r)
                            ASSERT_TRUE(ref.access(line, none));
                        clock += k;
                    }
                    if (evicted) {
                        ASSERT_FALSE(c.contains(*evicted))
                            << "seed " << seed << " step " << step;
                    }
                    for (const Addr resident : ref.linesInSetOf(line))
                        ASSERT_TRUE(c.contains(resident))
                            << "seed " << seed << " step " << step;
                } else if (op < 85) {
                    ASSERT_EQ(c.contains(line), ref.contains(line))
                        << "seed " << seed << " step " << step;
                } else if (op < 99) {
                    ASSERT_EQ(c.invalidate(line), ref.invalidate(line))
                        << "seed " << seed << " step " << step;
                } else {
                    c.reset();
                    ref.reset();
                    clock = 0;
                }
                last = line;
                ASSERT_EQ(c.hits(), ref.hits());
                ASSERT_EQ(c.misses(), ref.misses());
                ASSERT_EQ(c.useClock(), clock);
            }
        }
    }
}

TEST(Cache, StampWrapMatchesReferenceLru)
{
    // Ways carry 32-bit LRU stamps; before the clock wraps, each set's
    // stamps are renormalized to their ranks. Every 50 steps the clock
    // is pushed to just below 2^32, so the run crosses the wrap
    // dozens of times, with sets full, partly invalidated and empty,
    // and with repeatLast(k) right before and after a crossing: hits,
    // misses, victims and residency must still equal the reference
    // LRU's.
    struct Geometry
    {
        unsigned bytes, ways;
    };
    constexpr std::uint32_t kTop = 0xFFFFFFFFu;
    for (const Geometry g : {Geometry{1024, 4}, Geometry{512, 1},
                             Geometry{2048, 8}}) {
        for (std::uint64_t seed = 1; seed <= 4; ++seed) {
            Cache c(g.bytes, g.ways);
            ReferenceLru ref(c.numSets(), g.ways);
            Xoshiro256ss rng(seed);
            const Addr pool = 3 * c.numSets() * g.ways;
            Addr last = 0;
            unsigned wraps = 0;
            for (unsigned step = 0; step < 3000; ++step) {
                if (step % 50 == 49)
                    c.forceStampForTest(kTop - rng.below(4));
                const std::uint32_t before = c.stamp();
                const std::uint64_t op = rng.below(100);
                const Addr line = rng.below(2) ? last : rng.below(pool);
                if (op < 80) {
                    std::optional<Addr> evicted;
                    const bool want = ref.access(line, evicted);
                    ASSERT_EQ(c.access(line), want)
                        << "seed " << seed << " step " << step;
                    if (op < 15) {
                        const std::uint64_t k =
                            std::array<std::uint64_t, 3>{1, 7, 4096}[op % 3];
                        c.repeatLast(k);
                        std::optional<Addr> none;
                        for (std::uint64_t r = 0; r < k; ++r)
                            ASSERT_TRUE(ref.access(line, none));
                    }
                    if (evicted) {
                        ASSERT_FALSE(c.contains(*evicted))
                            << "seed " << seed << " step " << step;
                    }
                    for (const Addr resident : ref.linesInSetOf(line))
                        ASSERT_TRUE(c.contains(resident))
                            << "seed " << seed << " step " << step;
                } else if (op < 99) {
                    ASSERT_EQ(c.invalidate(line), ref.invalidate(line))
                        << "seed " << seed << " step " << step;
                } else {
                    c.reset();
                    ref.reset();
                }
                if (c.stamp() < before && c.stamp() != 0)
                    ++wraps;
                last = line;
                ASSERT_EQ(c.hits(), ref.hits());
                ASSERT_EQ(c.misses(), ref.misses());
            }
            EXPECT_GE(wraps, 20u) << "seed " << seed;
        }
    }
}

TEST(Cache, StampWrapKeepsEachSetsLruOrder)
{
    // One full 4-way set touched in the order a, b, d, e, then a again
    // across the wrap: renormalization must keep b as the LRU way, so
    // the next miss evicts b, then d.
    Cache c(1024, 4); // 8 sets
    const Addr sets = c.numSets();
    const Addr a = 0, b = sets, d = 2 * sets, e = 3 * sets;
    for (const Addr line : {a, b, d, e})
        EXPECT_FALSE(c.access(line));
    c.forceStampForTest(0xFFFFFFFFu);
    EXPECT_TRUE(c.access(a)); // the access that wraps the clock
    EXPECT_LE(c.stamp(), 5u);
    EXPECT_FALSE(c.access(4 * sets));
    EXPECT_FALSE(c.contains(b));
    EXPECT_FALSE(c.access(5 * sets));
    EXPECT_FALSE(c.contains(d));
    for (const Addr line : {a, e, 4 * sets, 5 * sets})
        EXPECT_TRUE(c.contains(line)) << line;
}

TEST(Cache, InvalidatedWayOfAFullSetIsRefilledFirst)
{
    // A way is invalid iff its LRU stamp is 0. Invalidating lines of a
    // full set must free exactly their ways: refills take them, in any
    // order, and evict none of the lines still resident.
    Cache c(1024, 4); // 8 sets, 4 ways
    const Addr sets = c.numSets();
    const Addr a = 0, b = sets, d = 2 * sets, e = 3 * sets;
    for (const Addr line : {a, b, d, e})
        EXPECT_FALSE(c.access(line));
    EXPECT_TRUE(c.invalidate(b));
    EXPECT_FALSE(c.contains(b));
    EXPECT_FALSE(c.invalidate(b));
    EXPECT_TRUE(c.invalidate(d));
    const Addr f = 4 * sets, g = 5 * sets;
    EXPECT_FALSE(c.access(f));
    EXPECT_FALSE(c.access(g));
    for (const Addr line : {a, e, f, g})
        EXPECT_TRUE(c.contains(line)) << line;
    // Full again: the next miss evicts the least recently used, a.
    EXPECT_FALSE(c.access(b));
    EXPECT_FALSE(c.contains(a));
    for (const Addr line : {e, f, g, b})
        EXPECT_TRUE(c.contains(line)) << line;
}

TEST(Cache, GeometryIsValidated)
{
    EXPECT_EQ(cacheGeometryError(32 * 1024, 4), nullptr);
    EXPECT_EQ(cacheGeometryError(8 * 1024 * 1024, 8), nullptr);
    EXPECT_NE(cacheGeometryError(1024, 0), nullptr);
    EXPECT_NE(cacheGeometryError(16, 1), nullptr);   // below one set
    EXPECT_NE(cacheGeometryError(32 * 1024, 3), nullptr); // partial set
    EXPECT_NE(cacheGeometryError(6 * 1024 * 1024, 8), nullptr); // 24576 sets
    EXPECT_THROW(Cache(6 * 1024 * 1024, 8), ConfigError);
    EXPECT_THROW(Cache(32 * 1024, 3), ConfigError);
}

TEST(CacheHierarchy, MissFillsBothLevels)
{
    MachineConfig cfg;
    cfg.numProcs = 2;
    CacheHierarchy h(cfg);
    EXPECT_EQ(h.access(0, 0x123), HitLevel::kMemory);
    EXPECT_EQ(h.access(0, 0x123), HitLevel::kL1);
    // Other processor finds it in the shared L2.
    EXPECT_EQ(h.access(1, 0x123), HitLevel::kL2);
    EXPECT_EQ(h.access(1, 0x123), HitLevel::kL1);
}

TEST(CacheHierarchy, ProbeDoesNotFill)
{
    MachineConfig cfg;
    cfg.numProcs = 1;
    CacheHierarchy h(cfg);
    EXPECT_EQ(h.probe(0, 0x55), HitLevel::kMemory);
    EXPECT_EQ(h.access(0, 0x55), HitLevel::kMemory); // still a miss
}

TEST(CacheHierarchy, InvalidateOthersSparesWriter)
{
    MachineConfig cfg;
    cfg.numProcs = 4;
    CacheHierarchy h(cfg);
    for (ProcId p = 0; p < 4; ++p)
        h.access(p, 0x77);
    h.invalidateOthers(2, 0x77);
    EXPECT_EQ(h.probe(2, 0x77), HitLevel::kL1);
    EXPECT_EQ(h.probe(0, 0x77), HitLevel::kL2); // L1 copy invalidated
    EXPECT_EQ(h.probe(1, 0x77), HitLevel::kL2);
    EXPECT_EQ(h.probe(3, 0x77), HitLevel::kL2);
}

TEST(CacheHierarchy, PolluteWarmsL1)
{
    MachineConfig cfg;
    cfg.numProcs = 1;
    CacheHierarchy h(cfg);
    h.pollute(0, 0x99);
    EXPECT_EQ(h.probe(0, 0x99), HitLevel::kL1);
}

TEST(CacheHierarchy, ResetEmptiesAll)
{
    MachineConfig cfg;
    cfg.numProcs = 2;
    CacheHierarchy h(cfg);
    h.access(0, 1);
    h.access(1, 2);
    h.reset();
    EXPECT_EQ(h.probe(0, 1), HitLevel::kMemory);
    EXPECT_EQ(h.probe(1, 2), HitLevel::kMemory);
}

} // namespace
} // namespace delorean
