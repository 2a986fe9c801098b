/**
 * @file
 * Unit tests for SpecTracker (chunk/spec_tracker.hpp).
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "chunk/spec_tracker.hpp"
#include "common/rng.hpp"

namespace delorean
{
namespace
{

TEST(SpecTracker, OverflowAtWayLimit)
{
    SpecTracker t(8, 2); // 8 sets, 2 ways
    // Lines mapping to set 0: multiples of 8.
    EXPECT_FALSE(t.wouldOverflow(0));
    t.insert(0);
    EXPECT_FALSE(t.wouldOverflow(8));
    t.insert(8);
    EXPECT_TRUE(t.wouldOverflow(16)); // third line in set 0
    EXPECT_FALSE(t.wouldOverflow(1)); // different set is fine
}

TEST(SpecTracker, ExistingLineNeverOverflows)
{
    SpecTracker t(8, 1);
    t.insert(0);
    EXPECT_TRUE(t.wouldOverflow(8));
    EXPECT_FALSE(t.wouldOverflow(0)); // already resident
}

TEST(SpecTracker, RefcountAcrossChunks)
{
    SpecTracker t(8, 2);
    t.insert(0); // chunk A writes line 0
    t.insert(0); // chunk B also writes line 0
    EXPECT_EQ(t.setCount(0), 1u);
    t.remove(0); // chunk A commits
    EXPECT_EQ(t.setCount(0), 1u); // still held by chunk B
    t.remove(0); // chunk B commits
    EXPECT_EQ(t.setCount(0), 0u);
}

TEST(SpecTracker, RemoveAllReleasesChunkLines)
{
    SpecTracker t(16, 2);
    std::vector<Addr> chunk_lines{0, 16, 5, 21};
    for (const Addr l : chunk_lines)
        t.insert(l);
    EXPECT_EQ(t.distinctLines(), 4u);
    t.removeAll(chunk_lines);
    EXPECT_EQ(t.distinctLines(), 0u);
    EXPECT_EQ(t.setCount(0), 0u);
    EXPECT_EQ(t.setCount(5), 0u);
}

TEST(SpecTracker, RemoveUnknownLineIsNoop)
{
    SpecTracker t(8, 2);
    t.remove(123);
    EXPECT_EQ(t.distinctLines(), 0u);
}

TEST(SpecTracker, FillFreeFillCycle)
{
    SpecTracker t(4, 2);
    t.insert(0);
    t.insert(4);
    EXPECT_TRUE(t.wouldOverflow(8));
    t.remove(0);
    EXPECT_FALSE(t.wouldOverflow(8));
    t.insert(8);
    EXPECT_TRUE(t.wouldOverflow(12));
}

TEST(SpecTracker, ContainsFollowsReferences)
{
    SpecTracker t(8, 2);
    EXPECT_FALSE(t.contains(3));
    t.insert(3);
    t.insert(3);
    EXPECT_TRUE(t.contains(3));
    EXPECT_FALSE(t.contains(11)); // same set, not inserted
    t.remove(3);
    EXPECT_TRUE(t.contains(3)); // one reference left
    t.remove(3);
    EXPECT_FALSE(t.contains(3));
}

TEST(SpecTracker, FullSetFreesTheRemovedLinesWay)
{
    // A full 4-way set: releasing any one of its lines, first, middle
    // or last inserted, frees exactly that way; the others stay
    // tracked and the set refills to full again.
    for (unsigned victim = 0; victim < 4; ++victim) {
        SpecTracker t(4, 4);
        const std::vector<Addr> lines{2, 6, 10, 14}; // all set 2
        for (const Addr l : lines)
            t.insert(l);
        EXPECT_EQ(t.setCount(2), 4u);
        EXPECT_TRUE(t.wouldOverflow(18));
        t.remove(lines[victim]);
        EXPECT_EQ(t.setCount(2), 3u);
        EXPECT_FALSE(t.contains(lines[victim]));
        for (unsigned k = 0; k < 4; ++k) {
            if (k != victim) {
                EXPECT_TRUE(t.contains(lines[k])) << victim << " " << k;
            }
        }
        EXPECT_FALSE(t.wouldOverflow(18));
        t.insert(18);
        EXPECT_EQ(t.setCount(2), 4u);
        EXPECT_TRUE(t.wouldOverflow(lines[victim]));
        EXPECT_FALSE(t.wouldOverflow(18));
        EXPECT_EQ(t.distinctLines(), 4u);
        EXPECT_EQ(t.setCount(1), 0u);
    }
}

TEST(SpecTracker, RandomStreamMatchesRefcountedReference)
{
    // Inserts guarded by wouldOverflow (as the engine guards them) and
    // removes of random lines, against a refcounted map: contains,
    // wouldOverflow, setCount and distinctLines agree at every step.
    constexpr unsigned kSets = 8, kWays = 2;
    SpecTracker t(kSets, kWays);
    std::map<Addr, unsigned> ref;
    Xoshiro256ss rng(11);
    auto set_count = [&](unsigned set) {
        unsigned n = 0;
        for (const auto &[line, refs] : ref)
            n += (line % kSets) == set;
        return n;
    };
    for (int i = 0; i < 5000; ++i) {
        const Addr line = rng.below(48);
        const bool overflow = !ref.count(line)
                              && set_count(line % kSets) >= kWays;
        ASSERT_EQ(t.wouldOverflow(line), overflow) << i;
        if (rng.below(2)) {
            if (!overflow) {
                t.insert(line);
                ++ref[line];
            }
        } else {
            t.remove(line);
            const auto it = ref.find(line);
            if (it != ref.end() && --it->second == 0)
                ref.erase(it);
        }
        ASSERT_EQ(t.contains(line), ref.count(line) != 0) << i;
        ASSERT_EQ(t.setCount(line % kSets), set_count(line % kSets)) << i;
        ASSERT_EQ(t.distinctLines(), ref.size()) << i;
    }
}

} // namespace
} // namespace delorean
