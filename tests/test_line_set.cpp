/**
 * @file
 * LineSet: the epoch-cleared open-addressed set backing the engine's
 * per-chunk read/write line sets and the stratifier's per-processor
 * sets. Must behave exactly like a set (dedup, membership), list each
 * member once, keep its capacity across clear() (the engine recycles
 * these per chunk) and survive its 32-bit epoch wrapping.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "common/line_set.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace delorean
{
namespace
{

TEST(LineSet, InsertReportsNewness)
{
    LineSet s;
    EXPECT_TRUE(s.insert(5));
    EXPECT_TRUE(s.insert(3));
    EXPECT_FALSE(s.insert(5));
    EXPECT_FALSE(s.insert(3));
    EXPECT_TRUE(s.insert(4));
    EXPECT_EQ(s.size(), 3u);
}

TEST(LineSet, ContainsMatchesInserted)
{
    LineSet s;
    for (Addr a : {9, 1, 7, 3, 7, 1})
        s.insert(static_cast<Addr>(a));
    EXPECT_TRUE(s.contains(1));
    EXPECT_TRUE(s.contains(3));
    EXPECT_TRUE(s.contains(7));
    EXPECT_TRUE(s.contains(9));
    EXPECT_FALSE(s.contains(0));
    EXPECT_FALSE(s.contains(2));
    EXPECT_FALSE(s.contains(10));
}

TEST(LineSet, IteratesEachMemberOnce)
{
    // Members come back in insertion order, each exactly once, across
    // the rehashes a few hundred inserts force.
    Xoshiro256ss rng(42);
    LineSet s;
    std::vector<Addr> first_seen;
    std::unordered_set<Addr> seen;
    for (int i = 0; i < 2000; ++i) {
        const Addr a = rng.below(700);
        s.insert(a);
        if (seen.insert(a).second)
            first_seen.push_back(a);
    }
    EXPECT_EQ(std::vector<Addr>(s.begin(), s.end()), first_seen);
    EXPECT_EQ(s.members(), first_seen);
}

TEST(LineSet, MatchesUnorderedSetSemantics)
{
    // A random insert/contains/clear stream over a key range wider
    // than the set ever holds at once, so probe chains wrap the slot
    // array and cleared members share slots with live ones.
    Xoshiro256ss rng(7);
    LineSet set;
    std::unordered_set<Addr> ref;
    for (int i = 0; i < 20000; ++i) {
        const std::uint64_t op = rng.below(100);
        const Addr a = rng.below(1500) * 1024; // line-like strides
        if (op < 60) {
            ASSERT_EQ(set.insert(a), ref.insert(a).second) << i;
        } else if (op < 99) {
            ASSERT_EQ(set.contains(a), ref.count(a) != 0) << i;
        } else {
            set.clear();
            ref.clear();
        }
        ASSERT_EQ(set.size(), ref.size()) << i;
    }
    for (Addr a = 0; a < 1500; ++a)
        EXPECT_EQ(set.contains(a * 1024), ref.count(a * 1024) != 0);
}

TEST(LineSet, ClearKeepsCapacity)
{
    LineSet s;
    for (Addr a = 0; a < 1000; ++a)
        s.insert(a * 3);
    const std::size_t grown = s.capacity();
    EXPECT_GE(grown, 2000u);
    s.clear();
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.size(), 0u);
    EXPECT_EQ(s.begin(), s.end());
    EXPECT_FALSE(s.contains(3));
    EXPECT_EQ(s.capacity(), grown);
    // Reusable after clear, without shrinking or growing.
    EXPECT_TRUE(s.insert(3));
    EXPECT_TRUE(s.contains(3));
    EXPECT_FALSE(s.contains(6));
    EXPECT_EQ(s.capacity(), grown);
}

// The epoch counter is 32-bit; when clear() wraps it back to the
// starting epoch, the hard reset must keep members from 2^32 clears
// ago dead. forceEpochForTest skips the four billion clear() calls.
TEST(LineSet, EpochWraparoundHardReset)
{
    LineSet s;
    s.insert(100); // under the initial epoch (1)
    s.insert(200);

    s.forceEpochForTest(0xFFFFFFFFu);
    EXPECT_TRUE(s.empty());
    EXPECT_FALSE(s.contains(100));
    EXPECT_TRUE(s.insert(300)); // under epoch 0xFFFFFFFF
    EXPECT_EQ(s.size(), 1u);

    // The wrapping clear() lands back on the initial epoch, where 100
    // and 200 were written: only the hard reset keeps their slots from
    // coming back to life.
    s.clear();
    EXPECT_TRUE(s.empty());
    EXPECT_FALSE(s.contains(100));
    EXPECT_FALSE(s.contains(200));
    EXPECT_FALSE(s.contains(300));

    // Normal operation after the wrap.
    EXPECT_TRUE(s.insert(100));
    EXPECT_FALSE(s.insert(100));
    EXPECT_EQ(s.members(), std::vector<Addr>{100});
    s.clear();
    EXPECT_FALSE(s.contains(100));
}

TEST(LineSet, GrowthUnderForcedEpochKeepsMembers)
{
    LineSet s;
    s.forceEpochForTest(0xFFFFFFF0u);
    for (Addr a = 0; a < 1000; ++a)
        ASSERT_TRUE(s.insert(a));
    ASSERT_EQ(s.size(), 1000u);
    for (Addr a = 0; a < 1000; ++a)
        ASSERT_TRUE(s.contains(a)) << a;
    EXPECT_FALSE(s.contains(1000));
    s.clear();
    EXPECT_TRUE(s.empty());
    for (Addr a = 0; a < 1000; ++a)
        ASSERT_FALSE(s.contains(a)) << a;
}

} // namespace
} // namespace delorean
