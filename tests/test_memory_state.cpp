/**
 * @file
 * Unit tests for MemoryState (memory/memory_state.hpp) and its undo
 * journal (memory/undo_journal.hpp).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "memory/memory_state.hpp"
#include "memory/undo_journal.hpp"

namespace delorean
{
namespace
{

TEST(MemoryState, UntouchedWordsReadDeterministicDefaults)
{
    MemoryState a, b;
    EXPECT_EQ(a.load(100), b.load(100));
    EXPECT_EQ(a.load(100), MemoryState::initValue(100));
    EXPECT_NE(a.load(100), a.load(101));
}

TEST(MemoryState, StoreThenLoad)
{
    MemoryState m;
    m.store(7, 0xABCDEF);
    EXPECT_EQ(m.load(7), 0xABCDEFu);
}

TEST(MemoryState, OverwriteKeepsLatest)
{
    MemoryState m;
    m.store(1, 10);
    m.store(1, 20);
    EXPECT_EQ(m.load(1), 20u);
    EXPECT_EQ(m.population(), 1u);
}

TEST(MemoryState, StoringDefaultValueFreesStorage)
{
    MemoryState m;
    m.store(5, 123);
    EXPECT_EQ(m.population(), 1u);
    m.store(5, MemoryState::initValue(5));
    EXPECT_EQ(m.population(), 0u);
    EXPECT_EQ(m.load(5), MemoryState::initValue(5));
}

TEST(MemoryState, HashEqualForEqualContent)
{
    MemoryState a, b;
    a.store(1, 11);
    a.store(2, 22);
    b.store(2, 22);
    b.store(1, 11); // different order, same content
    EXPECT_EQ(a.hash(), b.hash());
    EXPECT_EQ(a, b);
}

TEST(MemoryState, HashDiffersForDifferentContent)
{
    MemoryState a, b;
    a.store(1, 11);
    b.store(1, 12);
    EXPECT_NE(a.hash(), b.hash());
}

TEST(MemoryState, HashIgnoresRedundantDefaultWrites)
{
    MemoryState a, b;
    a.store(9, MemoryState::initValue(9));
    EXPECT_EQ(a.hash(), b.hash());
}

TEST(MemoryState, SnapshotIsIndependent)
{
    MemoryState m;
    m.store(3, 33);
    MemoryState snap = m.snapshot();
    m.store(3, 44);
    EXPECT_EQ(snap.load(3), 33u);
    EXPECT_EQ(m.load(3), 44u);
}

using Changes =
    std::pair<std::vector<std::pair<Addr, std::uint64_t>>,
              std::vector<Addr>>;

/** forEachChange() results, sorted. */
Changes
changesOf(const MemoryState &base, const MemoryState &now)
{
    Changes c;
    now.forEachChange(
        base,
        [&c](Addr addr, std::uint64_t value) {
            c.first.emplace_back(addr, value);
        },
        [&c](Addr addr) { c.second.push_back(addr); });
    std::sort(c.first.begin(), c.first.end());
    std::sort(c.second.begin(), c.second.end());
    return c;
}

/** The reference diff: look every live word up in the other state. */
Changes
lookupDiff(const MemoryState &base, const MemoryState &now)
{
    Changes c;
    now.forEachWord([&](Addr addr, std::uint64_t value) {
        if (base.load(addr) != value)
            c.first.emplace_back(addr, value);
    });
    base.forEachWord([&](Addr addr, std::uint64_t) {
        if (!now.contains(addr))
            c.second.push_back(addr);
    });
    std::sort(c.first.begin(), c.first.end());
    std::sort(c.second.begin(), c.second.end());
    return c;
}

TEST(MemoryState, ContainsTracksLiveWords)
{
    MemoryState m;
    EXPECT_FALSE(m.contains(7));
    m.store(7, 1);
    EXPECT_TRUE(m.contains(7));
    m.store(7, MemoryState::initValue(7));
    EXPECT_FALSE(m.contains(7));
}

/**
 * The lockstep diff equals the lookup diff over random histories:
 * rewrites, stores of a word's default value (which erase it), fresh
 * words that grow the table between two snapshots (capacities then
 * differ), and erases that backward-shift words into other slots
 * (capacities equal, layouts not).
 */
TEST(MemoryState, ForEachChangeMatchesLookupDiff)
{
    Xoshiro256ss rng(0xD1FFull);
    MemoryState m;
    MemoryState prev = m.snapshot();
    for (int step = 0; step < 60; ++step) {
        const unsigned stores = static_cast<unsigned>(rng.below(400));
        // A few steps add thousands of fresh words to force a rehash.
        const Addr span = step % 15 == 7 ? 20000 : 3000;
        for (unsigned k = 0; k < stores + (span > 3000 ? 3000u : 0u);
             ++k) {
            const Addr addr = rng.below(span);
            if (rng.below(4) == 0)
                m.store(addr, MemoryState::initValue(addr));
            else
                m.store(addr, rng.below(8));
        }
        const MemoryState cur = m.snapshot();
        EXPECT_EQ(changesOf(prev, cur), lookupDiff(prev, cur))
            << "step " << step;
        EXPECT_EQ(changesOf(cur, prev), lookupDiff(cur, prev))
            << "step " << step;
        prev = cur;
    }

    // Equal content, different insertion order: no changes either way.
    MemoryState a, b;
    for (Addr addr = 0; addr < 2000; ++addr)
        a.store(addr, addr + 1);
    for (Addr addr = 2000; addr-- > 0;)
        b.store(addr, addr + 1);
    ASSERT_TRUE(a == b);
    EXPECT_EQ(changesOf(a, b), Changes());
    EXPECT_EQ(changesOf(b, a), Changes());
}

/**
 * The undo journal against a full-snapshot oracle, over random store
 * histories that include stores of a word's default value (erasing
 * it), a store followed by a restore of the word's old value inside
 * one interval (no change), and bursts of fresh words that grow the
 * table between two cuts. At every cut the journal's delta equals the
 * sorted forEachChange() lists against the snapshot taken at the last
 * cut, and the hash it carries equals hash().
 */
TEST(MemoryState, UndoJournalMatchesSnapshotDiff)
{
    Xoshiro256ss rng(0x10C4ull);
    MemoryState m;
    UndoJournal journal;
    MemoryState oracle = m.snapshot();
    std::uint64_t hash = m.hash();
    std::size_t restored = 0;
    std::size_t grew = 0;
    std::size_t default_stores = 0;
    const auto store = [&](Addr addr, std::uint64_t value) {
        journal.logStore(m, addr);
        m.store(addr, value);
    };
    for (int step = 0; step < 60; ++step) {
        const std::size_t before = m.population();
        const bool burst = step % 13 == 6;
        const unsigned stores =
            static_cast<unsigned>(rng.below(400)) + (burst ? 5000u : 0u);
        for (unsigned k = 0; k < stores; ++k) {
            const Addr addr = rng.below(burst ? 30000 : 3000);
            switch (rng.below(6)) {
              case 0:
                default_stores += m.contains(addr) ? 1 : 0;
                store(addr, MemoryState::initValue(addr));
                break;
              case 1: {
                // Write, then put the old value back: not a change.
                const std::uint64_t old = m.load(addr);
                store(addr, rng.next());
                store(addr, old);
                restored += oracle.load(addr) == old ? 1 : 0;
                break;
              }
              default:
                store(addr, rng.below(8));
            }
        }
        grew += burst && m.population() > 2 * before;

        const MemoryDelta delta = journal.cut(m, hash);
        const Changes want = changesOf(oracle, m);
        EXPECT_EQ(delta.changed, want.first) << "step " << step;
        EXPECT_EQ(delta.erased, want.second) << "step " << step;
        EXPECT_EQ(hash, m.hash()) << "step " << step;
        const MemoryDelta diffed = MemoryDelta::between(oracle, m);
        EXPECT_EQ(diffed.changed, want.first);
        EXPECT_EQ(diffed.erased, want.second);
        oracle = m.snapshot();
    }
    EXPECT_GT(restored, 0u);
    EXPECT_GT(grew, 0u);
    EXPECT_GT(default_stores, 0u);
}

} // namespace
} // namespace delorean
