/**
 * @file
 * Tests for the arbiter commit fast path: the summary/union conflict
 * filters must be invisible to the architecture (recordings
 * byte-identical to the unfiltered word-walk reference), and the
 * epoch-cleared flat maps backing it must behave like their
 * straightforward reference counterparts under churn.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <unordered_map>

#include "common/rng.hpp"
#include "common/word_map.hpp"
#include "core/recorder.hpp"
#include "core/serialize.hpp"
#include "memory/memory_state.hpp"

namespace delorean
{
namespace
{

constexpr std::uint64_t kSeed = 20080621;

std::string
serialized(const Recording &rec)
{
    std::ostringstream out;
    saveRecording(rec, out);
    return out.str();
}

Recording
recordSmall(const char *app, bool exact_disambiguation,
            const ModeConfig &mode = ModeConfig::orderOnly())
{
    MachineConfig machine;
    machine.bulk.exactDisambiguation = exact_disambiguation;
    const Workload workload(app, machine.numProcs, kSeed,
                            WorkloadScale{3});
    return Recorder(mode, machine).record(workload, 7);
}

// The filters are pure short-circuits: every recording must match the
// one the unfiltered word walk (every running chunk's R and W
// signatures intersected in full, no summary or union precheck)
// produced — in every execution mode, under both exact and signature
// disambiguation. The reference is kept as the recording-file
// hashes of those unfiltered runs.
TEST(CommitFastPath, FilterOnOffRecordingsByteIdentical)
{
    struct Reference
    {
        const char *label;
        ModeConfig mode;
        bool exact;
        std::uint64_t unfilteredHash;
    };
    // Re-pinned for .dlrec v3 and again for v4: these recordings
    // take no checkpoints, so only the format version field moved
    // (the v4 bytes with the version set back to 3 hash to the v3
    // pins). The v2 pins, in order, were 0xffaa36f72880a623,
    // 0x26b5c7e0fc5941a4, 0x760a6504f4a33aa3, 0x665e158fda57f4b6,
    // 0xb28e8c6ce5b224ae and 0x0f62e188d43dd4bd; the v3 pins
    // 0x285cd59ff4028f1b, 0x8e822437ccd1f64f, 0x2924dccd460b52b8,
    // 0xc9377219d2431b6a, 0x65f40ad9aca00ec7 and 0x475f3dbe3e6169d8.
    // Re-pinned once more when the `.dla` (v6) became the one
    // recording file: the `.dlrec` v4 encoder, run on each recording
    // these `.dla` bytes load back to, still gives the v4 pins
    // 0xa384f2b431ed0842, 0xa0f4965e8b109e99, 0x2234db9cf3bc2b0b,
    // 0xa097cb7239ac7a67, 0x3cfe0c1b38f717b7 and 0x192cf82705b62cb9.
    const Reference refs[] = {
        {"order-and-size", ModeConfig::orderAndSize(), true,
         0x4fee4683e41b05bcull},
        {"order-and-size", ModeConfig::orderAndSize(), false,
         0xa051dc7e1a0c8db9ull},
        {"order-only", ModeConfig::orderOnly(), true,
         0x76f71b07eb5e3b67ull},
        {"order-only", ModeConfig::orderOnly(), false,
         0xd535a45ae7745053ull},
        {"picolog", ModeConfig::picoLog(), true, 0x18b28a21b105b56full},
        {"picolog", ModeConfig::picoLog(), false, 0xb152c369c41ba5f0ull},
    };
    for (const Reference &r : refs) {
        const std::uint64_t h =
            hashBytes(serialized(recordSmall("radix", r.exact, r.mode)));
        EXPECT_EQ(h, r.unfilteredHash)
            << r.label << " exactDisambiguation=" << r.exact << std::hex
            << " hash 0x" << h;
    }
}

TEST(CommitFastPath, FilteredRecordingReplaysDeterministically)
{
    const Recording rec = recordSmall("fft", false);
    const ReplayOutcome out = Replayer().replay(rec, /*env_seed=*/99);
    EXPECT_TRUE(out.deterministicExact);
}

// Under signature disambiguation the always-on filter does work: the
// summary prechecks run, and the sweeps that walked chunks are counted.
TEST(CommitFastPath, FilterCountersMove)
{
    const Recording rec = recordSmall("radix", false);
    EXPECT_GT(rec.stats.sigSummaryRejects + rec.stats.sigSummaryHits,
              0u);
    EXPECT_GT(rec.stats.conflictSweeps, 0u);
}

// WordMap's epoch clear must make the map indistinguishable from a
// fresh one, across many clear cycles and across growth and reserve.
TEST(WordMap, EpochClearAndGrowthMatchReference)
{
    Xoshiro256ss rng(21);
    WordMap map;
    for (unsigned cycle = 0; cycle < 50; ++cycle) {
        std::unordered_map<Addr, std::uint64_t> ref;
        // Vary the population so some cycles force growth while
        // earlier epochs' slots are still physically present.
        const unsigned inserts =
            10 + static_cast<unsigned>(rng.next() % 3000);
        for (unsigned i = 0; i < inserts; ++i) {
            const Addr key = rng.next() % 2048;
            const std::uint64_t value = rng.next();
            map[key] = value;
            ref[key] = value;
            // Reserving mid-cycle rehashes the live entries too.
            if (cycle % 5 == 0 && i == inserts / 2)
                map.reserve(ref.size() + 1500);
        }
        ASSERT_EQ(map.size(), ref.size());
        for (const auto &[key, value] : ref) {
            const std::uint64_t *found = map.find(key);
            ASSERT_NE(found, nullptr);
            ASSERT_EQ(*found, value);
        }
        // Keys from the previous epoch must read as absent.
        for (unsigned probe = 0; probe < 100; ++probe) {
            const Addr key = rng.next() % 4096;
            ASSERT_EQ(map.contains(key), ref.count(key) != 0);
        }
        map.clear();
        ASSERT_TRUE(map.empty());
        ASSERT_EQ(map.find(rng.next() % 2048), nullptr);
    }
}

TEST(WordMap, OperatorBracketDefaultsToZero)
{
    WordMap map;
    EXPECT_EQ(map[42], 0u);
    map[42] += 7;
    EXPECT_EQ(map[42], 7u);
    map.clear();
    EXPECT_EQ(map[42], 0u);
}

// The epoch counter is 32-bit; when clear() wraps it back to the
// starting epoch, the wraparound hard reset must keep entries from
// 2^32 clears ago dead. Without forceEpochForTest this would need
// four billion clear() calls to reach.
TEST(WordMap, EpochWraparoundHardReset)
{
    WordMap map;
    map[100] = 1; // written under the initial epoch (1)
    map[200] = 2;

    map.forceEpochForTest(0xFFFFFFFFu);
    // Entries from other epochs read as absent...
    EXPECT_TRUE(map.empty());
    EXPECT_FALSE(map.contains(100));
    map[300] = 3; // written under epoch 0xFFFFFFFF
    EXPECT_EQ(map.size(), 1u);

    // ...and the wrapping clear() lands back on the *initial* epoch,
    // where keys 100/200 were written: only the hard reset keeps
    // their slots from coming back to life.
    map.clear();
    EXPECT_TRUE(map.empty());
    EXPECT_FALSE(map.contains(100));
    EXPECT_FALSE(map.contains(200));
    EXPECT_FALSE(map.contains(300));
    EXPECT_EQ(map.find(100), nullptr);

    // The map keeps working normally after the wrap.
    map[100] = 7;
    EXPECT_EQ(map.size(), 1u);
    EXPECT_EQ(map[100], 7u);
    map.clear();
    EXPECT_FALSE(map.contains(100));
}

TEST(WordMap, GrowthUnderForcedEpochKeepsEntries)
{
    WordMap map;
    map.forceEpochForTest(0xFFFFFFF0u);
    // Enough inserts to force at least one growth rehash.
    for (Addr k = 0; k < 1000; ++k)
        map[k] = k * 3;
    ASSERT_EQ(map.size(), 1000u);
    for (Addr k = 0; k < 1000; ++k) {
        const std::uint64_t *found = map.find(k);
        ASSERT_NE(found, nullptr);
        ASSERT_EQ(*found, k * 3);
    }
    map.clear();
    EXPECT_TRUE(map.empty());
    EXPECT_FALSE(map.contains(0));
}

// MemoryState's open-addressed table erases entries when a word is
// restored to its deterministic initial value; randomized churn must
// match a reference model, exercising backward-shift deletion.
TEST(MemoryState, RandomChurnMatchesReference)
{
    Xoshiro256ss rng(22);
    MemoryState mem;
    std::unordered_map<Addr, std::uint64_t> ref;
    for (unsigned step = 0; step < 50000; ++step) {
        // Small key range so stores, overwrites and resets to the
        // initial value (deletions) all happen often and cluster.
        const Addr addr = (rng.next() % 1500) * 8;
        if (rng.next() % 4 == 0) {
            mem.store(addr, MemoryState::initValue(addr));
            ref.erase(addr);
        } else {
            const std::uint64_t value = rng.next();
            mem.store(addr, value);
            ref[addr] = value;
        }
        if (step % 64 == 0) {
            const Addr probe = (rng.next() % 1500) * 8;
            const auto it = ref.find(probe);
            const std::uint64_t expect = it != ref.end()
                                             ? it->second
                                             : MemoryState::initValue(probe);
            ASSERT_EQ(mem.load(probe), expect);
        }
    }
    ASSERT_EQ(mem.population(), ref.size());
    for (const auto &[addr, value] : ref)
        ASSERT_EQ(mem.load(addr), value);

    // forEachWord must visit exactly the live entries.
    std::size_t visited = 0;
    mem.forEachWord([&](Addr addr, std::uint64_t value) {
        ++visited;
        const auto it = ref.find(addr);
        ASSERT_NE(it, ref.end());
        ASSERT_EQ(it->second, value);
    });
    EXPECT_EQ(visited, ref.size());
}

} // namespace
} // namespace delorean