/**
 * @file
 * Unit tests for Bulk-style signatures (signature/signature.hpp).
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "signature/signature.hpp"

namespace delorean
{
namespace
{

TEST(Signature, StartsEmpty)
{
    Signature s;
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.popCount(), 0u);
}

TEST(Signature, NoFalseNegatives)
{
    Signature s;
    Xoshiro256ss rng(1);
    std::vector<Addr> lines;
    for (int i = 0; i < 64; ++i)
        lines.push_back(rng.next() >> 5);
    for (const Addr l : lines)
        s.insert(l);
    for (const Addr l : lines)
        EXPECT_TRUE(s.mayContain(l));
}

TEST(Signature, MostlyRejectsAbsentLines)
{
    Signature s;
    Xoshiro256ss rng(2);
    for (int i = 0; i < 32; ++i)
        s.insert(rng.next() >> 5);
    int false_positives = 0;
    const int probes = 10000;
    for (int i = 0; i < probes; ++i)
        false_positives += s.mayContain(rng.next() | (1ull << 60));
    // 32 lines * 4 hashes in 2048 bits: FP rate well under 1%.
    EXPECT_LT(false_positives, probes / 100);
}

TEST(Signature, IntersectsDetectsSharedLine)
{
    Signature a, b;
    a.insert(0x1000);
    b.insert(0x2000);
    EXPECT_FALSE(a.intersects(b));
    b.insert(0x1000);
    EXPECT_TRUE(a.intersects(b));
}

TEST(Signature, IntersectionIsSymmetric)
{
    Signature a, b;
    Xoshiro256ss rng(3);
    for (int i = 0; i < 20; ++i)
        a.insert(rng.next() >> 8);
    for (int i = 0; i < 20; ++i)
        b.insert(rng.next() >> 8);
    EXPECT_EQ(a.intersects(b), b.intersects(a));
}

TEST(Signature, UnionContainsBoth)
{
    Signature a, b;
    a.insert(10);
    b.insert(20);
    a.unionWith(b);
    EXPECT_TRUE(a.mayContain(10));
    EXPECT_TRUE(a.mayContain(20));
}

TEST(Signature, ClearEmpties)
{
    Signature s;
    s.insert(123);
    EXPECT_FALSE(s.empty());
    s.clear();
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.popCount(), 0u);
}

TEST(Signature, PopCountBounded)
{
    Signature s;
    s.insert(42);
    EXPECT_LE(s.popCount(), Signature::kBanks);
    EXPECT_GE(s.popCount(), 1u);
}

TEST(Signature, LocalityKeepsHighBanksSparse)
{
    // Bulk-style banked signatures: inserting a run of consecutive
    // lines sets far fewer bits than random hashing would, because the
    // high-shift banks advance slowly.
    Signature s;
    for (Addr line = 0x8000; line < 0x8000 + 256; ++line)
        s.insert(line);
    EXPECT_LT(s.popCount(), 256u + 64 + 16 + 2);
}

TEST(Signature, DisjointRegionsDoNotConflict)
{
    // Chunks touching different address regions (e.g. two processors'
    // private heaps) must not produce false conflicts.
    Signature a, b;
    for (Addr k = 0; k < 200; ++k) {
        a.insert(0x1000000 + k);
        b.insert(0x2000000 + k);
    }
    EXPECT_FALSE(a.intersects(b));
}

TEST(Signature, EqualityByContent)
{
    Signature a, b;
    a.insert(5);
    b.insert(5);
    EXPECT_EQ(a, b);
    b.insert(6);
    EXPECT_NE(a, b);
}

TEST(Signature, SmallerSignaturesHaveMoreFalsePositives)
{
    SignatureT<512> small;
    SignatureT<2048> big;
    Xoshiro256ss rng(9);
    std::vector<Addr> inserted;
    for (int i = 0; i < 48; ++i) {
        const Addr l = rng.next() >> 4;
        inserted.push_back(l);
        small.insert(l);
        big.insert(l);
    }
    int fp_small = 0, fp_big = 0;
    for (int i = 0; i < 20000; ++i) {
        const Addr probe = rng.next() | (1ull << 61);
        fp_small += small.mayContain(probe);
        fp_big += big.mayContain(probe);
    }
    EXPECT_GT(fp_small, fp_big);
}

TEST(SignaturePair, ConflictsWithWrite)
{
    SignaturePair running;
    running.read.insert(100);
    running.write.insert(200);

    Signature committing_w;
    committing_w.insert(300);
    EXPECT_FALSE(running.conflictsWithWrite(committing_w));

    Signature raw;
    raw.insert(100); // write hits the running chunk's read set
    EXPECT_TRUE(running.conflictsWithWrite(raw));

    Signature waw;
    waw.insert(200); // write hits the running chunk's write set
    EXPECT_TRUE(running.conflictsWithWrite(waw));
}

TEST(SignaturePair, ClearBoth)
{
    SignaturePair p;
    p.read.insert(1);
    p.write.insert(2);
    p.clear();
    EXPECT_TRUE(p.read.empty());
    EXPECT_TRUE(p.write.empty());
}

// The summary filter is only allowed to short-circuit, never to
// change the answer: intersects() must agree with the unfiltered
// word walk on every pair, across densities from near-empty to
// saturated.
TEST(Signature, SummaryFilterMatchesWordWalk)
{
    Xoshiro256ss rng(11);
    for (unsigned trial = 0; trial < 400; ++trial) {
        Signature a, b;
        const unsigned na = 1 + static_cast<unsigned>(rng.next() % 200);
        const unsigned nb = 1 + static_cast<unsigned>(rng.next() % 200);
        const Addr base = rng.next() % 4096;
        for (unsigned i = 0; i < na; ++i)
            a.insert(base + rng.next() % 512);
        for (unsigned i = 0; i < nb; ++i)
            b.insert(rng.next() % 8192);
        EXPECT_EQ(a.intersects(b), a.intersectsWords(b));
        EXPECT_EQ(b.intersects(a), b.intersectsWords(a));
    }
}

// A summary reject must imply a word-walk miss (conservatism: the
// filter may only produce false *hits*, never false rejects).
TEST(Signature, SummaryRejectImpliesNoIntersection)
{
    Xoshiro256ss rng(12);
    for (unsigned trial = 0; trial < 400; ++trial) {
        Signature a, b;
        for (unsigned i = 0; i < 40; ++i) {
            a.insert(rng.next() % 2048);
            b.insert(rng.next() % 2048);
        }
        if (!a.summaryIntersects(b)) {
            EXPECT_FALSE(a.intersectsWords(b));
        }
    }
}

// Union soundness, the property the per-processor union filter rests
// on: a signature that misses the union of a set S misses every member
// of S. Checked on a union reused across clear() and re-union, so the
// epoch-tagged words of earlier rounds cannot leak into a later one.
TEST(Signature, UnionMissImpliesMemberMissAcrossClears)
{
    Xoshiro256ss rng(14);
    Signature u;
    for (unsigned round = 0; round < 200; ++round) {
        u.clear();
        const unsigned members = 1 + static_cast<unsigned>(rng.next() % 6);
        std::vector<Signature> set(members);
        for (Signature &s : set) {
            const Addr base = rng.next() % 8192;
            const unsigned n = static_cast<unsigned>(rng.next() % 60);
            for (unsigned i = 0; i < n; ++i)
                s.insert(base + rng.next() % 256);
            u.unionWith(s);
        }
        for (unsigned probe = 0; probe < 20; ++probe) {
            Signature w;
            const unsigned n = 1 + static_cast<unsigned>(rng.next() % 40);
            for (unsigned i = 0; i < n; ++i)
                w.insert(rng.next() % 16384);
            if (w.intersects(u))
                continue;
            for (const Signature &s : set)
                ASSERT_FALSE(w.intersects(s))
                    << "round " << round << " probe " << probe;
        }
    }
}

// Epoch-versioned clear: a cleared signature behaves exactly like a
// freshly constructed one, including equality, union and
// intersection, no matter how many clears preceded it.
TEST(Signature, EpochClearBehavesLikeFresh)
{
    Xoshiro256ss rng(13);
    Signature reused;
    for (unsigned cycle = 0; cycle < 300; ++cycle) {
        for (unsigned i = 0; i < 30; ++i)
            reused.insert(rng.next() % 4096);
        reused.clear();
        EXPECT_TRUE(reused.empty());
        EXPECT_EQ(reused.popCount(), 0u);

        // Re-populate and compare against a genuinely fresh one.
        Signature fresh;
        const Addr base = rng.next() % 1024;
        for (unsigned i = 0; i < 8; ++i) {
            reused.insert(base + i);
            fresh.insert(base + i);
        }
        EXPECT_TRUE(reused == fresh);
        EXPECT_TRUE(reused.mayContain(base));
        EXPECT_TRUE(reused.intersects(fresh));
        EXPECT_EQ(reused.popCount(), fresh.popCount());
        reused.clear();
    }
}

// Stale pre-clear words must not leak through unionWith either.
TEST(Signature, EpochClearThenUnion)
{
    Signature src, dst;
    src.insert(100);
    src.insert(200);
    src.clear();
    src.insert(300);

    dst.unionWith(src);
    Signature expect;
    expect.insert(300);
    EXPECT_TRUE(dst == expect);

    Signature old_lines;
    old_lines.insert(100);
    old_lines.insert(200);
    EXPECT_FALSE(dst.intersects(old_lines));
}

// The per-word epoch tags are 32-bit; when clear() wraps the counter
// back to the starting epoch, the hard reset must keep words from
// 2^32 clears ago dead. forceEpochForTest jumps to the wrap point.
TEST(Signature, EpochWraparoundHardReset)
{
    Signature s;
    s.insert(100); // words tagged with the initial epoch (0)
    s.insert(200);

    s.forceEpochForTest(0xFFFFFFFFu);
    // Words from other epochs read as zero...
    EXPECT_TRUE(s.empty());
    EXPECT_FALSE(s.mayContain(100));
    s.insert(300); // tagged 0xFFFFFFFF
    EXPECT_TRUE(s.mayContain(300));

    // ...and the wrapping clear() lands back on the initial epoch,
    // where lines 100/200 were inserted: only the hard reset keeps
    // those words from resurfacing.
    s.clear();
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.popCount(), 0u);
    EXPECT_FALSE(s.mayContain(100));
    EXPECT_FALSE(s.mayContain(200));
    EXPECT_FALSE(s.mayContain(300));

    // The signature keeps working normally after the wrap.
    s.insert(100);
    EXPECT_TRUE(s.mayContain(100));
    EXPECT_FALSE(s.mayContain(200));
    Signature other;
    other.insert(100);
    EXPECT_TRUE(s.intersects(other));
}

// forceEpochForTest must leave the summary/word invariant intact:
// the summaries are rebuilt from the words live under the new epoch,
// so the summary fast path stays conservative.
TEST(Signature, ForcedEpochRebuildsSummaries)
{
    Signature s;
    s.insert(0x1234);
    s.forceEpochForTest(0); // current epoch: words stay live
    EXPECT_TRUE(s.mayContain(0x1234));
    EXPECT_FALSE(s.empty());

    Signature probe;
    probe.insert(0x1234);
    EXPECT_TRUE(s.summaryIntersects(probe));
    EXPECT_TRUE(s.intersects(probe));

    s.forceEpochForTest(7); // different epoch: all words stale
    EXPECT_TRUE(s.empty());
    EXPECT_FALSE(s.summaryIntersects(probe));
    EXPECT_FALSE(s.intersects(probe));
}

} // namespace
} // namespace delorean
