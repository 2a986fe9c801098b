/**
 * @file
 * Bulk-style hardware address signatures.
 *
 * BulkSC (Appendix A) hash-encodes the addresses read and written by a
 * chunk into Read (R) and Write (W) signatures held in the Bulk
 * Disambiguation Module. Address disambiguation, chunk commit and
 * chunk squash are implemented with signature operations. This module
 * implements a fixed-width Bloom-filter signature (default 2 Kbit as
 * in Table 5) with k independent hash functions, plus the
 * intersection/union operations the arbiter and the Stratifier need.
 *
 * Signatures are conservative: intersects() may report a false
 * positive (causing a spurious squash, as in real Bulk hardware) but
 * never a false negative.
 *
 * Two commit-fast-path mechanisms live here:
 *  - Per-bank 64-bit summary words (the OR-fold of the bank's words).
 *    A bank whose summaries do not intersect cannot intersect at the
 *    word level, so intersects() walks the full words only on a
 *    summary hit. The fold preserves conservatism: summary reject
 *    implies word-level reject, never the other way around.
 *  - Epoch-versioned clearing. clear() bumps an epoch counter and
 *    zeroes only the summaries; stale words are lazily treated as
 *    zero by every accessor. Recycling a chunk's signatures from the
 *    freelist is O(banks) instead of O(words).
 */

#ifndef DELOREAN_SIGNATURE_SIGNATURE_HPP_
#define DELOREAN_SIGNATURE_SIGNATURE_HPP_

#include <array>
#include <bit>
#include <cstdint>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace delorean
{

/**
 * Fixed-capacity banked signature over cache-line addresses.
 *
 * Bulk's hardware does not use random Bloom hashes: the line address
 * is permuted and sliced into bit-fields, each selecting one bit in a
 * separate bank. Two signatures conflict only if they intersect in
 * EVERY bank. Because the high-order slices change slowly under
 * spatially local access patterns, the high banks stay sparse even
 * for 2000-instruction chunks, keeping the false-conflict rate low —
 * random hashing would saturate 2 Kbits long before that.
 *
 * The bit width is a compile-time template parameter so that the
 * micro-benchmarks can sweep 512/1024/2048-bit signatures; Signature
 * (the 2048-bit instantiation) is the one the machine uses.
 */
template <unsigned BitsParam>
class SignatureT
{
  public:
    static constexpr unsigned kBits = BitsParam;
    static constexpr unsigned kWords = kBits / 64;
    static constexpr unsigned kBanks = 4;
    static constexpr unsigned kBankBits = kBits / kBanks;
    static constexpr unsigned kBankWords = kWords / kBanks;
    /// Address bit-field offsets, one per bank (Bulk permutations).
    static constexpr unsigned kShifts[kBanks] = {0, 4, 8, 12};

    static_assert(kBits % (64 * kBanks) == 0 && kBits >= 64 * kBanks,
                  "signature banks must be a multiple of 64 bits");

    /** Insert a cache-line address (one bit per bank). */
    void
    insert(Addr line)
    {
        for (unsigned b = 0; b < kBanks; ++b) {
            const unsigned bit = bankBit(line, b);
            const std::uint64_t mask = 1ull << (bit % 64);
            orWord(b * kBankWords + bit / 64, mask);
            summary_[b] |= mask;
        }
    }

    /** Conservative membership test for a cache-line address. */
    bool
    mayContain(Addr line) const
    {
        for (unsigned b = 0; b < kBanks; ++b) {
            const unsigned bit = bankBit(line, b);
            const std::uint64_t mask = 1ull << (bit % 64);
            // Summary fast reject: no word in the bank has this bit
            // position set, so the exact word cannot either.
            if (!(summary_[b] & mask))
                return false;
            if (!(word(b * kBankWords + bit / 64) & mask))
                return false;
        }
        return true;
    }

    /**
     * Summary-level filter: true if the per-bank summaries intersect
     * in every bank. A false return guarantees intersects() is false;
     * a true return means the full words must be walked.
     */
    bool
    summaryIntersects(const SignatureT &other) const
    {
        for (unsigned b = 0; b < kBanks; ++b)
            if (!(summary_[b] & other.summary_[b]))
                return false;
        return true;
    }

    /**
     * Word-level intersection test (no summary filter). The per-bank
     * sweep is branch-free — every lane computes
     * masked-self AND masked-other and OR-folds into an accumulator —
     * so the compiler vectorizes the kBankWords lanes (8 x 64-bit for
     * the 2 Kbit signature) instead of taking a data-dependent branch
     * per word. Early exit happens only at bank granularity, where a
     * miss is decisive anyway.
     */
    bool
    intersectsWords(const SignatureT &other) const
    {
        for (unsigned b = 0; b < kBanks; ++b) {
            std::uint64_t hit = 0;
            for (unsigned i = 0; i < kBankWords; ++i)
                hit |= maskedWord(b * kBankWords + i)
                       & other.maskedWord(b * kBankWords + i);
            if (hit == 0)
                return false;
        }
        return true;
    }

    /** True if the signatures intersect in every bank. */
    bool
    intersects(const SignatureT &other) const
    {
        return summaryIntersects(other) && intersectsWords(other);
    }

    /**
     * Bitwise OR @p other into this signature. Banks empty in @p other
     * are skipped via the summary; a touched bank is merged with a
     * branch-free lane sweep (unconditional word store + epoch-tag
     * revive) the compiler can vectorize, instead of a liveness branch
     * per word.
     */
    void
    unionWith(const SignatureT &other)
    {
        for (unsigned b = 0; b < kBanks; ++b) {
            if (!other.summary_[b])
                continue; // whole bank empty in other
            summary_[b] |= other.summary_[b];
            for (unsigned i = 0; i < kBankWords; ++i) {
                const unsigned w = b * kBankWords + i;
                words_[w] = maskedWord(w) | other.maskedWord(w);
                word_epoch_[w] = epoch_;
            }
        }
    }

    /**
     * Epoch clear: O(banks), not O(words). Words written under an
     * older epoch read back as zero until re-written.
     */
    void
    clear()
    {
        summary_.fill(0);
        if (++epoch_ == 0) {
            // Epoch counter wrapped: genuinely reset so that stale
            // words from 2^32 clears ago cannot resurface.
            words_.fill(0);
            word_epoch_.fill(0);
        }
    }

    /** True if no bit is set. */
    bool
    empty() const
    {
        for (const auto s : summary_)
            if (s)
                return false;
        return true;
    }

    /**
     * Number of set bits (occupancy). One flat branch-free pass of
     * masked-word popcounts — no per-bank summary branch, so the
     * whole signature is a fixed-length reduction.
     */
    unsigned
    popCount() const
    {
        unsigned count = 0;
        for (unsigned i = 0; i < kWords; ++i)
            count +=
                static_cast<unsigned>(std::popcount(maskedWord(i)));
        return count;
    }

    /**
     * TEST ONLY: jump the epoch counter to @p epoch so the wraparound
     * hard reset in clear() can be exercised without 2^32 clears.
     * Summaries are rebuilt from the words live under @p epoch so the
     * summary/word invariant holds for any forced value.
     */
    void
    forceEpochForTest(std::uint32_t epoch)
    {
        epoch_ = epoch;
        summary_.fill(0);
        for (unsigned b = 0; b < kBanks; ++b)
            for (unsigned i = 0; i < kBankWords; ++i)
                summary_[b] |= word(b * kBankWords + i);
    }

    /** Logical equality (epoch representation is ignored). */
    bool
    operator==(const SignatureT &other) const
    {
        for (unsigned i = 0; i < kWords; ++i)
            if (word(i) != other.word(i))
                return false;
        return true;
    }

  private:
    /** Word @p i with stale (pre-clear) content read as zero. */
    std::uint64_t
    word(unsigned i) const
    {
        return word_epoch_[i] == epoch_ ? words_[i] : 0;
    }

    /**
     * Branch-free variant of word(): the epoch compare becomes an
     * all-ones/all-zero mask, keeping lane sweeps vectorizable.
     */
    std::uint64_t
    maskedWord(unsigned i) const
    {
        return words_[i]
               & static_cast<std::uint64_t>(
                     -static_cast<std::int64_t>(word_epoch_[i] == epoch_));
    }

    /** OR @p mask into word @p i, reviving it if stale. */
    void
    orWord(unsigned i, std::uint64_t mask)
    {
        if (word_epoch_[i] == epoch_) {
            words_[i] |= mask;
        } else {
            word_epoch_[i] = epoch_;
            words_[i] = mask;
        }
    }

    /**
     * Bit index within bank @p b for line address @p line: a folded
     * bit-field of the address starting at the bank's shift.
     */
    static unsigned
    bankBit(Addr line, unsigned b)
    {
        const Addr field = line >> kShifts[b];
        // Hash the field value: equal fields (spatial locality) still
        // map to one bit, while distinct fields — e.g. different
        // processors' private regions — spread uniformly instead of
        // aliasing through truncation.
        return static_cast<unsigned>(
            mix64(field * 0x9E3779B97F4A7C15ull + b) & (kBankBits - 1));
    }

    std::array<std::uint64_t, kWords> words_{};
    /// Per-word epoch tags; a word is live only when its tag matches.
    std::array<std::uint32_t, kWords> word_epoch_{};
    /// Per-bank OR-fold of the bank's live words.
    std::array<std::uint64_t, kBanks> summary_{};
    std::uint32_t epoch_ = 0;
};

/** The machine's signature width (Table 5: 2 Kbit). */
using Signature = SignatureT<2048>;

/** A chunk's pair of Read/Write signatures. */
struct SignaturePair
{
    Signature read;
    Signature write;

    void
    clear()
    {
        read.clear();
        write.clear();
    }

    /**
     * Conflict test used at commit: committing chunk's W signature
     * against a running chunk's R and W signatures.
     */
    bool
    conflictsWithWrite(const Signature &committing_write) const
    {
        return committing_write.intersects(read)
               || committing_write.intersects(write);
    }
};

} // namespace delorean

#endif // DELOREAN_SIGNATURE_SIGNATURE_HPP_
