#include "compress/lz77.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

#include "common/errors.hpp"

namespace delorean
{

namespace
{

/** Hash of the next three bytes, for the match-finder chains. */
inline std::uint32_t
hash3(const std::uint8_t *p)
{
    const std::uint32_t v = p[0] | (p[1] << 8) | (p[2] << 16);
    return (v * 2654435761u) >> 17; // 15-bit hash
}

constexpr unsigned kHashSize = 1u << 15;
constexpr std::uint32_t kNoPos = 0xFFFFFFFFu;

/// Spare output bytes that let a match copy whole 8-byte words.
constexpr std::size_t kCopySlack = 8;

/** Little-endian u64 at @p p (any alignment, any host byte order). */
inline std::uint64_t
loadLe64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

/**
 * LSB-first bit reader for the token decoder. A 64-bit buffer is
 * topped up to at least 56 bits with one unaligned 8-byte load, so a
 * whole token (at most 1 + windowBits + 8 bits) is decoded from a
 * single peek at the buffer instead of one bounds-checked read per
 * field. Fewer bits remain only at the end of the input; the decoder
 * then checks the token fits before consuming it and reports an
 * overrun exactly as a field-by-field BitReader would have.
 */
class TokenReader
{
  public:
    /** Tokens start after the 64-bit size header of @p data. */
    TokenReader(const std::uint8_t *data, std::size_t size)
        : begin_(data), p_(data + 8), end_(data + size)
    {
    }

    /** Top the buffer up to >= 56 bits, or to the end of the input. */
    void
    refill()
    {
        if (end_ - p_ >= 8) {
            // Bits past the new count are re-ORed with the same
            // stream bits on the next refill, so they stay coherent.
            buf_ |= loadLe64(p_) << count_;
            p_ += (63 - count_) >> 3;
            count_ |= 56;
            return;
        }
        while (count_ <= 56 && p_ < end_) {
            buf_ |= static_cast<std::uint64_t>(*p_++) << count_;
            count_ += 8;
        }
    }

    std::uint64_t bits() const { return buf_; }
    unsigned count() const { return count_; }

    void
    consume(unsigned n)
    {
        buf_ >>= n;
        count_ -= n;
    }

    /**
     * The token at the cursor needs @p need bits and fewer remain.
     * Report the overrun as a field-by-field read reports it: the
     * width and bit position of the first field (flag, then literal
     * or distance, then length) that does not fit.
     */
    [[noreturn]] void
    exhausted(unsigned need, unsigned window_bits) const
    {
        const std::uint64_t pos =
            static_cast<std::uint64_t>(p_ - begin_) * 8 - count_;
        unsigned width = 1;
        std::uint64_t at = pos;
        if (count_ >= 1) {
            at = pos + 1;
            width = need - 1;
            if (need > 9 && count_ >= 1 + window_bits) {
                at += window_bits;
                width = 8;
            } else if (need > 9) {
                width = window_bits;
            }
        }
        throw BitstreamExhausted(
            "read of " + std::to_string(width) + " bits at position "
            + std::to_string(at) + " of "
            + std::to_string(static_cast<std::uint64_t>(end_ - begin_)
                             * 8));
    }

  private:
    const std::uint8_t *begin_;
    const std::uint8_t *p_;
    const std::uint8_t *end_;
    std::uint64_t buf_ = 0;
    unsigned count_ = 0; ///< valid bits at the bottom of buf_
};

/**
 * Length of the common prefix of @p a and @p b, up to @p limit bytes.
 * Compares eight bytes per step; the XOR of the first differing words
 * locates the exact mismatch byte, so the result is identical to a
 * byte-at-a-time scan.
 */
inline std::size_t
matchLength(const std::uint8_t *a, const std::uint8_t *b,
            std::size_t limit)
{
    std::size_t len = 0;
    while (len + 8 <= limit) {
        std::uint64_t wa, wb;
        std::memcpy(&wa, a + len, 8);
        std::memcpy(&wb, b + len, 8);
        if (wa != wb) {
            if constexpr (std::endian::native == std::endian::little)
                return len
                       + (static_cast<unsigned>(
                              std::countr_zero(wa ^ wb))
                          >> 3);
            else
                break; // fall through to the byte loop
        }
        len += 8;
    }
    while (len < limit && a[len] == b[len])
        ++len;
    return len;
}

/**
 * Shared greedy LZ77 tokenizer over @p data[0, n), starting at the
 * caller-maintained cursor @p pos. Calls @p emit_literal /
 * @p emit_match for every token, in order.
 *
 * When @p final is false, tokenization stops at the last position
 * whose greedy decision cannot depend on bytes past n: a position is
 * taken only while pos + maxMatch + 2 <= n, which saturates the match
 * limit at maxMatch AND guarantees the hash-insertion guard
 * (pos + i + 3 <= n for every covered i < advance <= maxMatch)
 * resolves the same way it would with more input appended. This is
 * what makes streamed output byte-identical to one-shot output.
 */
template <typename LitFn, typename MatchFn>
void
tokenizeSpan(const std::uint8_t *data, std::size_t n, bool final,
             const Lz77Config &cfg, std::size_t &pos,
             std::vector<std::uint32_t> &head,
             std::vector<std::uint32_t> &prev, LitFn emit_literal,
             MatchFn emit_match)
{
    const std::size_t window = std::size_t{1} << cfg.windowBits;
    prev.resize(n);

    while (final ? pos < n : pos + cfg.maxMatch + 2 <= n) {
        std::size_t best_len = 0;
        std::size_t best_dist = 0;
        if (pos + cfg.minMatch <= n) {
            // Exact hash-chain walk. Chains enumerate candidates in
            // increasing distance and hold *every* prior position
            // sharing pos's 3-byte prefix, so taking only strictly
            // longer matches reproduces the full-window greedy scan
            // bit for bit: longest match, smallest distance on ties
            // (asserted against lz77_reference in the tests). Cheap
            // exactness guards replace the old bounded probe count:
            // a candidate that disagrees at offset best_len cannot
            // beat the incumbent and is skipped without a length
            // scan, and a match reaching the position limit ends the
            // walk — no later (farther) candidate can be longer.
            const std::size_t limit =
                std::min<std::size_t>(cfg.maxMatch, n - pos);
            const std::uint32_t h = hash3(&data[pos]);
            std::uint32_t cand = head[h];
            while (cand != kNoPos) {
                const std::size_t dist = pos - cand;
                if (dist > window)
                    break;
                if (best_len == 0
                    || data[cand + best_len] == data[pos + best_len]) {
                    const std::size_t len =
                        matchLength(&data[cand], &data[pos], limit);
                    if (len > best_len) {
                        best_len = len;
                        best_dist = dist;
                        if (len >= limit)
                            break;
                    }
                }
                cand = prev[cand];
            }
        }

        const std::size_t advance =
            (best_len >= cfg.minMatch) ? best_len : 1;
        if (best_len >= cfg.minMatch)
            emit_match(best_dist, best_len);
        else
            emit_literal(data[pos]);

        // Insert every covered position into the hash chains.
        for (std::size_t i = 0; i < advance && pos + i + 3 <= n; ++i) {
            const std::uint32_t h = hash3(&data[pos + i]);
            prev[pos + i] = head[h];
            head[h] = static_cast<std::uint32_t>(pos + i);
        }
        pos += advance;
    }
}

/** One-shot tokenization of a whole buffer. */
template <typename LitFn, typename MatchFn>
void
tokenize(const std::vector<std::uint8_t> &input, const Lz77Config &cfg,
         LitFn emit_literal, MatchFn emit_match)
{
    // Reused across calls: campaigns compress thousands of logs, and
    // the head table + chain links dominated the allocator profile.
    // prev needs no clearing — a chain only ever reaches positions
    // that were inserted this call, and insertion writes prev first.
    static thread_local std::vector<std::uint32_t> head;
    static thread_local std::vector<std::uint32_t> prev;
    head.assign(kHashSize, kNoPos);
    std::size_t pos = 0;
    tokenizeSpan(input.data(), input.size(), /*final=*/true, cfg, pos,
                 head, prev, emit_literal, emit_match);
}

} // namespace

std::vector<std::uint8_t>
Lz77::compress(const std::vector<std::uint8_t> &input) const
{
    BitWriter out;
    out.write(input.size(), 64);
    tokenize(
        input, config_,
        [&](std::uint8_t lit) {
            out.write(0, 1);
            out.write(lit, 8);
        },
        [&](std::size_t dist, std::size_t len) {
            out.write(1, 1);
            out.write(dist - 1, config_.windowBits);
            out.write(len - config_.minMatch, 8);
        });
    return out.bytes();
}

std::vector<std::uint8_t>
Lz77::decompress(const std::uint8_t *input, std::size_t input_size) const
{
    const std::uint64_t total_bits =
        static_cast<std::uint64_t>(input_size) * 8;
    if (input_size < 8)
        throw BitstreamExhausted("read of 64 bits at position 0 of "
                                 + std::to_string(total_bits));
    const std::uint64_t size = loadLe64(input);

    // Corrupted-size guard: a match token (the densest encoding)
    // spends 1 + windowBits + 8 bits to produce at most maxMatch
    // bytes, so any honest stream satisfies this bound. Checking it
    // here keeps a flipped size header from reserving gigabytes.
    const std::uint64_t token_bits = total_bits - 64;
    const std::uint64_t max_out =
        (token_bits / (1 + config_.windowBits + 8) + 1)
        * config_.maxMatch;
    if (size > max_out)
        throw RecordingFormatError(
            "lz77: implausible decompressed size "
            + std::to_string(size) + " for "
            + std::to_string(input_size) + " input bytes");

    const unsigned wb = config_.windowBits;
    const unsigned lit_bits = 1 + 8;
    const unsigned match_bits = 1 + wb + 8;
    assert(match_bits <= 56); // one refill always covers a token
    const std::uint64_t dist_mask = (std::uint64_t{1} << wb) - 1;

    // The output size is known up front, so decode into a
    // preallocated buffer with block copies for match tokens instead
    // of a push_back per byte. kCopySlack spare bytes past the end
    // let a match copy in whole 8-byte words. Only a corrupt stream
    // whose final match overshoots the declared size ever regrows the
    // buffer (matching the historical decoder, which returned the
    // oversized output and let the caller's size cross-check reject
    // it).
    const std::size_t target = static_cast<std::size_t>(size);
    std::vector<std::uint8_t> out(target + kCopySlack);
    std::size_t produced = 0;
    TokenReader in(input, input_size);
    while (produced < target) {
        if (in.count() < match_bits)
            in.refill();
        const std::uint64_t bits = in.bits();
        if ((bits & 1) == 0) {
            if (in.count() < lit_bits)
                in.exhausted(lit_bits, wb);
            out[produced++] = static_cast<std::uint8_t>(bits >> 1);
            in.consume(lit_bits);
            continue;
        }
        if (in.count() < match_bits)
            in.exhausted(match_bits, wb);
        const std::size_t dist =
            static_cast<std::size_t>((bits >> 1) & dist_mask) + 1;
        const std::size_t len =
            static_cast<std::size_t>((bits >> (1 + wb)) & 0xFFu)
            + config_.minMatch;
        in.consume(match_bits);
        if (dist > produced)
            throw RecordingFormatError(
                "lz77: match distance " + std::to_string(dist)
                + " reaches before output start (have "
                + std::to_string(produced) + " bytes)");
        if (produced + len + kCopySlack > out.size())
            out.resize(produced + len + kCopySlack);
        const std::uint8_t *src = out.data() + produced - dist;
        std::uint8_t *dst = out.data() + produced;
        if (dist >= 8) {
            // Each word reads only bytes at least eight behind the
            // one it writes, all already final, so this is exact even
            // when source and destination overlap; the last word may
            // spill into the slack.
            for (std::size_t i = 0; i < len; i += 8)
                std::memcpy(dst + i, src + i, 8);
        } else {
            // Short-period run: the copy re-reads bytes it just
            // wrote, so it must go bytewise.
            for (std::size_t i = 0; i < len; ++i)
                dst[i] = src[i];
        }
        produced += len;
    }
    out.resize(produced);
    return out;
}

std::vector<std::uint8_t>
Lz77::decompress(const std::vector<std::uint8_t> &input) const
{
    return decompress(input.data(), input.size());
}

std::uint64_t
Lz77::compressedBits(const std::vector<std::uint8_t> &input) const
{
    std::uint64_t bits = 0;
    tokenize(
        input, config_, [&](std::uint8_t) { bits += 1 + 8; },
        [&](std::size_t, std::size_t) {
            bits += 1 + config_.windowBits + 8;
        });
    return bits;
}

// ---- Lz77Stream -----------------------------------------------------

Lz77Stream::Lz77Stream(const Lz77Config &config)
    : config_(config), head_(kHashSize, kNoPos)
{
    out_.write(0, 64); // length header, patched by finish()
}

void
Lz77Stream::append(const std::uint8_t *data, std::size_t size)
{
    assert(!finished_);
    if (size == 0)
        return;
    buf_.insert(buf_.end(), data, data + size);
    total_in_ += size;
    drain(/*final=*/false);
    compact();
}

std::vector<std::uint8_t>
Lz77Stream::finish()
{
    assert(!finished_);
    finished_ = true;
    drain(/*final=*/true);
    std::vector<std::uint8_t> bytes = out_.bytes();
    for (unsigned i = 0; i < 8; ++i)
        bytes[i] = static_cast<std::uint8_t>(total_in_ >> (8 * i));
    buf_.clear();
    buf_.shrink_to_fit();
    return bytes;
}

void
Lz77Stream::drain(bool final)
{
    tokenizeSpan(
        buf_.data(), buf_.size(), final, config_, pos_, head_, prev_,
        [&](std::uint8_t lit) {
            out_.write(0, 1);
            out_.write(lit, 8);
        },
        [&](std::size_t dist, std::size_t len) {
            out_.write(1, 1);
            out_.write(dist - 1, config_.windowBits);
            out_.write(len - config_.minMatch, 8);
        });
}

// ---- lz77_reference -------------------------------------------------

namespace lz77_reference
{

namespace
{

/**
 * The pre-hash-chain greedy tokenizer: an O(window * len) scalar scan
 * over every candidate distance. Kept verbatim as the equivalence
 * oracle for the production searcher — longest match wins, smallest
 * distance breaks ties (the scan visits distances in ascending order
 * and only a strictly longer match displaces the incumbent).
 */
template <typename LitFn, typename MatchFn>
void
referenceTokenize(const std::vector<std::uint8_t> &input,
                  const Lz77Config &cfg, LitFn emit_literal,
                  MatchFn emit_match)
{
    const std::size_t n = input.size();
    const std::size_t window = std::size_t{1} << cfg.windowBits;
    std::size_t pos = 0;
    while (pos < n) {
        std::size_t best_len = 0;
        std::size_t best_dist = 0;
        const std::size_t limit =
            std::min<std::size_t>(cfg.maxMatch, n - pos);
        const std::size_t max_dist = std::min(window, pos);
        for (std::size_t dist = 1; dist <= max_dist; ++dist) {
            const std::size_t len = matchLength(
                &input[pos - dist], &input[pos], limit);
            if (len > best_len) {
                best_len = len;
                best_dist = dist;
                if (len >= limit)
                    break;
            }
        }
        if (best_len >= cfg.minMatch) {
            emit_match(best_dist, best_len);
            pos += best_len;
        } else {
            emit_literal(input[pos]);
            pos += 1;
        }
    }
}

} // namespace

std::vector<std::uint8_t>
compress(const std::vector<std::uint8_t> &input, const Lz77Config &cfg)
{
    BitWriter out;
    out.write(input.size(), 64);
    referenceTokenize(
        input, cfg,
        [&](std::uint8_t lit) {
            out.write(0, 1);
            out.write(lit, 8);
        },
        [&](std::size_t dist, std::size_t len) {
            out.write(1, 1);
            out.write(dist - 1, cfg.windowBits);
            out.write(len - cfg.minMatch, 8);
        });
    return out.bytes();
}

std::uint64_t
compressedBits(const std::vector<std::uint8_t> &input,
               const Lz77Config &cfg)
{
    std::uint64_t bits = 0;
    referenceTokenize(
        input, cfg, [&](std::uint8_t) { bits += 1 + 8; },
        [&](std::size_t, std::size_t) {
            bits += 1 + cfg.windowBits + 8;
        });
    return bits;
}

} // namespace lz77_reference

void
Lz77Stream::compact()
{
    // Keep the window behind pos_ (plus pos_ itself onward); only
    // bother once a meaningful chunk can be dropped, since rebasing
    // touches the whole head table.
    const std::size_t window = std::size_t{1} << config_.windowBits;
    const std::size_t drop = pos_ > window ? pos_ - window : 0;
    if (drop < std::max<std::size_t>(window, std::size_t{1} << 16))
        return;

    const auto rebase = [drop](std::uint32_t p) {
        return (p == kNoPos || p < drop)
                   ? kNoPos
                   : static_cast<std::uint32_t>(p - drop);
    };
    // Dropped positions are unreachable anyway: the chain walk breaks
    // at dist > window and chains link monotonically older positions,
    // so mapping them to kNoPos never changes a tokenization decision.
    for (auto &h : head_)
        h = rebase(h);
    const std::size_t remain = buf_.size() - drop;
    for (std::size_t i = 0; i < remain; ++i)
        prev_[i] = rebase(prev_[i + drop]);
    prev_.resize(remain);
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<std::ptrdiff_t>(drop));
    pos_ -= drop;
}

} // namespace delorean
