/**
 * @file
 * LZ77 sliding-window compressor.
 *
 * The paper states that "all log buffers are enhanced with compression
 * hardware that uses the LZ77 algorithm" (Section 5). This module is a
 * faithful software LZ77: greedy longest-match over a sliding window,
 * emitting (literal) and (distance, length) tokens with a compact
 * bit-level encoding. It is used to report the *compressed* log sizes
 * in the Figure 6-8 reproductions, and is exact enough that
 * compress(decompress(x)) == x is asserted in the tests.
 *
 * Two front ends share the tokenizer:
 *  - Lz77: one-shot, whole-buffer calls.
 *  - Lz77Stream: chunked append() calls that compress incrementally
 *    without ever concatenating the input into one buffer; the output
 *    of finish() is byte-identical to a one-shot compress() of the
 *    same bytes, for any partition of the input.
 */

#ifndef DELOREAN_COMPRESS_LZ77_HPP_
#define DELOREAN_COMPRESS_LZ77_HPP_

#include <cstdint>
#include <vector>

#include "common/bitstream.hpp"

namespace delorean
{

/** Tuning parameters for the LZ77 compressor. */
struct Lz77Config
{
    unsigned windowBits = 12;   ///< sliding window = 4 KB, HW-friendly
    unsigned minMatch = 3;      ///< shortest emitted match
    unsigned maxMatch = 258;    ///< longest emitted match
};

/**
 * LZ77 codec. Stateless between calls; each compress() call treats its
 * input as one independent buffer (like flushing a hardware lane).
 */
class Lz77
{
  public:
    Lz77() = default;
    explicit Lz77(const Lz77Config &config) : config_(config) {}

    /** Compress @p input; returns the encoded byte stream. */
    std::vector<std::uint8_t>
    compress(const std::vector<std::uint8_t> &input) const;

    /**
     * Decompress a stream produced by compress(). Throws
     * RecordingFormatError (or the BitstreamExhausted subclass) on
     * malformed input: an implausibly large size header, a match
     * distance reaching before the start of the output, or a stream
     * that runs dry mid-token.
     */
    std::vector<std::uint8_t>
    decompress(const std::vector<std::uint8_t> &input) const;

    /**
     * Span overload: decode directly out of caller-owned storage
     * (e.g. an mmap'ed archive payload) without copying the
     * compressed bytes first.
     */
    std::vector<std::uint8_t>
    decompress(const std::uint8_t *input, std::size_t input_size) const;

    /**
     * Compressed size in bits of @p input, without materializing the
     * output (used by the log-size harnesses). Token bits only — the
     * 64-bit length header compress() prepends is excluded.
     */
    std::uint64_t
    compressedBits(const std::vector<std::uint8_t> &input) const;

  private:
    Lz77Config config_;
};

/**
 * Incremental LZ77 compressor: feed input in arbitrary chunks with
 * append(), then call finish() once for the encoded stream.
 *
 * Only a sliding window plus a not-yet-tokenizable tail of the input
 * is buffered (tokenization of a position is deferred until enough
 * lookahead has arrived to make the greedy choice identical to the
 * one-shot tokenizer's), so memory use is bounded by the window size,
 * not the total input. finish() output is byte-identical to
 * Lz77::compress() of the concatenated input.
 */
class Lz77Stream
{
  public:
    explicit Lz77Stream(const Lz77Config &config = {});

    Lz77Stream(const Lz77Stream &) = delete;
    Lz77Stream &operator=(const Lz77Stream &) = delete;

    /** Append @p size bytes of input. */
    void append(const std::uint8_t *data, std::size_t size);

    void
    append(const std::vector<std::uint8_t> &data)
    {
        append(data.data(), data.size());
    }

    /**
     * Tokenize the remaining tail and return the complete encoded
     * stream. May be called once; the stream is spent afterwards.
     */
    std::vector<std::uint8_t> finish();

    /** Total bytes appended so far. */
    std::uint64_t rawBytes() const { return total_in_; }

  private:
    /** Tokenize buffered positions; final means no more input. */
    void drain(bool final);

    /** Drop buffered bytes older than the window; rebase the chains. */
    void compact();

    Lz77Config config_;
    BitWriter out_;
    std::vector<std::uint8_t> buf_; ///< window + untokenized tail
    std::vector<std::uint32_t> head_;
    std::vector<std::uint32_t> prev_;
    std::size_t pos_ = 0;        ///< next untokenized buf_ index
    std::uint64_t total_in_ = 0; ///< bytes appended overall
    bool finished_ = false;
};

/**
 * Test/bench hook: the pre-hash-chain compressor, kept verbatim.
 *
 * compress()/compressedBits() run the O(window * len) scalar greedy
 * scan the hash-chain searcher replaced. The production codec is
 * required to be *byte-identical* to it on every input (the hash
 * chain finds the same greedy longest match with the same
 * smallest-distance tie-break), which the lz77 tests assert across
 * the bench corpora. bench/archive_io uses it as the serial-baseline
 * cost model. Not for production use — quadratic on repetitive input.
 */
namespace lz77_reference
{

std::vector<std::uint8_t>
compress(const std::vector<std::uint8_t> &input,
         const Lz77Config &cfg = {});

std::uint64_t compressedBits(const std::vector<std::uint8_t> &input,
                             const Lz77Config &cfg = {});

} // namespace lz77_reference

} // namespace delorean

#endif // DELOREAN_COMPRESS_LZ77_HPP_
