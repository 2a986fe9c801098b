/**
 * @file
 * Unit tests for the LZ77 codec (compress/lz77.hpp).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>

#include "common/rng.hpp"
#include "compress/lz77.hpp"

namespace delorean
{
namespace
{

std::vector<std::uint8_t>
bytesOf(const std::string &s)
{
    return std::vector<std::uint8_t>(s.begin(), s.end());
}

/**
 * Bitwise oracle decoder: the historical one, extracting one bit at a
 * time and pushing back one output byte at a time. The production
 * decoder must agree with it on every stream, corrupt ones included:
 * same bytes, or the same exception type and message.
 */
std::vector<std::uint8_t>
referenceDecompress(const std::vector<std::uint8_t> &input,
                    const Lz77Config &cfg = {})
{
    std::uint64_t pos_bits = 0;
    const std::uint64_t total_bits =
        static_cast<std::uint64_t>(input.size()) * 8;
    const auto read = [&](unsigned width) {
        if (pos_bits + width > total_bits)
            throw BitstreamExhausted(
                "read of " + std::to_string(width) + " bits at position "
                + std::to_string(pos_bits) + " of "
                + std::to_string(total_bits));
        std::uint64_t value = 0;
        for (unsigned i = 0; i < width; ++i) {
            if ((input[pos_bits / 8] >> (pos_bits % 8)) & 1u)
                value |= (1ull << i);
            ++pos_bits;
        }
        return value;
    };

    const std::uint64_t size = read(64);
    const std::uint64_t max_out =
        ((total_bits - 64) / (1 + cfg.windowBits + 8) + 1)
        * cfg.maxMatch;
    if (size > max_out)
        throw RecordingFormatError(
            "lz77: implausible decompressed size "
            + std::to_string(size) + " for "
            + std::to_string(input.size()) + " input bytes");

    std::vector<std::uint8_t> out;
    while (out.size() < size) {
        if (read(1) == 0) {
            out.push_back(static_cast<std::uint8_t>(read(8)));
        } else {
            const std::size_t dist =
                static_cast<std::size_t>(read(cfg.windowBits)) + 1;
            const std::size_t len =
                static_cast<std::size_t>(read(8)) + cfg.minMatch;
            if (dist > out.size())
                throw RecordingFormatError(
                    "lz77: match distance " + std::to_string(dist)
                    + " reaches before output start (have "
                    + std::to_string(out.size()) + " bytes)");
            for (std::size_t i = 0; i < len; ++i)
                out.push_back(out[out.size() - dist]);
        }
    }
    return out;
}

/** Decoded bytes, or "throw <kind>: <message>" for a rejected stream. */
template <typename Decode>
std::string
outcomeOf(Decode &&decode)
{
    try {
        const std::vector<std::uint8_t> out = decode();
        return std::string(out.begin(), out.end());
    } catch (const BitstreamExhausted &e) {
        return std::string("throw exhausted: ") + e.what();
    } catch (const RecordingFormatError &e) {
        return std::string("throw format: ") + e.what();
    }
}

TEST(Lz77, EmptyInput)
{
    Lz77 codec;
    const auto compressed = codec.compress({});
    EXPECT_EQ(codec.decompress(compressed), std::vector<std::uint8_t>{});
    EXPECT_EQ(codec.compressedBits({}), 0u);
}

TEST(Lz77, RoundTripText)
{
    Lz77 codec;
    const auto input = bytesOf(
        "the quick brown fox jumps over the lazy dog and then "
        "the quick brown fox jumps over the lazy dog again");
    EXPECT_EQ(codec.decompress(codec.compress(input)), input);
}

TEST(Lz77, CompressesRepetition)
{
    Lz77 codec;
    std::vector<std::uint8_t> input(10000, 0xAB);
    const std::uint64_t bits = codec.compressedBits(input);
    EXPECT_LT(bits, input.size() * 8 / 10); // >10x on constant data
    EXPECT_EQ(codec.decompress(codec.compress(input)), input);
}

TEST(Lz77, IncompressibleDataDoesNotExplode)
{
    Lz77 codec;
    Xoshiro256ss rng(5);
    std::vector<std::uint8_t> input(4096);
    for (auto &b : input)
        b = static_cast<std::uint8_t>(rng.next());
    const std::uint64_t bits = codec.compressedBits(input);
    // Literal overhead is 1 bit per byte: at most 9/8 expansion.
    EXPECT_LE(bits, input.size() * 9);
    EXPECT_EQ(codec.decompress(codec.compress(input)), input);
}

TEST(Lz77, PeriodicPatternRoundTrip)
{
    Lz77 codec;
    std::vector<std::uint8_t> input;
    for (int i = 0; i < 5000; ++i)
        input.push_back(static_cast<std::uint8_t>(i % 7));
    EXPECT_EQ(codec.decompress(codec.compress(input)), input);
    EXPECT_LT(codec.compressedBits(input), input.size() * 2);
}

TEST(Lz77, OverlappingMatchRoundTrip)
{
    // Classic LZ77 edge case: match overlapping its own output.
    Lz77 codec;
    std::vector<std::uint8_t> input{'a'};
    for (int i = 0; i < 300; ++i)
        input.push_back('a');
    EXPECT_EQ(codec.decompress(codec.compress(input)), input);
}

TEST(Lz77, CompressedBitsMatchesCompressOutput)
{
    Lz77 codec;
    const auto input = bytesOf("abcabcabcabcxyzxyzxyz");
    const std::uint64_t bits = codec.compressedBits(input);
    // compress() adds a 64-bit length header on top of the token bits.
    const auto compressed = codec.compress(input);
    const std::uint64_t total_bits = bits + 64;
    EXPECT_EQ(compressed.size(), (total_bits + 7) / 8);
}

TEST(Lz77, RandomizedRoundTrips)
{
    // Also checked against the bitwise oracle, under window configs
    // whose tokens sit differently in the decoder's 64-bit buffer.
    for (const Lz77Config cfg :
         {Lz77Config{}, Lz77Config{8, 3, 258}, Lz77Config{15, 4, 100}}) {
        const Lz77 codec(cfg);
        Xoshiro256ss rng(11);
        for (int trial = 0; trial < 20; ++trial) {
            std::vector<std::uint8_t> input(rng.below(3000));
            for (auto &b : input) {
                // Mixture of random and repeated content.
                b = rng.chancePerMille(600)
                        ? static_cast<std::uint8_t>(rng.below(4))
                        : static_cast<std::uint8_t>(rng.next());
            }
            const auto comp = codec.compress(input);
            ASSERT_EQ(codec.decompress(comp), input);
            ASSERT_EQ(referenceDecompress(comp, cfg), input);
        }
    }
}

TEST(Lz77, CustomWindowConfig)
{
    Lz77Config cfg;
    cfg.windowBits = 8; // tiny 256-byte window
    Lz77 codec(cfg);
    std::vector<std::uint8_t> input;
    for (int i = 0; i < 2000; ++i)
        input.push_back(static_cast<std::uint8_t>(i % 13));
    EXPECT_EQ(codec.decompress(codec.compress(input)), input);
}

TEST(Lz77, MalformedStreamsRejected)
{
    Lz77 codec;
    // Truncated header.
    EXPECT_THROW(codec.decompress({0x01, 0x02}), RecordingFormatError);
    // Implausible size header: claims 2^40 bytes from an 8-byte input.
    std::vector<std::uint8_t> huge(16, 0);
    huge[5] = 0x01; // size = 1 << 40
    EXPECT_THROW(codec.decompress(huge), RecordingFormatError);
    // First token is a match: distance reaches before output start.
    BitWriter w;
    w.write(4, 64); // claim 4 output bytes
    w.write(1, 1);  // match token
    w.write(0, Lz77Config{}.windowBits); // dist 1 into empty output
    w.write(0, 8);
    EXPECT_THROW(codec.decompress(w.bytes()), RecordingFormatError);
}

TEST(Lz77Stream, EmptyInput)
{
    Lz77 codec;
    Lz77Stream stream;
    EXPECT_EQ(stream.rawBytes(), 0u);
    const auto bytes = stream.finish();
    EXPECT_EQ(bytes, codec.compress({}));
    EXPECT_EQ(codec.decompress(bytes), std::vector<std::uint8_t>{});
}

TEST(Lz77Stream, MatchesOneShotForRandomPartitions)
{
    Lz77 codec;
    Xoshiro256ss rng(23);
    for (int trial = 0; trial < 12; ++trial) {
        // Mixture of random and repeated content, as in the one-shot
        // randomized test, so matches straddle append boundaries.
        std::vector<std::uint8_t> input(500 + rng.below(8000));
        for (auto &b : input)
            b = rng.chancePerMille(600)
                    ? static_cast<std::uint8_t>(rng.below(4))
                    : static_cast<std::uint8_t>(rng.next());

        Lz77Stream stream;
        std::size_t fed = 0;
        while (fed < input.size()) {
            // Chunk sizes from 0 (empty append) to ~1/3 the input.
            const std::size_t chunk = std::min<std::size_t>(
                input.size() - fed, rng.below(input.size() / 3 + 2));
            stream.append(input.data() + fed, chunk);
            fed += chunk;
        }
        EXPECT_EQ(stream.rawBytes(), input.size());
        const auto streamed = stream.finish();
        ASSERT_EQ(streamed, codec.compress(input)) << "trial " << trial;
        ASSERT_EQ(codec.decompress(streamed), input);
    }
}

TEST(Lz77Stream, IncompressibleInput)
{
    Lz77 codec;
    Xoshiro256ss rng(7);
    std::vector<std::uint8_t> input(6000);
    for (auto &b : input)
        b = static_cast<std::uint8_t>(rng.next());
    Lz77Stream stream;
    for (std::size_t i = 0; i < input.size(); i += 617)
        stream.append(input.data() + i,
                      std::min<std::size_t>(617, input.size() - i));
    const auto streamed = stream.finish();
    EXPECT_EQ(streamed, codec.compress(input));
    EXPECT_EQ(codec.decompress(streamed), input);
}

/**
 * Corpora with deliberately different match structure: empty, text
 * with long repeats, constant (overlapping matches), short periodic,
 * pure random, and the random/repeat mixture the round-trip tests
 * use. The bench corpora are drawn from the same families.
 */
std::vector<std::vector<std::uint8_t>>
equivalenceCorpora()
{
    std::vector<std::vector<std::uint8_t>> corpora;
    corpora.push_back({});
    corpora.push_back(bytesOf(
        "the quick brown fox jumps over the lazy dog and then "
        "the quick brown fox jumps over the lazy dog again"));
    corpora.push_back(std::vector<std::uint8_t>(6000, 0xAB));
    {
        std::vector<std::uint8_t> periodic;
        for (int i = 0; i < 5000; ++i)
            periodic.push_back(static_cast<std::uint8_t>(i % 7));
        corpora.push_back(std::move(periodic));
    }
    {
        Xoshiro256ss rng(5);
        std::vector<std::uint8_t> random(4096);
        for (auto &b : random)
            b = static_cast<std::uint8_t>(rng.next());
        corpora.push_back(std::move(random));
    }
    {
        Xoshiro256ss rng(77);
        std::vector<std::uint8_t> mixed(9000);
        for (auto &b : mixed)
            b = rng.chancePerMille(600)
                    ? static_cast<std::uint8_t>(rng.below(4))
                    : static_cast<std::uint8_t>(rng.next());
        corpora.push_back(std::move(mixed));
    }
    return corpora;
}

/**
 * The hash-chain searcher is required to be *exact*: same greedy
 * longest match, same smallest-distance tie-break, hence the same
 * token stream — byte for byte — as the O(window * len) scalar scan
 * it replaced (kept as lz77_reference).
 */
TEST(Lz77Reference, HashChainIsByteIdenticalToScalarScan)
{
    for (const Lz77Config cfg :
         {Lz77Config{}, Lz77Config{8, 3, 258}, Lz77Config{12, 3, 16}}) {
        const Lz77 codec(cfg);
        for (const auto &input : equivalenceCorpora()) {
            const auto fast = codec.compress(input);
            ASSERT_EQ(fast, lz77_reference::compress(input, cfg))
                << "input size " << input.size() << " windowBits "
                << cfg.windowBits;
            EXPECT_EQ(codec.compressedBits(input),
                      lz77_reference::compressedBits(input, cfg));
            // And the word-wise decoder equals the historical
            // bit-at-a-time one on the shared stream.
            EXPECT_EQ(codec.decompress(fast),
                      referenceDecompress(fast, cfg));
        }
    }
}

TEST(Lz77Reference, StreamMatchesReferenceAtEveryPartition)
{
    // Lz77Stream -> one-shot Lz77 -> reference: equality must hold
    // through the whole chain, for a partition that forces deferred
    // tokenization across append boundaries.
    const Lz77Config cfg;
    const Lz77 codec(cfg);
    Xoshiro256ss rng(91);
    std::vector<std::uint8_t> input(7000);
    for (auto &b : input)
        b = rng.chancePerMille(700)
                ? static_cast<std::uint8_t>(rng.below(5))
                : static_cast<std::uint8_t>(rng.next());
    Lz77Stream stream(cfg);
    for (std::size_t i = 0; i < input.size(); i += 311)
        stream.append(input.data() + i,
                      std::min<std::size_t>(311, input.size() - i));
    const auto streamed = stream.finish();
    ASSERT_EQ(streamed, codec.compress(input));
    ASSERT_EQ(streamed, lz77_reference::compress(input, cfg));
}

TEST(Lz77Stream, OneByteAppends)
{
    // Worst-case partition: every append is a single byte, so *every*
    // match straddles an append boundary and the hash-chain state must
    // carry across all of them.
    Lz77 codec;
    Xoshiro256ss rng(53);
    std::vector<std::uint8_t> input(4000);
    for (auto &b : input)
        b = rng.chancePerMille(650)
                ? static_cast<std::uint8_t>(rng.below(4))
                : static_cast<std::uint8_t>(rng.next());
    Lz77Stream stream;
    for (const std::uint8_t b : input)
        stream.append(&b, 1);
    EXPECT_EQ(stream.rawBytes(), input.size());
    const auto streamed = stream.finish();
    ASSERT_EQ(streamed, codec.compress(input));
    ASSERT_EQ(codec.decompress(streamed), input);
}

TEST(Lz77Stream, SplitsStraddlingEveryMatch)
{
    // A long repeated phrase partitioned so each cut lands *inside*
    // the match against the previous occurrence: position p copies
    // from p - 37, and appends split at every multiple of 37 +/- 1.
    Lz77 codec;
    std::vector<std::uint8_t> input;
    const std::string phrase = "deterministic-replay-interleaving!";
    while (input.size() < 5000)
        input.insert(input.end(), phrase.begin(), phrase.end());
    for (const std::size_t step : {36u, 37u, 38u, 1u}) {
        Lz77Stream stream;
        for (std::size_t i = 0; i < input.size(); i += step)
            stream.append(input.data() + i,
                          std::min<std::size_t>(step,
                                                input.size() - i));
        const auto streamed = stream.finish();
        ASSERT_EQ(streamed, codec.compress(input)) << "step " << step;
        ASSERT_EQ(codec.decompress(streamed), input);
    }
}

TEST(Lz77, SpanDecompressMatchesVectorOverload)
{
    Lz77 codec;
    const auto input = bytesOf("abcabcabcabc straddle straddle "
                               "straddle xyz xyz xyz");
    const auto comp = codec.compress(input);
    EXPECT_EQ(codec.decompress(comp.data(), comp.size()), input);
    EXPECT_EQ(codec.decompress(comp), input);
}

TEST(Lz77Stream, LongInputCrossesCompaction)
{
    // Large enough that the stream's window compaction fires several
    // times; output must still match the one-shot encoder exactly.
    Lz77 codec;
    std::vector<std::uint8_t> input;
    Xoshiro256ss rng(41);
    for (int i = 0; i < 600000; ++i)
        input.push_back(rng.chancePerMille(850)
                            ? static_cast<std::uint8_t>(i % 251)
                            : static_cast<std::uint8_t>(rng.next()));
    Lz77Stream stream;
    for (std::size_t i = 0; i < input.size(); i += 10007)
        stream.append(input.data() + i,
                      std::min<std::size_t>(10007, input.size() - i));
    const auto streamed = stream.finish();
    ASSERT_EQ(streamed, codec.compress(input));
    ASSERT_EQ(codec.decompress(streamed), input);
}

/**
 * Every truncation and every single-bit flip of a few compressed
 * streams: the decoder either decodes or throws RecordingFormatError
 * (never crashes, never reads past the input; the asan preset runs
 * this too), and its outcome — bytes, or exception kind and message —
 * equals the bitwise oracle's.
 */
TEST(Lz77, CorruptStreamsMatchBitwiseReference)
{
    std::vector<std::pair<Lz77Config, std::vector<std::uint8_t>>> cases;
    cases.emplace_back(Lz77Config{},
                       bytesOf("the quick brown fox jumps over the lazy "
                               "dog; the quick brown fox jumps again"));
    cases.emplace_back(Lz77Config{},
                       std::vector<std::uint8_t>(300, 0x5A));
    {
        Xoshiro256ss rng(19);
        std::vector<std::uint8_t> mixed(400);
        for (auto &b : mixed)
            b = rng.chancePerMille(600)
                    ? static_cast<std::uint8_t>(rng.below(3))
                    : static_cast<std::uint8_t>(rng.next());
        cases.emplace_back(Lz77Config{8, 3, 258}, std::move(mixed));
    }
    std::size_t decoded = 0;
    std::size_t rejected = 0;
    for (const auto &[cfg, input] : cases) {
        const Lz77 codec(cfg);
        const auto comp = codec.compress(input);
        const auto check = [&](const std::vector<std::uint8_t> &bad,
                               const std::string &what) {
            const std::string got =
                outcomeOf([&] { return codec.decompress(bad); });
            ASSERT_EQ(got, outcomeOf([&] {
                          return referenceDecompress(bad, cfg);
                      }))
                << what;
            ++(got.rfind("throw ", 0) == 0 ? rejected : decoded);
        };
        for (std::size_t n = 0; n < comp.size(); ++n)
            check(std::vector<std::uint8_t>(comp.begin(),
                                            comp.begin()
                                                + static_cast<long>(n)),
                  "truncated to " + std::to_string(n));
        for (std::size_t bit = 0; bit < comp.size() * 8; ++bit) {
            std::vector<std::uint8_t> bad = comp;
            bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
            check(bad, "bit " + std::to_string(bit) + " flipped");
        }
    }
    // Both outcomes occur: the sweep exercises the error paths and
    // the decode paths alike.
    EXPECT_GT(decoded, 0u);
    EXPECT_GT(rejected, 0u);
}

} // namespace
} // namespace delorean
