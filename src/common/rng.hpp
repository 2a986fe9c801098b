/**
 * @file
 * Deterministic pseudo-random number generators.
 *
 * Two generators are provided:
 *  - SplitMix64: tiny, used for seeding and hashing.
 *  - Xoshiro256ss: the workhorse generator for workload generation.
 *
 * Both are value types with trivially copyable state so that a thread
 * context (which embeds its RNG) can be checkpointed and restored on a
 * chunk squash by plain assignment.
 */

#ifndef DELOREAN_COMMON_RNG_HPP_
#define DELOREAN_COMMON_RNG_HPP_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace delorean
{

/** One step of the SplitMix64 sequence; also a decent 64-bit mixer. */
constexpr std::uint64_t
splitMix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

/** Stateless 64-bit mix; used for content hashing. */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    std::uint64_t s = x;
    return splitMix64(s);
}

/**
 * Home slot of @p key in a table of @p slots slots (a power of two,
 * at least 2) by multiply-shift (Fibonacci) hashing: the top bits of
 * key * 2^64/phi. One multiply, where mix64 takes two and three
 * xor-shifts; it spreads the strided word and line addresses the
 * engine's tables hold. Only for table indices: no stored byte
 * depends on it.
 */
inline std::size_t
tableSlot(std::uint64_t key, std::size_t slots)
{
    return static_cast<std::size_t>(
        (key * 0x9E3779B97F4A7C15ull)
        >> (std::countl_zero(static_cast<std::uint64_t>(slots)) + 1));
}

/**
 * 64-bit content hash of a byte image: mix64 chained over
 * little-endian 64-bit words, seeded with the length. The golden-byte
 * tests pin recordings and archives by this value, so it must never
 * change.
 */
inline std::uint64_t
hashBytes(std::string_view bytes)
{
    std::uint64_t h = mix64(bytes.size());
    for (std::size_t off = 0; off < bytes.size(); off += 8) {
        std::uint64_t w = 0;
        for (std::size_t i = 0; i < 8 && off + i < bytes.size(); ++i)
            w |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(bytes[off + i]))
                 << (8 * i);
        h = mix64(h ^ w);
    }
    return h;
}

/**
 * xoshiro256** generator. Trivially copyable; suitable for embedding in
 * checkpointable contexts.
 */
class Xoshiro256ss
{
  public:
    Xoshiro256ss() { seed(0xDE10EEA5u); }

    explicit Xoshiro256ss(std::uint64_t seed_value) { seed(seed_value); }

    /** Re-seed the full 256-bit state from a 64-bit value. */
    void
    seed(std::uint64_t seed_value)
    {
        std::uint64_t sm = seed_value;
        for (auto &word : state_)
            word = splitMix64(sm);
    }

    /** Next 64 uniformly distributed bits. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /** Uniform integer in [0, bound); bound must be nonzero. */
    std::uint64_t
    below(std::uint64_t bound)
    {
        // Multiply-shift range reduction; bias is negligible for the
        // bounds used in this project (all far below 2^32).
        return static_cast<std::uint64_t>(
            (static_cast<unsigned __int128>(next()) * bound) >> 64);
    }

    /** Uniform integer in [lo, hi] inclusive. */
    std::uint64_t
    range(std::uint64_t lo, std::uint64_t hi)
    {
        return lo + below(hi - lo + 1);
    }

    /** Bernoulli draw: true with probability per-mille/1000. */
    bool
    chancePerMille(unsigned per_mille)
    {
        return below(1000) < per_mille;
    }

    /** Bernoulli draw with probability num/den. */
    bool
    chance(std::uint64_t num, std::uint64_t den)
    {
        return below(den) < num;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    bool operator==(const Xoshiro256ss &) const = default;

  private:
    static constexpr std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
};

} // namespace delorean

#endif // DELOREAN_COMMON_RNG_HPP_
