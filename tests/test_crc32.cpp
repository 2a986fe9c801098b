/**
 * @file
 * Unit tests for the slicing-by-8 CRC-32 (store/crc32.hpp).
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "store/crc32.hpp"

namespace delorean
{
namespace
{

/** Bytewise oracle: the one-table loop, one input byte per step. */
std::uint32_t
referenceCrc32(const std::uint8_t *data, std::size_t size)
{
    std::uint32_t c = 0xFFFFFFFFu;
    for (std::size_t i = 0; i < size; ++i) {
        c ^= data[i];
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, CheckValue)
{
    const char *check = "123456789";
    EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t *>(check), 9),
              0xCBF43926u);
    EXPECT_EQ(crc32(nullptr, 0), 0u);
}

TEST(Crc32, EveryLengthAndAlignmentMatchesBytewiseReference)
{
    // Lengths 0..67 cover empty input, tails only, and one to eight
    // whole 8-byte steps plus every tail; offsets 0..7 put the first
    // 8-byte load at every alignment.
    Xoshiro256ss rng(32);
    std::vector<std::uint8_t> buf(67 + 8);
    for (auto &b : buf)
        b = static_cast<std::uint8_t>(rng.next());
    for (std::size_t align = 0; align < 8; ++align)
        for (std::size_t len = 0; len <= 67; ++len)
            ASSERT_EQ(crc32(buf.data() + align, len),
                      referenceCrc32(buf.data() + align, len))
                << "length " << len << " alignment " << align;
}

} // namespace
} // namespace delorean
