/**
 * @file
 * CRC-32 (IEEE 802.3 polynomial, reflected) used by the archive
 * container to detect payload corruption. Every segment and the
 * footer carry the CRC of their *compressed* bytes, so a bit flip is
 * caught before the LZ77 decoder or the deserializer ever see it.
 *
 * Slicing-by-8: eight derived tables fold eight input bytes per step
 * (two 32-bit loads, eight table lookups), about four times the
 * throughput of the classic one-table byte loop, with identical
 * results. Only the final size % 8 bytes go through table 0 alone.
 */

#ifndef DELOREAN_STORE_CRC32_HPP_
#define DELOREAN_STORE_CRC32_HPP_

#include <array>
#include <cstddef>
#include <cstdint>

namespace delorean
{

namespace crc32_detail
{

using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/**
 * tables[0] is the byte-at-a-time table; tables[k][b] is the CRC
 * contribution of byte b followed by k zero bytes.
 */
constexpr Tables
makeTables()
{
    Tables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k)
        for (std::uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    return t;
}

inline constexpr Tables kTables = makeTables();

/** Little-endian u32 at @p p (any alignment, any host byte order). */
inline std::uint32_t
loadLe32(const std::uint8_t *p)
{
    return static_cast<std::uint32_t>(p[0])
           | static_cast<std::uint32_t>(p[1]) << 8
           | static_cast<std::uint32_t>(p[2]) << 16
           | static_cast<std::uint32_t>(p[3]) << 24;
}

} // namespace crc32_detail

/** CRC-32 of @p size bytes at @p data. */
inline std::uint32_t
crc32(const std::uint8_t *data, std::size_t size)
{
    const crc32_detail::Tables &t = crc32_detail::kTables;
    std::uint32_t c = 0xFFFFFFFFu;
    for (; size >= 8; data += 8, size -= 8) {
        const std::uint32_t lo = crc32_detail::loadLe32(data) ^ c;
        const std::uint32_t hi = crc32_detail::loadLe32(data + 4);
        c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu]
            ^ t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24]
            ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu]
            ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    }
    for (; size > 0; ++data, --size)
        c = t[0][(c ^ *data) & 0xFFu] ^ (c >> 8);
    return c ^ 0xFFFFFFFFu;
}

} // namespace delorean

#endif // DELOREAN_STORE_CRC32_HPP_
