/**
 * @file
 * Byte-level helpers the container tests share: little-endian u64
 * access into a byte vector, and re-sealing a `.dla` footer so only
 * the reader's semantic checks can reject a forged index.
 */

#ifndef DELOREAN_TESTS_CONTAINER_BYTES_HPP_
#define DELOREAN_TESTS_CONTAINER_BYTES_HPP_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "compress/lz77.hpp"
#include "store/crc32.hpp"

namespace delorean
{
namespace test
{

inline std::uint64_t
u64At(const std::vector<std::uint8_t> &bytes, std::size_t off)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(bytes[off + i]) << (8 * i);
    return v;
}

inline void
putU64At(std::vector<std::uint8_t> &bytes, std::size_t off,
         std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        bytes[off + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

inline std::vector<std::uint8_t>
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::vector<std::uint8_t>(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
}

inline void
writeFile(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

/**
 * Every file of a ring directory, by name order: each name, a NUL,
 * then the file's bytes — what two rings must share to be identical.
 */
inline std::string
ringDirBytes(const std::string &dir)
{
    std::vector<std::string> names;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        names.push_back(entry.path().filename().string());
    std::sort(names.begin(), names.end());
    std::string all;
    for (const std::string &name : names) {
        const std::vector<std::uint8_t> bytes = readFile(dir + "/" + name);
        all += name;
        all.push_back('\0');
        all.append(bytes.begin(), bytes.end());
    }
    return all;
}

/**
 * Truncate @p bytes at @p footer_off, then append @p raw_footer
 * compressed plus a consistent trailer (offset, sizes, CRC, end magic),
 * so only the reader's semantic checks can reject the result.
 */
inline void
rewriteFooter(std::vector<std::uint8_t> &bytes, std::size_t footer_off,
              const std::vector<std::uint8_t> &raw_footer)
{
    const std::uint64_t end_magic = u64At(bytes, bytes.size() - 8);
    const std::vector<std::uint8_t> comp = Lz77().compress(raw_footer);
    bytes.resize(footer_off);
    bytes.insert(bytes.end(), comp.begin(), comp.end());
    const std::size_t trailer = bytes.size();
    bytes.resize(trailer + 40);
    putU64At(bytes, trailer, footer_off);
    putU64At(bytes, trailer + 8, comp.size());
    putU64At(bytes, trailer + 16, raw_footer.size());
    putU64At(bytes, trailer + 24, crc32(comp.data(), comp.size()));
    putU64At(bytes, trailer + 32, end_magic);
}

/** The decompressed footer of `.dla` @p bytes. */
inline std::vector<std::uint8_t>
rawFooter(const std::vector<std::uint8_t> &bytes)
{
    const std::size_t trailer = bytes.size() - 40;
    return Lz77().decompress(
        bytes.data() + u64At(bytes, trailer),
        static_cast<std::size_t>(u64At(bytes, trailer + 8)));
}

} // namespace test
} // namespace delorean

#endif // DELOREAN_TESTS_CONTAINER_BYTES_HPP_
