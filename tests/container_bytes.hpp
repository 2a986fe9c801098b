/**
 * @file
 * Byte-level helpers the container tests share: little-endian u64
 * access into a byte vector, re-sealing a segment record or a `.dla`
 * footer so only the readers' semantic checks can reject a forgery,
 * and the encoded bytes a checkpoint's chain takes.
 */

#ifndef DELOREAN_TESTS_CONTAINER_BYTES_HPP_
#define DELOREAN_TESTS_CONTAINER_BYTES_HPP_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/serialize_detail.hpp"
#include "store/archive_detail.hpp"
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

/// A `.dla` trailer: footer offset, footer bytes, footer CRC-32, end
/// magic.
inline constexpr std::size_t kDlaTrailerBytes = 32;

/// Offsets of the u64 fields of a segment record's header
/// (archive_detail::kRecordHeaderBytes bytes; the image follows it).
namespace record
{
inline constexpr std::size_t kIndex = 8;
inline constexpr std::size_t kStartGcc = 16;
inline constexpr std::size_t kEndGcc = 24;
inline constexpr std::size_t kImageKind = 32;
inline constexpr std::size_t kImageBytes = 40;
inline constexpr std::size_t kImageCrc = 48;
inline constexpr std::size_t kRawBytes = 56;
inline constexpr std::size_t kCompBytes = 64;
inline constexpr std::size_t kPayloadCrc = 72;
inline constexpr std::size_t kHeaderCrc = 80;
inline constexpr std::size_t kHeaderBytes = archive_detail::kRecordHeaderBytes;
} // namespace record

/** Offset of the image of the record at @p off. */
inline std::size_t
recordImageAt(std::size_t off)
{
    return off + record::kHeaderBytes;
}

/** Offset of the payload of the record at @p off of @p bytes. */
inline std::size_t
recordPayloadAt(const std::vector<std::uint8_t> &bytes, std::size_t off)
{
    return recordImageAt(off)
           + static_cast<std::size_t>(u64At(bytes, off + record::kImageBytes));
}

/** Bytes [at, at + n) of @p bytes. */
inline std::vector<std::uint8_t>
slice(const std::vector<std::uint8_t> &bytes, std::size_t at, std::size_t n)
{
    return std::vector<std::uint8_t>(
        bytes.begin() + static_cast<long>(at),
        bytes.begin() + static_cast<long>(at + n));
}

/**
 * Recompute the image CRC, the payload CRC and the header CRC of the
 * record at @p off of @p bytes from the bytes it holds now (after an
 * edit that kept its sizes).
 */
inline void
resealRecord(std::vector<std::uint8_t> &bytes, std::size_t off)
{
    const std::size_t image = recordImageAt(off);
    const std::size_t payload = recordPayloadAt(bytes, off);
    putU64At(bytes, off + record::kImageCrc,
             crc32(bytes.data() + image, payload - image));
    putU64At(bytes, off + record::kPayloadCrc,
             crc32(bytes.data() + payload,
                   static_cast<std::size_t>(
                       u64At(bytes, off + record::kCompBytes))));
    putU64At(bytes, off + record::kHeaderCrc,
             crc32(bytes.data() + off, record::kHeaderCrc));
}

/**
 * Truncate @p bytes at @p footer_off, then append @p raw_footer plus a
 * consistent trailer (offset, size, CRC, end magic), so only the
 * reader's semantic checks can reject the result.
 */
inline void
rewriteFooter(std::vector<std::uint8_t> &bytes, std::size_t footer_off,
              const std::vector<std::uint8_t> &raw_footer)
{
    const std::uint64_t end_magic = u64At(bytes, bytes.size() - 8);
    bytes.resize(footer_off);
    bytes.insert(bytes.end(), raw_footer.begin(), raw_footer.end());
    const std::size_t trailer = bytes.size();
    bytes.resize(trailer + kDlaTrailerBytes);
    putU64At(bytes, trailer, footer_off);
    putU64At(bytes, trailer + 8, raw_footer.size());
    putU64At(bytes, trailer + 16,
             crc32(raw_footer.data(), raw_footer.size()));
    putU64At(bytes, trailer + 24, end_magic);
}

/** Offset of the footer of `.dla` @p bytes. */
inline std::size_t
footerOffset(const std::vector<std::uint8_t> &bytes)
{
    return static_cast<std::size_t>(
        u64At(bytes, bytes.size() - kDlaTrailerBytes));
}

/** The footer of `.dla` @p bytes (stored raw). */
inline std::vector<std::uint8_t>
rawFooter(const std::vector<std::uint8_t> &bytes)
{
    return slice(bytes, footerOffset(bytes),
                 static_cast<std::size_t>(
                     u64At(bytes, bytes.size() - kDlaTrailerBytes + 8)));
}

/**
 * Offset in a raw `.dla` footer of its record index (the clean flag;
 * the record count follows, then (offset, bytes) per record): past the
 * machine (11 u64s) and mode (7 u64s) headers, the app name, the seed
 * and the iterations.
 */
inline std::size_t
footerIndexAt(const std::vector<std::uint8_t> &footer)
{
    return 152 + static_cast<std::size_t>(u64At(footer, 144)) + 16;
}

/** Encoded bytes of one checkpoint's chain (see chainBytes). */
struct ChainBytes
{
    std::size_t keyframe = 0; ///< the chain's keyframe image
    std::size_t read = 0;     ///< keyframe plus every delta up to it
};

/**
 * The encoded image bytes materializing checkpoint @p i of @p ckpts
 * (consecutive checkpoints of one recording) reads, sized exactly as
 * the codec writes them: its chain's keyframe image, plus each delta
 * image after it, each against the checkpoint before it.
 */
inline ChainBytes
chainBytes(const std::vector<SystemCheckpoint> &ckpts, std::size_t i)
{
    const std::vector<CheckpointImage> chain = ckpts[i].memory.chain();
    if (chain.size() > i + 1)
        throw std::logic_error("chain longer than the checkpoints");
    const std::size_t head = i + 1 - chain.size();
    ChainBytes b;
    b.keyframe = serialize_detail::keyframeBytes(ckpts[head],
                                                 chain.front().words());
    b.read = b.keyframe;
    for (std::size_t k = 1; k < chain.size(); ++k)
        b.read += serialize_detail::deltaBytes(
            ckpts[head + k - 1], ckpts[head + k], *chain[k].delta());
    return b;
}

} // namespace test
} // namespace delorean

#endif // DELOREAN_TESTS_CONTAINER_BYTES_HPP_
