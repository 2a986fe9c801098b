/**
 * @file
 * Shared binary-serialization primitives.
 *
 * The two containers (store/archive.cpp, store/ring.cpp) write the
 * same little-endian primitives — u64 fields, length-prefixed strings,
 * ThreadContext images, machine/mode headers and SystemCheckpoints —
 * and read them back through a ByteCursor over bytes already in
 * memory.
 *
 * Checkpoint images are stored as keyframe chains (core/checkpoint):
 * a keyframe (encodeKeyframe) heads a chain, and each later image is
 * a delta against the checkpoint before it (encodeDelta). The writers
 * serialize the chain nodes a recording holds; ChainDecoder turns
 * stored images back into nodes, verifying each chain. This is the
 * one checkpoint-image codec behind the segment records of the `.dla`
 * and the ring.
 */

#ifndef DELOREAN_CORE_SERIALIZE_DETAIL_HPP_
#define DELOREAN_CORE_SERIALIZE_DETAIL_HPP_

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <ostream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/config.hpp"
#include "common/errors.hpp"
#include "core/checkpoint.hpp"

namespace delorean
{
namespace serialize_detail
{

/** Little-endian u64 at @p p (any alignment, any host byte order). */
inline std::uint64_t
loadU64(const std::uint8_t *p)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
}

/**
 * Read cursor over an in-memory byte range. Running past the end
 * throws a "file truncated" RecordingFormatError.
 */
class ByteCursor
{
  public:
    ByteCursor(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    /** The next @p n bytes; advances past them. */
    const std::uint8_t *
    take(std::size_t n)
    {
        if (n > size_ - pos_)
            throw RecordingFormatError("file truncated");
        const std::uint8_t *p = data_ + pos_;
        pos_ += n;
        return p;
    }

    std::size_t offset() const { return pos_; }
    std::size_t remaining() const { return size_ - pos_; }

  private:
    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
};

inline void
putU64(std::ostream &out, std::uint64_t v)
{
    std::uint8_t bytes[8];
    for (int i = 0; i < 8; ++i)
        bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
    out.write(reinterpret_cast<const char *>(bytes), 8);
}

inline std::uint64_t
getU64(ByteCursor &in)
{
    return loadU64(in.take(8));
}

inline void
putString(std::ostream &out, const std::string &s)
{
    putU64(out, s.size());
    out.write(s.data(), static_cast<std::streamsize>(s.size()));
}

inline std::string
getString(ByteCursor &in)
{
    const std::uint64_t n = getU64(in);
    if (n > (1u << 20))
        throw RecordingFormatError("string too long");
    const std::uint8_t *p = in.take(static_cast<std::size_t>(n));
    return std::string(reinterpret_cast<const char *>(p),
                       static_cast<std::size_t>(n));
}

static_assert(std::is_trivially_copyable_v<ThreadContext>,
              "ThreadContext must stay trivially copyable: checkpoints "
              "serialize it by value");
static_assert(sizeof(ThreadContext) % 8 == 0,
              "checkpoint images store a ThreadContext as u64 words");

/** Store @p v little-endian at @p p (any alignment). */
inline void
storeU64(std::uint8_t *p, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/** The bytes @p ctx is serialized as, written to @p buf. */
inline void
contextBytes(const ThreadContext &ctx, std::uint8_t *buf)
{
    // The image includes ThreadContext's padding bytes, whose content
    // depends on how the compiler built the object (sanitizer builds
    // leave stack garbage there). Zero them so the bytes on disk are a
    // function of the context's fields alone.
    ThreadContext image = ctx;
#if defined(__has_builtin)
#if __has_builtin(__builtin_clear_padding)
    __builtin_clear_padding(&image);
#endif
#endif
    std::memcpy(buf, &image, sizeof(ThreadContext));
}

inline void
putMode(std::ostream &out, const ModeConfig &mode)
{
    putU64(out, static_cast<std::uint64_t>(mode.mode));
    putU64(out, mode.chunkSize);
    putU64(out, mode.varSizeTruncatePercent);
    putU64(out, mode.csDistanceBits);
    putU64(out, mode.csSizeBits);
    putU64(out, mode.piProcIdBits);
    putU64(out, mode.stratifyChunksPerProc);
}

inline ModeConfig
getMode(ByteCursor &in)
{
    ModeConfig mode;
    mode.mode = static_cast<ExecMode>(getU64(in));
    mode.chunkSize = getU64(in);
    mode.varSizeTruncatePercent = static_cast<unsigned>(getU64(in));
    mode.csDistanceBits = static_cast<unsigned>(getU64(in));
    mode.csSizeBits = static_cast<unsigned>(getU64(in));
    mode.piProcIdBits = static_cast<unsigned>(getU64(in));
    mode.stratifyChunksPerProc = static_cast<unsigned>(getU64(in));
    return mode;
}

/** Machine header: 11 u64 fields. */
inline void
putMachine(std::ostream &out, const MachineConfig &m)
{
    putU64(out, m.numProcs);
    putU64(out, m.mem.l1SizeBytes);
    putU64(out, m.mem.l1Ways);
    putU64(out, m.mem.l2SizeBytes);
    putU64(out, m.mem.l2Ways);
    putU64(out, m.bulk.signatureBits);
    putU64(out, m.bulk.commitArbitration);
    putU64(out, m.bulk.maxConcurrentCommits);
    putU64(out, m.bulk.simultaneousChunks);
    putU64(out, m.bulk.collisionBackoffThreshold);
    putU64(out, m.bulk.exactDisambiguation ? 1 : 0);
}

inline MachineConfig
getMachine(ByteCursor &in)
{
    MachineConfig m;
    m.numProcs = static_cast<unsigned>(getU64(in));
    m.mem.l1SizeBytes = static_cast<unsigned>(getU64(in));
    m.mem.l1Ways = static_cast<unsigned>(getU64(in));
    m.mem.l2SizeBytes = static_cast<unsigned>(getU64(in));
    m.mem.l2Ways = static_cast<unsigned>(getU64(in));
    m.bulk.signatureBits = static_cast<unsigned>(getU64(in));
    m.bulk.commitArbitration = getU64(in);
    m.bulk.maxConcurrentCommits = static_cast<unsigned>(getU64(in));
    m.bulk.simultaneousChunks = static_cast<unsigned>(getU64(in));
    m.bulk.collisionBackoffThreshold =
        static_cast<unsigned>(getU64(in));
    m.bulk.exactDisambiguation = getU64(in) != 0;
    return m;
}

// ----- checkpoint images ----------------------------------------------------
//
// An image is its lead (gcc, dmaConsumed, rrNext, context count: four
// u64s), one context block per processor, then
//   keyframe: the word list of every non-default word;
//   delta:    the base GCC (u64), the changed-word list, the erased-
//             word list, the memory hash (u64).
// A context block is a processor's kContextWords u64 words (the
// ThreadContext's bytes as words, then its committed-chunk counter) as
// a kContextMaskBytes presence mask, bit k set when word k differs
// from the base's, followed by the set words' values in word order.
// A keyframe's base is all zeros; a delta's the checkpoint before it.
// A list is its word count (u64) and body byte length (u64), then per
// word the LEB128 varint of its gap from the previous word address
// (the first word's gap is its address), plus, in a word list, the
// value as 8 raw bytes; erased lists carry gaps only. Decoders reject
// a non-minimal varint, a zero gap after the first word and a body
// length its words do not fill exactly, so an image's bytes are a
// pure function of its content.

/// Image lead: gcc, dmaConsumed, rrNext, context count.
inline constexpr std::size_t kCheckpointLeadBytes = 32;
/// u64 words of one processor's context in an image: its
/// ThreadContext's bytes, then its committed-chunk counter.
inline constexpr std::size_t kContextWords = sizeof(ThreadContext) / 8 + 1;
/// Bytes of a context block's presence mask (one bit per word).
inline constexpr std::size_t kContextMaskBytes = (kContextWords + 7) / 8;
/// A word list's header: word count, body byte length.
inline constexpr std::size_t kListHeaderBytes = 16;
/// Widest LEB128 varint of a u64 (an address gap).
inline constexpr std::size_t kMaxVarintBytes = 10;

/// Context-count ceiling every image decoder enforces.
inline constexpr std::uint64_t kMaxCheckpointContexts = 64;

static_assert(kContextWords <= 64, "a context mask fits one u64");

using ContextWords = std::array<std::uint64_t, kContextWords>;

inline void
checkContextCount(std::uint64_t n)
{
    if (n > kMaxCheckpointContexts)
        throw RecordingFormatError("checkpoint context count "
                                   + std::to_string(n)
                                   + " outside [0, 64]");
}

/** Processor @p p's context words in @p ckpt. */
inline ContextWords
contextWords(const SystemCheckpoint &ckpt, std::size_t p)
{
    std::uint8_t bytes[sizeof(ThreadContext)];
    contextBytes(ckpt.contexts[p], bytes);
    ContextWords words;
    for (std::size_t k = 0; k + 1 < kContextWords; ++k)
        words[k] = loadU64(bytes + 8 * k);
    words[kContextWords - 1] = ckpt.committedChunks[p];
    return words;
}

/** The presence mask of @p words against @p base. */
inline std::uint64_t
contextMask(const ContextWords &words, const ContextWords &base)
{
    std::uint64_t mask = 0;
    for (std::size_t k = 0; k < kContextWords; ++k)
        if (words[k] != base[k])
            mask |= std::uint64_t{1} << k;
    return mask;
}

/**
 * Call @p fn(words, mask) for each context of @p ckpt, diffed against
 * @p base's (all zeros when @p base is null).
 */
template <typename Fn>
void
forEachContextBlock(const SystemCheckpoint *base,
                    const SystemCheckpoint &ckpt, Fn &&fn)
{
    const std::size_t n = ckpt.contexts.size();
    if (ckpt.committedChunks.size() != n
        || (base && base->contexts.size() != n))
        throw std::logic_error("checkpoint image: context counts "
                               "disagree");
    const ContextWords zeros{};
    for (std::size_t p = 0; p < n; ++p) {
        const ContextWords words = contextWords(ckpt, p);
        fn(words, contextMask(words, base ? contextWords(*base, p) : zeros));
    }
}

/** Bytes of @p ckpt's lead and context blocks against @p base. */
inline std::size_t
headerBytes(const SystemCheckpoint *base, const SystemCheckpoint &ckpt)
{
    std::size_t bytes = kCheckpointLeadBytes;
    forEachContextBlock(base, ckpt,
                        [&bytes](const ContextWords &, std::uint64_t mask) {
                            bytes += kContextMaskBytes
                                     + 8 * static_cast<std::size_t>(
                                         std::popcount(mask));
                        });
    return bytes;
}

/** Write @p ckpt's lead and context blocks at @p p; returns the end. */
inline std::uint8_t *
storeHeader(std::uint8_t *p, const SystemCheckpoint *base,
            const SystemCheckpoint &ckpt)
{
    storeU64(p, ckpt.gcc);
    storeU64(p + 8, ckpt.dmaConsumed);
    storeU64(p + 16, ckpt.rrNext);
    storeU64(p + 24, ckpt.contexts.size());
    p += kCheckpointLeadBytes;
    forEachContextBlock(base, ckpt,
                        [&p](const ContextWords &words, std::uint64_t mask) {
                            for (std::size_t b = 0; b < kContextMaskBytes;
                                 ++b)
                                *p++ = static_cast<std::uint8_t>(
                                    mask >> (8 * b));
                            for (std::size_t k = 0; k < kContextWords; ++k)
                                if (mask >> k & 1) {
                                    storeU64(p, words[k]);
                                    p += 8;
                                }
                        });
    return p;
}

/** Bytes of the LEB128 varint of @p v. */
inline std::size_t
varintBytes(std::uint64_t v)
{
    std::size_t n = 1;
    for (; v >= 0x80; v >>= 7)
        ++n;
    return n;
}

/** Write the LEB128 varint of @p v at @p p; returns the end. */
inline std::uint8_t *
storeVarint(std::uint8_t *p, std::uint64_t v)
{
    for (; v >= 0x80; v >>= 7)
        *p++ = static_cast<std::uint8_t>(v | 0x80);
    *p++ = static_cast<std::uint8_t>(v);
    return p;
}

/** Read a minimal LEB128 varint of a u64. */
inline std::uint64_t
getVarint(ByteCursor &in)
{
    std::uint64_t v = 0;
    for (unsigned shift = 0;; shift += 7) {
        const std::uint8_t b = *in.take(1);
        if (shift == 63 && b > 1)
            throw RecordingFormatError("varint overflows 64 bits");
        v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
        if (!(b & 0x80)) {
            if (b == 0 && shift > 0)
                throw RecordingFormatError("non-minimal varint");
            return v;
        }
    }
}

/** Address of a list entry (a word's address, or an erased address). */
inline Addr
entryAddr(const CheckpointImage::Word &word)
{
    return word.first;
}

inline Addr
entryAddr(Addr addr)
{
    return addr;
}

/**
 * Body bytes of a list of address-sorted @p entries: the gaps, plus
 * 8 value bytes per entry of a word list.
 */
template <typename Entry>
std::size_t
listBodyBytes(const std::vector<Entry> &entries)
{
    constexpr std::size_t kValueBytes =
        std::is_same_v<Entry, Addr> ? 0 : 8;
    std::size_t bytes = entries.size() * kValueBytes;
    Addr prev = 0;
    for (const Entry &e : entries) {
        bytes += varintBytes(entryAddr(e) - prev);
        prev = entryAddr(e);
    }
    return bytes;
}

/** Write a list whose body takes @p body bytes at @p p; returns the end. */
template <typename Entry>
std::uint8_t *
storeList(std::uint8_t *p, const std::vector<Entry> &entries,
          std::size_t body)
{
    storeU64(p, entries.size());
    storeU64(p + 8, body);
    p += kListHeaderBytes;
    Addr prev = 0;
    for (const Entry &e : entries) {
        p = storeVarint(p, entryAddr(e) - prev);
        prev = entryAddr(e);
        if constexpr (!std::is_same_v<Entry, Addr>) {
            storeU64(p, e.second);
            p += 8;
        }
    }
    return p;
}

/** Bytes of the keyframe image of @p ckpt holding @p words. */
inline std::size_t
keyframeBytes(const SystemCheckpoint &ckpt,
              const std::vector<CheckpointImage::Word> &words)
{
    return headerBytes(nullptr, ckpt) + kListHeaderBytes
           + listBodyBytes(words);
}

/** Bytes of the image of @p delta, @p ckpt's against @p base. */
inline std::size_t
deltaBytes(const SystemCheckpoint &base, const SystemCheckpoint &ckpt,
           const MemoryDelta &delta)
{
    return headerBytes(&base, ckpt) + 8 + 2 * kListHeaderBytes
           + listBodyBytes(delta.changed) + listBodyBytes(delta.erased)
           + 8;
}

/**
 * Whether the containers store @p cur as a keyframe rather
 * than a delta on @p prev, the checkpoint before it (null for the
 * first): it heads its chain, or its image does not keep a delta
 * against prev's (a recording assembled from another one's images,
 * such as an interval view).
 */
inline bool
storedAsKeyframe(const SystemCheckpoint *prev, const SystemCheckpoint &cur)
{
    return !prev || cur.memory.headsChain()
           || !cur.memory.follows(prev->memory);
}

/** Throw std::logic_error unless an encoder filled exactly its size. */
inline void
checkEncoded(const std::string &out, const std::uint8_t *end)
{
    if (end != reinterpret_cast<const std::uint8_t *>(out.data())
                   + out.size())
        throw std::logic_error("checkpoint image size miscounted");
}

/**
 * Keyframe image of @p ckpt: its header, then the memory population in
 * address order, which makes the image a pure function of the
 * checkpoint's content. A chain head's words are serialized as the
 * image holds them; any other image is materialized first.
 */
inline std::string
encodeKeyframe(const SystemCheckpoint &ckpt)
{
    const CheckpointImage &image = ckpt.memory;
    std::vector<CheckpointImage::Word> rebuilt;
    if (!image.headsChain())
        rebuilt = CheckpointImage::sortedWords(image.materialize());
    const auto &words = image.headsChain() ? image.words() : rebuilt;
    const std::size_t body = listBodyBytes(words);
    std::string out(headerBytes(nullptr, ckpt) + kListHeaderBytes + body,
                    '\0');
    std::uint8_t *p = reinterpret_cast<std::uint8_t *>(out.data());
    p = storeList(storeHeader(p, nullptr, ckpt), words, body);
    checkEncoded(out, p);
    return out;
}

/**
 * Delta image of @p ckpt against @p base, the checkpoint before it:
 * the header (contexts as their changes since @p base), base.gcc, the
 * words @p ckpt holds with a value @p base lacks, the words that went
 * back to their default value, then ckpt.memory.hash(), which a
 * decoder checks the rebuilt state against. The delta the image keeps
 * is serialized as is, so @p ckpt's image must be a delta on @p base's
 * (!storedAsKeyframe). Like a keyframe, a pure function of the two
 * checkpoints' content.
 */
inline std::string
encodeDelta(const SystemCheckpoint &base, const SystemCheckpoint &ckpt)
{
    if (!ckpt.memory.follows(base.memory))
        throw std::logic_error("checkpoint image is not a delta on its "
                               "base");
    const MemoryDelta *delta = ckpt.memory.delta();
    const std::size_t changed = listBodyBytes(delta->changed);
    const std::size_t erased = listBodyBytes(delta->erased);
    std::string out(headerBytes(&base, ckpt) + 8 + 2 * kListHeaderBytes
                        + changed + erased + 8,
                    '\0');
    std::uint8_t *p = storeHeader(
        reinterpret_cast<std::uint8_t *>(out.data()), &base, ckpt);
    storeU64(p, base.gcc);
    p = storeList(p + 8, delta->changed, changed);
    p = storeList(p, delta->erased, erased);
    storeU64(p, ckpt.memory.hash());
    checkEncoded(out, p + 8);
    return out;
}

/** How a container stores one checkpoint image. */
enum class ImageKind : std::uint64_t
{
    kKeyframe = 1, ///< full image: heads a chain
    kDelta = 2,    ///< against the previous checkpoint
};

/** Read a context block's presence mask, rejecting bits past it. */
inline std::uint64_t
getContextMask(ByteCursor &in)
{
    const std::uint8_t *b = in.take(kContextMaskBytes);
    std::uint64_t mask = 0;
    for (std::size_t i = 0; i < kContextMaskBytes; ++i)
        mask |= static_cast<std::uint64_t>(b[i]) << (8 * i);
    if (mask >> kContextWords)
        throw RecordingFormatError(
            "context presence mask names word "
            + std::to_string(std::countr_zero(mask >> kContextWords)
                             + kContextWords)
            + " past the context's " + std::to_string(kContextWords));
    return mask;
}

/**
 * Reject a list of @p count entries whose body cannot take @p body
 * bytes: entries take 1 to kMaxVarintBytes gap bytes plus
 * @p value_bytes each.
 */
inline void
checkListSize(std::uint64_t count, std::uint64_t body,
              std::size_t value_bytes)
{
    if (count > body / (1 + value_bytes)
        || body > count * (kMaxVarintBytes + value_bytes))
        throw RecordingFormatError(
            "checkpoint word list of " + std::to_string(count)
            + " words cannot take " + std::to_string(body) + " bytes");
}

/**
 * Read a list header and check its body fits the rest of @p in and
 * can hold its count. Returns a cursor over the body.
 */
inline ByteCursor
getListBody(ByteCursor &in, std::size_t value_bytes, std::uint64_t &count)
{
    count = getU64(in);
    const std::uint64_t body = getU64(in);
    if (body > in.remaining())
        throw RecordingFormatError("checkpoint word list runs past its "
                                   "image");
    checkListSize(count, body, value_bytes);
    return ByteCursor(in.take(static_cast<std::size_t>(body)),
                      static_cast<std::size_t>(body));
}

/**
 * Decode a list body of @p count entries, calling @p fn(addr, cursor)
 * for each, where the cursor stands at the entry's value bytes (if
 * any; @p fn takes them). Addresses must ascend strictly: a gap after
 * the first is nonzero and must not wrap.
 */
template <typename Fn>
void
forEachListEntry(ByteCursor body, std::uint64_t count, Fn &&fn)
{
    Addr addr = 0;
    for (std::uint64_t k = 0; k < count; ++k) {
        const std::uint64_t gap = getVarint(body);
        if (k > 0 && gap == 0)
            throw RecordingFormatError(
                "checkpoint word list repeats an address (zero gap)");
        if (gap > ~addr)
            throw RecordingFormatError(
                "checkpoint word list gap wraps the address space");
        addr += gap;
        fn(addr, body);
    }
    if (body.remaining() != 0)
        throw RecordingFormatError(
            "checkpoint word list byte length disagrees with its words");
}

/** What a structural walk of one checkpoint image learns. */
struct CheckpointExtent
{
    std::uint64_t gcc = 0;
    std::uint64_t contexts = 0;
    std::uint64_t baseGcc = 0; ///< delta: GCC of the image it applies to
    /// Offset past the context blocks: a keyframe's word list, a
    /// delta's base GCC.
    std::size_t fieldsAt = 0;
    std::size_t bytes = 0; ///< whole image, header plus word lists
};

/**
 * Walk the @p kind image that starts at @p data without decoding it:
 * each context block and list is skipped by its mask or byte length
 * (O(1) per list), and each must fit the @p size bytes the image
 * region holds. Throws what ChainDecoder would throw on the same
 * bytes' structure; only list contents, base GCCs and memory hashes
 * are left to the decode.
 */
inline CheckpointExtent
scanImage(ImageKind kind, const std::uint8_t *data, std::size_t size)
{
    ByteCursor in(data, size);
    CheckpointExtent ext;
    ext.gcc = getU64(in);
    in.take(16); // dmaConsumed, rrNext
    ext.contexts = getU64(in);
    checkContextCount(ext.contexts);
    for (std::uint64_t p = 0; p < ext.contexts; ++p)
        in.take(8 * static_cast<std::size_t>(
                        std::popcount(getContextMask(in))));
    ext.fieldsAt = in.offset();
    std::uint64_t count = 0;
    if (kind == ImageKind::kKeyframe) {
        getListBody(in, 8, count);
    } else {
        ext.baseGcc = getU64(in);
        getListBody(in, 8, count); // changed words
        getListBody(in, 0, count); // erased words
        getU64(in);                // memory hash
    }
    ext.bytes = in.offset();
    return ext;
}

/**
 * Everything of an image but its memory: the lead and the contexts,
 * each a diff against @p base's (all zeros when null; a delta's base
 * must carry as many contexts).
 */
inline SystemCheckpoint
getImageHeader(ByteCursor &in, const SystemCheckpoint *base)
{
    SystemCheckpoint ckpt;
    ckpt.gcc = getU64(in);
    ckpt.dmaConsumed = static_cast<std::size_t>(getU64(in));
    ckpt.rrNext = static_cast<ProcId>(getU64(in));
    const std::uint64_t n = getU64(in);
    checkContextCount(n);
    if (base && n != base->contexts.size())
        throw RecordingFormatError(
            "delta context count " + std::to_string(n)
            + " disagrees with its base's "
            + std::to_string(base->contexts.size()));
    ckpt.contexts.resize(static_cast<std::size_t>(n));
    ckpt.committedChunks.resize(static_cast<std::size_t>(n));
    for (std::size_t p = 0; p < n; ++p) {
        const std::uint64_t mask = getContextMask(in);
        ContextWords words = base ? contextWords(*base, p) : ContextWords{};
        for (std::size_t k = 0; k < kContextWords; ++k)
            if (mask >> k & 1)
                words[k] = getU64(in);
        std::uint8_t bytes[sizeof(ThreadContext)];
        for (std::size_t k = 0; k + 1 < kContextWords; ++k)
            storeU64(bytes + 8 * k, words[k]);
        std::memcpy(&ckpt.contexts[p], bytes, sizeof(ThreadContext));
        ckpt.committedChunks[p] = words[kContextWords - 1];
    }
    return ckpt;
}

/**
 * Decodes stored images into chain nodes, walking one chain in order
 * and verifying it as it goes: a keyframe's words must be
 * address-sorted and non-default, each delta's base GCC and context
 * count must be its base checkpoint's, and the memory it rebuilds
 * must hash to the hash it carries. The walk holds one memory table,
 * built from the chain when the first delta needs it and updated in
 * place, with the hash carried incrementally; the table never
 * outlives the decoder. Every failure is a RecordingFormatError.
 */
class ChainDecoder
{
  public:
    /** Decode the keyframe at @p data[0, @p size): a chain head. */
    SystemCheckpoint
    keyframe(const std::uint8_t *data, std::size_t size)
    {
        ByteCursor in(data, size);
        SystemCheckpoint ckpt = getImageHeader(in, nullptr);
        std::uint64_t count = 0;
        const ByteCursor body = getListBody(in, 8, count);
        requireEnd(in);
        std::vector<CheckpointImage::Word> words;
        words.reserve(static_cast<std::size_t>(count));
        std::uint64_t hash = MemoryState::kHashSeed;
        forEachListEntry(body, count, [&](Addr addr, ByteCursor &value) {
            const std::uint64_t v = getU64(value);
            if (v == MemoryState::initValue(addr))
                throw RecordingFormatError(
                    "keyframe word holds its default value");
            words.emplace_back(addr, v);
            hash += MemoryState::hashTerm(addr, v);
        });
        ckpt.memory = CheckpointImage::keyframe(std::move(words), hash);
        resume(ckpt);
        return ckpt;
    }

    /** Continue the walk from @p ckpt, an image decoded earlier. */
    void
    resume(const SystemCheckpoint &ckpt)
    {
        at_ = ckpt;
        started_ = true;
        table_valid_ = false;
    }

    /**
     * Decode the delta at @p data[0, @p size) against the walk's
     * current checkpoint (the one before it); the walk moves on to
     * the result.
     */
    SystemCheckpoint
    delta(const std::uint8_t *data, std::size_t size)
    {
        if (!started_)
            throw RecordingFormatError(
                "delta image with no chain head before it");
        ByteCursor in(data, size);
        SystemCheckpoint ckpt = getImageHeader(in, &at_);
        const std::uint64_t base = getU64(in);
        if (base != at_.gcc)
            throw RecordingFormatError(
                "delta base GCC " + std::to_string(base)
                + " disagrees with the previous checkpoint's GCC "
                + std::to_string(at_.gcc));
        std::uint64_t changed = 0;
        std::uint64_t erased = 0;
        const ByteCursor changed_body = getListBody(in, 8, changed);
        const ByteCursor erased_body = getListBody(in, 0, erased);
        const std::uint64_t hash = getU64(in);
        requireEnd(in);
        MemoryDelta lists;
        lists.changed.reserve(static_cast<std::size_t>(changed));
        forEachListEntry(changed_body, changed,
                         [&lists](Addr addr, ByteCursor &value) {
                             lists.changed.emplace_back(addr,
                                                        getU64(value));
                         });
        lists.erased.reserve(static_cast<std::size_t>(erased));
        forEachListEntry(erased_body, erased,
                         [&lists](Addr addr, ByteCursor &) {
                             lists.erased.push_back(addr);
                         });

        if (!table_valid_) {
            table_ = at_.memory.materialize();
            hash_ = at_.memory.hash();
            table_valid_ = true;
        }
        for (const auto &[addr, value] : lists.changed)
            store(addr, value);
        for (const Addr addr : lists.erased)
            store(addr, MemoryState::initValue(addr));
        if (hash_ != hash)
            throw RecordingFormatError(
                "delta memory hash mismatch: the image rebuilt at GCC "
                + std::to_string(ckpt.gcc) + " is not the one recorded");
        ckpt.memory = CheckpointImage::deltaOn(
            at_.memory, std::move(lists), hash, table_.population());
        at_ = ckpt;
        return ckpt;
    }

  private:
    SystemCheckpoint at_; ///< the walk's current checkpoint
    bool started_ = false;
    MemoryState table_; ///< at_'s memory, once a delta needed it
    bool table_valid_ = false;
    std::uint64_t hash_ = 0; ///< table_.hash(), carried

    static void
    requireEnd(const ByteCursor &in)
    {
        if (in.remaining() != 0)
            throw RecordingFormatError(
                "trailing bytes after a checkpoint image");
    }

    /** Store into the table, carrying its hash. */
    void
    store(Addr addr, std::uint64_t value)
    {
        const std::uint64_t old = table_.load(addr);
        const std::uint64_t init = MemoryState::initValue(addr);
        if (old != init)
            hash_ -= MemoryState::hashTerm(addr, old);
        if (value != init)
            hash_ += MemoryState::hashTerm(addr, value);
        table_.store(addr, value);
    }
};

} // namespace serialize_detail
} // namespace delorean

#endif // DELOREAN_CORE_SERIALIZE_DETAIL_HPP_
