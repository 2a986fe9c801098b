/**
 * @file
 * Shared binary-serialization primitives.
 *
 * The recording container (core/serialize.cpp) and the archive
 * containers (store/archive.cpp, store/ring.cpp) write the same
 * little-endian primitives — u64 fields, length-prefixed strings,
 * ThreadContext images, machine/mode headers and SystemCheckpoints.
 * They live here so the formats cannot drift apart: an archived
 * keyframe is byte-identical to the checkpoint embedded in a .dlrec
 * recording. Readers take either a std::istream or a ByteCursor over
 * bytes already in memory; full images have one decoder,
 * decodeCheckpoint(), over a byte range.
 *
 * The archive containers also store checkpoints as *deltas* against
 * the previous checkpoint (encodeDelta / applyDelta): the one
 * checkpoint-image codec behind the .dla footer and the ring's
 * segment files.
 */

#ifndef DELOREAN_CORE_SERIALIZE_DETAIL_HPP_
#define DELOREAN_CORE_SERIALIZE_DETAIL_HPP_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
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
 * Read cursor over an in-memory byte range: the span-side twin of the
 * std::istream the get* helpers also accept. Running past the end
 * throws the same "file truncated" RecordingFormatError a short
 * stream does, so both sources fail identically.
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

/** Read exactly @p n bytes into @p dst; short reads are truncation. */
inline void
getBytes(std::istream &in, std::uint8_t *dst, std::size_t n)
{
    in.read(reinterpret_cast<char *>(dst),
            static_cast<std::streamsize>(n));
    if (!in)
        throw RecordingFormatError("file truncated");
}

inline std::uint64_t
getU64(std::istream &in)
{
    std::uint8_t bytes[8];
    getBytes(in, bytes, 8);
    return loadU64(bytes);
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
getString(std::istream &in)
{
    const std::uint64_t n = getU64(in);
    if (n > (1u << 20))
        throw RecordingFormatError("string too long");
    std::string s(n, '\0');
    in.read(s.data(), static_cast<std::streamsize>(n));
    if (!in)
        throw RecordingFormatError("file truncated");
    return s;
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

inline ThreadContext
getContext(ByteCursor &in)
{
    ThreadContext ctx;
    std::memcpy(&ctx, in.take(sizeof(ThreadContext)),
                sizeof(ThreadContext));
    return ctx;
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

/** @p In is std::istream or ByteCursor. */
template <typename In>
ModeConfig
getMode(In &in)
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

/**
 * Machine header: 12 u64 fields since format v2. The 12th is the
 * arbiter count, always 1 (one arbiter serializes every commit);
 * getMachine rejects any other value.
 */
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
    putU64(out, 1); // arbiter count
}

/**
 * @p In is std::istream or ByteCursor.
 * @param legacy_v1 parse the 11-field v1 header (no arbiter count).
 */
template <typename In>
MachineConfig
getMachine(In &in, bool legacy_v1 = false)
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
    if (!legacy_v1) {
        const std::uint64_t arbiters = getU64(in);
        if (arbiters != 1)
            throw RecordingFormatError("arbiter count "
                                       + std::to_string(arbiters)
                                       + " is not 1");
    }
    return m;
}

/// Image lead: gcc, dmaConsumed, rrNext, context count.
inline constexpr std::size_t kCheckpointLeadBytes = 32;

/// Context-count ceiling every image decoder enforces.
inline constexpr std::uint64_t kMaxCheckpointContexts = 64;

/**
 * Header bytes of an image with @p contexts contexts: the lead, the
 * contexts, then one u64 (a keyframe's word count, a delta's base
 * GCC).
 */
constexpr std::size_t
checkpointHeaderBytes(std::uint64_t contexts)
{
    return kCheckpointLeadBytes
           + static_cast<std::size_t>(contexts)
                 * (sizeof(ThreadContext) + 8)
           + 8;
}

inline void
checkContextCount(std::uint64_t n)
{
    if (n > kMaxCheckpointContexts)
        throw RecordingFormatError("checkpoint context count "
                                   + std::to_string(n)
                                   + " outside [0, 64]");
}

/**
 * Write an image's header — gcc, dmaConsumed, rrNext, the context
 * count, per-proc {context, committedChunks} — then @p tail, the u64
 * that closes the header (a keyframe's word count, a delta's base
 * GCC), into a buffer sized for @p body more bytes. Returns the
 * write position.
 */
inline std::uint8_t *
startImage(std::string &out, const SystemCheckpoint &ckpt,
           std::uint64_t tail, std::size_t body)
{
    const std::size_t n = ckpt.contexts.size();
    out.resize(checkpointHeaderBytes(n) + body);
    std::uint8_t *p = reinterpret_cast<std::uint8_t *>(out.data());
    storeU64(p, ckpt.gcc);
    storeU64(p + 8, ckpt.dmaConsumed);
    storeU64(p + 16, ckpt.rrNext);
    storeU64(p + 24, n);
    p += kCheckpointLeadBytes;
    for (std::size_t i = 0; i < n; ++i) {
        contextBytes(ckpt.contexts[i], p);
        storeU64(p + sizeof(ThreadContext), ckpt.committedChunks[i]);
        p += sizeof(ThreadContext) + 8;
    }
    storeU64(p, tail);
    return p + 8;
}

/** Write sorted (addr, value) pairs at @p p; returns the end. */
inline std::uint8_t *
storeWords(std::uint8_t *p,
           const std::vector<std::pair<Addr, std::uint64_t>> &words)
{
    for (const auto &[addr, value] : words) {
        storeU64(p, addr);
        storeU64(p + 8, value);
        p += 16;
    }
    return p;
}

/**
 * Full checkpoint image (a *keyframe*): the header, the word count,
 * then the memory population as (addr, value) pairs in address order.
 * MemoryState iteration order depends on insertion history, so two
 * states holding the same words can stream them differently; sorting
 * makes the image a pure function of the checkpoint's content, which
 * the containers' byte-identity guarantees depend on. This is also
 * the checkpoint image a .dlrec recording embeds.
 */
inline std::string
encodeKeyframe(const SystemCheckpoint &ckpt)
{
    std::vector<std::pair<Addr, std::uint64_t>> words;
    words.reserve(ckpt.memory.population());
    ckpt.memory.forEachWord([&words](Addr addr, std::uint64_t value) {
        words.emplace_back(addr, value);
    });
    std::sort(words.begin(), words.end());
    std::string out;
    storeWords(startImage(out, ckpt, words.size(), words.size() * 16),
               words);
    return out;
}

inline void
putCheckpoint(std::ostream &out, const SystemCheckpoint &ckpt)
{
    const std::string image = encodeKeyframe(ckpt);
    out.write(image.data(), static_cast<std::streamsize>(image.size()));
}

/**
 * Delta image of @p ckpt against @p base, the checkpoint before it:
 * the header in full (contexts and counters are small), base.gcc,
 * the changed-word count and the words @p ckpt holds with a value
 * @p base lacks, as address-sorted (addr, value) pairs, the
 * erased-word count and the address-sorted words that went back to
 * their default value, then ckpt.memory.hash() — which applyDelta()
 * checks the rebuilt state against. Like a keyframe, a pure function
 * of the two checkpoints' content.
 */
inline std::string
encodeDelta(const SystemCheckpoint &base, const SystemCheckpoint &ckpt)
{
    std::vector<std::pair<Addr, std::uint64_t>> changed;
    std::vector<Addr> erased;
    ckpt.memory.forEachChange(
        base.memory,
        [&changed](Addr addr, std::uint64_t value) {
            changed.emplace_back(addr, value);
        },
        [&erased](Addr addr) { erased.push_back(addr); });
    std::sort(changed.begin(), changed.end());
    std::sort(erased.begin(), erased.end());
    std::string out;
    std::uint8_t *p =
        startImage(out, ckpt, base.gcc,
                   8 + changed.size() * 16 + 8 + erased.size() * 8 + 8);
    storeU64(p, changed.size());
    p = storeWords(p + 8, changed);
    storeU64(p, erased.size());
    p += 8;
    for (const Addr addr : erased) {
        storeU64(p, addr);
        p += 8;
    }
    storeU64(p, ckpt.memory.hash());
    return out;
}

/** How an archive stores one checkpoint image. */
enum class ImageKind : std::uint64_t
{
    kKeyframe = 1, ///< full image: heads a chain
    kDelta = 2,    ///< against the previous checkpoint
};

/** What a structural walk of one checkpoint image learns. */
struct CheckpointExtent
{
    std::uint64_t gcc = 0;
    std::uint64_t contexts = 0;
    std::uint64_t baseGcc = 0; ///< delta: GCC of the image it applies to
    std::size_t bytes = 0;     ///< whole image, header plus word lists
};

/**
 * Walk the @p kind image that starts at @p data without decoding it:
 * the header is read from the first @p available bytes, and the word
 * lists must fit the @p total bytes the image region holds (available
 * <= total; a caller may hold only the header in memory, in which
 * case a delta's lists, whose counts lie past its header, are not
 * walked). Throws exactly what decodeCheckpoint() or applyDelta()
 * would throw on the same bytes' structure, so a full walk that
 * passes guarantees their parse cannot fail.
 */
inline CheckpointExtent
scanImage(ImageKind kind, const std::uint8_t *data, std::size_t available,
          std::size_t total)
{
    ByteCursor in(data, std::min(available, total));
    CheckpointExtent ext;
    ext.gcc = getU64(in);
    in.take(16); // dmaConsumed, rrNext
    ext.contexts = getU64(in);
    checkContextCount(ext.contexts);
    in.take(static_cast<std::size_t>(ext.contexts)
            * (sizeof(ThreadContext) + 8));
    if (kind == ImageKind::kKeyframe) {
        const std::uint64_t words = getU64(in);
        if (words > (total - in.offset()) / 16)
            throw RecordingFormatError("file truncated");
        ext.bytes =
            in.offset() + static_cast<std::size_t>(words) * 16;
        return ext;
    }
    ext.baseGcc = getU64(in);
    if (available < total)
        return ext;
    const std::uint64_t changed = getU64(in);
    if (changed > in.remaining() / 16)
        throw RecordingFormatError("file truncated");
    in.take(static_cast<std::size_t>(changed) * 16);
    const std::uint64_t erased = getU64(in);
    if (erased > in.remaining() / 8)
        throw RecordingFormatError("file truncated");
    in.take(static_cast<std::size_t>(erased) * 8);
    getU64(in); // memory hash
    ext.bytes = in.offset();
    return ext;
}

/**
 * Decode the keyframe image at @p data[0, @p size) (the image may be
 * followed by other bytes). Context-count and truncation checks as
 * scanImage(); the memory table is sized for the word count up
 * front. The one checkpoint decoder behind .dlrec, .dla and ring
 * reads.
 */
inline SystemCheckpoint
decodeCheckpoint(const std::uint8_t *data, std::size_t size)
{
    ByteCursor in(data, size);
    SystemCheckpoint ckpt;
    ckpt.gcc = getU64(in);
    ckpt.dmaConsumed = static_cast<std::size_t>(getU64(in));
    ckpt.rrNext = static_cast<ProcId>(getU64(in));
    const std::uint64_t n = getU64(in);
    checkContextCount(n);
    ckpt.contexts.reserve(static_cast<std::size_t>(n));
    ckpt.committedChunks.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t p = 0; p < n; ++p) {
        ckpt.contexts.push_back(getContext(in));
        ckpt.committedChunks.push_back(getU64(in));
    }
    const std::uint64_t words = getU64(in);
    if (words > in.remaining() / 16)
        throw RecordingFormatError("file truncated");
    ckpt.memory.reserve(static_cast<std::size_t>(words));
    const std::uint8_t *w =
        in.take(static_cast<std::size_t>(words) * 16);
    for (std::uint64_t k = 0; k < words; ++k, w += 16)
        ckpt.memory.store(loadU64(w), loadU64(w + 8));
    return ckpt;
}

/**
 * Turn @p ckpt, the checkpoint before it, into the checkpoint the
 * delta image at @p data[0, @p size) encodes (see encodeDelta()).
 * Throws RecordingFormatError when the image is malformed, when its
 * base GCC is not ckpt.gcc or its context count not ckpt's, and when
 * the rebuilt memory's hash disagrees with the one the delta carries;
 * @p ckpt is then left partly updated.
 */
inline void
applyDelta(SystemCheckpoint &ckpt, const std::uint8_t *data,
           std::size_t size)
{
    ByteCursor in(data, size);
    const std::uint64_t gcc = getU64(in);
    const std::uint64_t dma = getU64(in);
    const std::uint64_t rr = getU64(in);
    const std::uint64_t n = getU64(in);
    checkContextCount(n);
    if (n != ckpt.contexts.size())
        throw RecordingFormatError(
            "delta context count " + std::to_string(n)
            + " disagrees with its base's "
            + std::to_string(ckpt.contexts.size()));
    for (std::uint64_t p = 0; p < n; ++p) {
        ckpt.contexts[p] = getContext(in);
        ckpt.committedChunks[p] = getU64(in);
    }
    const std::uint64_t base = getU64(in);
    if (base != ckpt.gcc)
        throw RecordingFormatError(
            "delta base GCC " + std::to_string(base)
            + " disagrees with the previous checkpoint's GCC "
            + std::to_string(ckpt.gcc));
    ckpt.gcc = gcc;
    ckpt.dmaConsumed = static_cast<std::size_t>(dma);
    ckpt.rrNext = static_cast<ProcId>(rr);
    const std::uint64_t changed = getU64(in);
    if (changed > in.remaining() / 16)
        throw RecordingFormatError("file truncated");
    const std::uint8_t *w =
        in.take(static_cast<std::size_t>(changed) * 16);
    const std::uint64_t erased = getU64(in);
    if (erased > in.remaining() / 8)
        throw RecordingFormatError("file truncated");
    const std::uint8_t *e =
        in.take(static_cast<std::size_t>(erased) * 8);
    const std::uint64_t hash = getU64(in);
    ckpt.memory.reserve(ckpt.memory.population()
                        + static_cast<std::size_t>(changed));
    for (std::uint64_t k = 0; k < changed; ++k, w += 16)
        ckpt.memory.store(loadU64(w), loadU64(w + 8));
    for (std::uint64_t k = 0; k < erased; ++k, e += 8)
        ckpt.memory.store(loadU64(e), MemoryState::initValue(loadU64(e)));
    if (ckpt.memory.hash() != hash)
        throw RecordingFormatError(
            "delta memory hash mismatch: the image rebuilt at GCC "
            + std::to_string(gcc) + " is not the one recorded");
}

/**
 * Stream adapter over decodeCheckpoint(): read the image's bytes,
 * field group by field group so a short stream fails at the same
 * point as before, then decode them. The word list is read in bounded
 * steps, so a corrupt word count runs into truncation instead of
 * forcing a huge allocation.
 */
inline SystemCheckpoint
getCheckpoint(std::istream &in)
{
    std::vector<std::uint8_t> image(kCheckpointLeadBytes);
    getBytes(in, image.data(), image.size());
    const std::uint64_t n = loadU64(image.data() + 24);
    checkContextCount(n);
    image.resize(checkpointHeaderBytes(n));
    getBytes(in, image.data() + kCheckpointLeadBytes,
             image.size() - kCheckpointLeadBytes);
    constexpr std::uint64_t kWordsPerRead = 1u << 16;
    for (std::uint64_t left = loadU64(image.data() + image.size() - 8);
         left > 0;) {
        const std::uint64_t step = std::min(left, kWordsPerRead);
        const std::size_t at = image.size();
        image.resize(at + static_cast<std::size_t>(step) * 16);
        getBytes(in, image.data() + at,
                 static_cast<std::size_t>(step) * 16);
        left -= step;
    }
    return decodeCheckpoint(image.data(), image.size());
}

} // namespace serialize_detail
} // namespace delorean

#endif // DELOREAN_CORE_SERIALIZE_DETAIL_HPP_
