/**
 * @file
 * Shared binary-serialization primitives.
 *
 * The recording container (core/serialize.cpp) and the archive
 * containers (store/archive.cpp, store/ring.cpp) write the same
 * little-endian primitives — u64 fields, length-prefixed strings,
 * ThreadContext images, machine/mode headers and SystemCheckpoints.
 * They live here so the formats cannot drift apart: an archived
 * keyframe is byte-identical to one embedded in a .dlrec recording.
 * Readers take either a std::istream or a ByteCursor over bytes
 * already in memory.
 *
 * Checkpoint images are stored as keyframe chains (core/checkpoint):
 * a keyframe (encodeKeyframe) heads a chain, and each later image is
 * a delta against the checkpoint before it (encodeDelta). The writers
 * serialize the chain nodes a recording holds; ChainDecoder turns
 * stored images back into nodes, verifying each chain. This is the
 * one checkpoint-image codec behind .dlrec files, the .dla footer and
 * the ring's segment files.
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

using ::delorean::checkpointHeaderBytes;
using ::delorean::kCheckpointLeadBytes;

/// Context-count ceiling every image decoder enforces.
inline constexpr std::uint64_t kMaxCheckpointContexts = 64;

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
 * Whether the containers and .dlrec store @p cur as a keyframe rather
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

/**
 * Full checkpoint image (a *keyframe*): the header, the word count,
 * then the memory population as (addr, value) pairs in address order,
 * which makes the image a pure function of the checkpoint's content.
 * A chain head's words are serialized as the image holds them; any
 * other image is materialized first.
 */
inline std::string
encodeKeyframe(const SystemCheckpoint &ckpt)
{
    const CheckpointImage &image = ckpt.memory;
    std::vector<CheckpointImage::Word> rebuilt;
    if (!image.headsChain())
        rebuilt = CheckpointImage::sortedWords(image.materialize());
    const auto &words = image.headsChain() ? image.words() : rebuilt;
    std::string out;
    storeWords(startImage(out, ckpt, words.size(), words.size() * 16),
               words);
    return out;
}

/**
 * Delta image of @p ckpt against @p base, the checkpoint before it:
 * the header in full (contexts and counters are small), base.gcc,
 * the changed-word count and the words @p ckpt holds with a value
 * @p base lacks, as address-sorted (addr, value) pairs, the
 * erased-word count and the address-sorted words that went back to
 * their default value, then ckpt.memory.hash(), which a decoder
 * checks the rebuilt state against. The delta the image keeps is
 * serialized as is; an image that keeps none against @p base is
 * diffed against it (the conversion path). Like a keyframe, a pure
 * function of the two checkpoints' content.
 */
inline std::string
encodeDelta(const SystemCheckpoint &base, const SystemCheckpoint &ckpt)
{
    MemoryDelta diffed;
    const MemoryDelta *delta = ckpt.memory.follows(base.memory)
                                   ? ckpt.memory.delta()
                                   : nullptr;
    if (!delta) {
        diffed = MemoryDelta::between(base.memory.materialize(),
                                      ckpt.memory.materialize());
        delta = &diffed;
    }
    std::string out;
    std::uint8_t *p = startImage(
        out, ckpt, base.gcc,
        deltaImageBytes(ckpt.contexts.size(), delta->changed.size(),
                        delta->erased.size())
            - checkpointHeaderBytes(ckpt.contexts.size()));
    storeU64(p, delta->changed.size());
    p = storeWords(p + 8, delta->changed);
    storeU64(p, delta->erased.size());
    p += 8;
    for (const Addr addr : delta->erased) {
        storeU64(p, addr);
        p += 8;
    }
    storeU64(p, ckpt.memory.hash());
    return out;
}

/** How a container or .dlrec stores one checkpoint image. */
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
 * walked). Throws exactly what ChainDecoder would throw on the same
 * bytes' structure.
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

/** Everything of an image but its memory: the header's fields. */
inline SystemCheckpoint
getImageHeader(ByteCursor &in)
{
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
        SystemCheckpoint ckpt = getImageHeader(in);
        const std::uint64_t count = getU64(in);
        if (count > in.remaining() / 16)
            throw RecordingFormatError("file truncated");
        std::vector<CheckpointImage::Word> words(
            static_cast<std::size_t>(count));
        const std::uint8_t *w =
            in.take(static_cast<std::size_t>(count) * 16);
        std::uint64_t hash = MemoryState::kHashSeed;
        for (std::size_t k = 0; k < words.size(); ++k, w += 16) {
            const Addr addr = loadU64(w);
            const std::uint64_t value = loadU64(w + 8);
            if (k > 0 && addr <= words[k - 1].first)
                throw RecordingFormatError(
                    "keyframe words are not address-sorted");
            if (value == MemoryState::initValue(addr))
                throw RecordingFormatError(
                    "keyframe word holds its default value");
            words[k] = {addr, value};
            hash += MemoryState::hashTerm(addr, value);
        }
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
     * the result. With @p heads_chain, the result is the chain head
     * the checkpoint was recorded as (its keyframe is rebuilt from
     * the walk's table), for a delta whose stored keyframe was lost.
     */
    SystemCheckpoint
    delta(const std::uint8_t *data, std::size_t size,
          bool heads_chain = false)
    {
        if (!started_)
            throw RecordingFormatError(
                "delta image with no chain head before it");
        ByteCursor in(data, size);
        SystemCheckpoint ckpt = getImageHeader(in);
        if (ckpt.contexts.size() != at_.contexts.size())
            throw RecordingFormatError(
                "delta context count "
                + std::to_string(ckpt.contexts.size())
                + " disagrees with its base's "
                + std::to_string(at_.contexts.size()));
        const std::uint64_t base = getU64(in);
        if (base != at_.gcc)
            throw RecordingFormatError(
                "delta base GCC " + std::to_string(base)
                + " disagrees with the previous checkpoint's GCC "
                + std::to_string(at_.gcc));
        MemoryDelta lists;
        const std::uint64_t changed = getU64(in);
        if (changed > in.remaining() / 16)
            throw RecordingFormatError("file truncated");
        const std::uint8_t *w =
            in.take(static_cast<std::size_t>(changed) * 16);
        lists.changed.reserve(static_cast<std::size_t>(changed));
        for (std::uint64_t k = 0; k < changed; ++k, w += 16) {
            const Addr addr = loadU64(w);
            if (k > 0 && addr <= lists.changed.back().first)
                throw RecordingFormatError(
                    "delta words are not address-sorted");
            lists.changed.emplace_back(addr, loadU64(w + 8));
        }
        const std::uint64_t erased = getU64(in);
        if (erased > in.remaining() / 8)
            throw RecordingFormatError("file truncated");
        const std::uint8_t *e =
            in.take(static_cast<std::size_t>(erased) * 8);
        lists.erased.reserve(static_cast<std::size_t>(erased));
        for (std::uint64_t k = 0; k < erased; ++k, e += 8) {
            const Addr addr = loadU64(e);
            if (k > 0 && addr <= lists.erased.back())
                throw RecordingFormatError(
                    "delta erasures are not address-sorted");
            lists.erased.push_back(addr);
        }
        const std::uint64_t hash = getU64(in);

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
        ckpt.memory =
            heads_chain
                ? CheckpointImage::keyframe(
                      CheckpointImage::sortedWords(table_), hash,
                      &at_.memory, std::move(lists))
                : CheckpointImage::deltaOn(at_.memory, std::move(lists),
                                           hash, table_.population());
        at_ = ckpt;
        return ckpt;
    }

  private:
    SystemCheckpoint at_; ///< the walk's current checkpoint
    bool started_ = false;
    MemoryState table_; ///< at_'s memory, once a delta needed it
    bool table_valid_ = false;
    std::uint64_t hash_ = 0; ///< table_.hash(), carried

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

/**
 * Decode a full image as format v1/v2 recordings stored it: the
 * checkpoint's header fields, and its memory as a table (for the
 * conversion into a chain; no sortedness is required of old files).
 */
inline std::pair<SystemCheckpoint, MemoryState>
decodeFullImage(const std::uint8_t *data, std::size_t size)
{
    ByteCursor in(data, size);
    std::pair<SystemCheckpoint, MemoryState> out{getImageHeader(in), {}};
    const std::uint64_t words = getU64(in);
    if (words > in.remaining() / 16)
        throw RecordingFormatError("file truncated");
    out.second.reserve(static_cast<std::size_t>(words));
    const std::uint8_t *w =
        in.take(static_cast<std::size_t>(words) * 16);
    for (std::uint64_t k = 0; k < words; ++k, w += 16)
        out.second.store(loadU64(w), loadU64(w + 8));
    return out;
}

/**
 * Read one @p kind image's bytes from a stream, field group by field
 * group so a short stream fails as truncation. Word lists are read in
 * bounded steps, so a corrupt count runs into truncation instead of
 * forcing a huge allocation.
 */
inline std::vector<std::uint8_t>
getImage(std::istream &in, ImageKind kind)
{
    std::vector<std::uint8_t> image(kCheckpointLeadBytes);
    getBytes(in, image.data(), image.size());
    const std::uint64_t n = loadU64(image.data() + 24);
    checkContextCount(n);
    image.resize(checkpointHeaderBytes(n));
    getBytes(in, image.data() + kCheckpointLeadBytes,
             image.size() - kCheckpointLeadBytes);
    const auto append = [&in, &image](std::size_t bytes) {
        const std::size_t at = image.size();
        image.resize(at + bytes);
        getBytes(in, image.data() + at, bytes);
        return loadU64(image.data() + image.size() - 8);
    };
    const auto records = [&append](std::uint64_t count, std::size_t width) {
        constexpr std::uint64_t kPerRead = 1u << 16;
        for (std::uint64_t left = count; left > 0;) {
            const std::uint64_t step = std::min(left, kPerRead);
            append(static_cast<std::size_t>(step) * width);
            left -= step;
        }
    };
    const std::uint64_t tail = loadU64(image.data() + image.size() - 8);
    if (kind == ImageKind::kKeyframe) {
        records(tail, 16);
    } else {
        records(append(8), 16); // changed words
        records(append(8), 8);  // erased words
        append(8);              // memory hash
    }
    return image;
}

} // namespace serialize_detail
} // namespace delorean

#endif // DELOREAN_CORE_SERIALIZE_DETAIL_HPP_
