#include "validate/fault_injector.hpp"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "common/errors.hpp"
#include "common/rng.hpp"
#include "core/serialize.hpp"
#include "core/serialize_detail.hpp"
#include "store/archive.hpp"
#include "store/archive_detail.hpp"
#include "store/crc32.hpp"

namespace delorean
{

const char *
mutationKindName(MutationKind kind)
{
    switch (kind) {
      case MutationKind::kRecordBitFlip:
        return "record-bit-flip";
      case MutationKind::kTruncate:
        return "truncate";
      case MutationKind::kIndexCorrupt:
        return "index-corrupt";
      case MutationKind::kLogForgery:
        return "log-forgery";
      case MutationKind::kKeyframeWordCount:
        return "keyframe-word-count";
      case MutationKind::kDeltaBaseGcc:
        return "delta-base-gcc";
      case MutationKind::kDeltaMemoryHash:
        return "delta-memory-hash";
      case MutationKind::kOrphanDelta:
        return "orphan-delta";
      case MutationKind::kNonMinimalVarint:
        return "non-minimal-varint";
    }
    return "unknown";
}

const char *
mutantOutcomeName(MutantOutcome outcome)
{
    switch (outcome) {
      case MutantOutcome::kRejectedAtLoad:
        return "rejected-at-load";
      case MutantOutcome::kReplayedIdentically:
        return "replayed-identically";
      case MutantOutcome::kDivergenceDetected:
        return "divergence-detected";
      case MutantOutcome::kReplayErrorReported:
        return "replay-error-reported";
      case MutantOutcome::kUnexpected:
        return "UNEXPECTED";
    }
    return "unknown";
}

namespace
{

using archive_detail::CutSegment;
using serialize_detail::ImageKind;

/** Little-endian u64 at @p offset of a byte vector. */
std::uint64_t
u64At(const std::vector<std::uint8_t> &bytes, std::size_t offset)
{
    return serialize_detail::loadU64(bytes.data() + offset);
}

void
putU64At(std::vector<std::uint8_t> &bytes, std::size_t offset,
         std::uint64_t v)
{
    serialize_detail::storeU64(bytes.data() + offset, v);
}

/** Flip 1-8 random bits of @p bytes[begin, end) (a byte vector or string). */
template <typename Bytes>
void
flipBits(Bytes &bytes, std::size_t begin, std::size_t end, Xoshiro256ss &rng)
{
    if (end <= begin)
        return;
    const unsigned flips = 1 + static_cast<unsigned>(rng.below(8));
    const std::uint64_t span = (end - begin) * 8;
    for (unsigned i = 0; i < flips; ++i) {
        const std::uint64_t bit = rng.below(span);
        auto &byte = bytes[begin + bit / 8];
        byte = static_cast<typename Bytes::value_type>(
            static_cast<std::uint8_t>(byte) ^ (1u << (bit % 8)));
    }
}

/// A file's trailer: footer offset, footer bytes, footer CRC-32, end
/// magic.
constexpr std::size_t kTrailerBytes = 32;

/** Where the parts of a file that opens lie: what the mutators aim at. */
struct FileLayout
{
    std::vector<ArchiveSegmentInfo> records;
    std::size_t footerAt = 0;
    std::size_t footerBytes = 0;
};

std::optional<FileLayout>
layoutOf(const std::vector<std::uint8_t> &bytes)
{
    FileLayout layout;
    try {
        layout.records = ArchiveReader::fromBytes(bytes).segments();
    } catch (const RecordingFormatError &) {
        return std::nullopt;
    }
    const std::size_t trailer = bytes.size() - kTrailerBytes;
    layout.footerAt = static_cast<std::size_t>(u64At(bytes, trailer));
    layout.footerBytes = static_cast<std::size_t>(u64At(bytes, trailer + 8));
    return layout;
}

/** The footer of @p bytes (stored raw). */
std::vector<std::uint8_t>
footerOf(const std::vector<std::uint8_t> &bytes, const FileLayout &layout)
{
    const auto at = bytes.begin() + static_cast<long>(layout.footerAt);
    return std::vector<std::uint8_t>(
        at, at + static_cast<long>(layout.footerBytes));
}

/**
 * Offset in a footer of its record index (the clean flag; the record
 * count follows, then (file offset, bytes) per record): past the run
 * metadata — the machine (11 u64s) and mode (7 u64s) headers, the
 * length-prefixed app name, the seed and the iterations. The footer's
 * size when the name length does not fit it.
 */
std::size_t
footerIndexAt(const std::vector<std::uint8_t> &footer)
{
    constexpr std::size_t kNameAt = 18 * 8;
    if (footer.size() < kNameAt + 8)
        return footer.size();
    const std::uint64_t name = u64At(footer, kNameAt);
    return name < footer.size() ? kNameAt + 8 + name + 16 : footer.size();
}

/**
 * Append @p footer at the end of @p out, then a trailer that locates
 * it and carries its CRC and @p end_magic, so the checksum layer
 * passes whatever the footer says.
 */
void
appendFooter(std::vector<std::uint8_t> &out,
             const std::vector<std::uint8_t> &footer, std::uint64_t end_magic)
{
    const std::size_t at = out.size();
    out.insert(out.end(), footer.begin(), footer.end());
    const std::size_t trailer = out.size();
    out.resize(trailer + kTrailerBytes);
    putU64At(out, trailer, at);
    putU64At(out, trailer + 8, footer.size());
    putU64At(out, trailer + 16, crc32(footer.data(), footer.size()));
    putU64At(out, trailer + 24, end_magic);
}

/**
 * Record @p info of @p bytes as the writer cut it: the header fields,
 * the image, the stored payload and the decoded one, so the writer's
 * own recordHeader() can seal an edited copy.
 */
CutSegment
cutOf(const std::vector<std::uint8_t> &bytes, const ArchiveSegmentInfo &info)
{
    CutSegment seg;
    seg.index = static_cast<std::size_t>(info.index);
    seg.startGcc = info.startGcc;
    seg.endGcc = info.endGcc;
    seg.imageKind = static_cast<std::uint64_t>(
        !info.hasCheckpoint ? ImageKind{0}
        : info.keyframe     ? ImageKind::kKeyframe
                            : ImageKind::kDelta);
    const auto *image = bytes.data() + info.imageOffset();
    seg.image.assign(reinterpret_cast<const char *>(image),
                     static_cast<std::size_t>(info.imageBytes));
    const auto *comp = bytes.data() + info.payloadOffset();
    seg.comp.assign(comp, comp + info.compBytes);
    const std::vector<std::uint8_t> raw =
        archive_detail::decodePayload(comp, info, seg.index);
    seg.raw.assign(raw.begin(), raw.end());
    return seg;
}

/**
 * @p bytes with record @p i replaced by @p seg, sealed: the records
 * after it move, and the footer's index and the trailer follow them.
 */
std::vector<std::uint8_t>
withRecord(const std::vector<std::uint8_t> &bytes, const FileLayout &layout,
           std::size_t i, CutSegment &seg)
{
    seg.header = archive_detail::recordHeader(seg);
    std::ostringstream buf(std::ios::binary);
    archive_detail::writeRecord(buf, seg);
    const std::string record = std::move(buf).str();
    const ArchiveSegmentInfo &old = layout.records[i];
    const auto begin = static_cast<std::size_t>(old.fileOffset);
    const auto end = begin + static_cast<std::size_t>(old.recordBytes);

    std::vector<std::uint8_t> out(bytes.begin(),
                                  bytes.begin() + static_cast<long>(begin));
    out.insert(out.end(), record.begin(), record.end());
    out.insert(out.end(), bytes.begin() + static_cast<long>(end),
               bytes.begin() + static_cast<long>(layout.footerAt));
    std::vector<std::uint8_t> footer = footerOf(bytes, layout);
    const std::size_t entries = footerIndexAt(footer) + 16;
    putU64At(footer, entries + 16 * i + 8, record.size());
    for (std::size_t k = i + 1; k < layout.records.size(); ++k)
        putU64At(footer, entries + 16 * k,
                 u64At(footer, entries + 16 * k) + record.size()
                     - old.recordBytes);
    appendFooter(out, footer, u64At(bytes, bytes.size() - 8));
    return out;
}

/** Flip 1-8 bits of @p raw, duplicate one of its 8-byte words, or swap two. */
void
forgeWords(std::string &raw, Xoshiro256ss &rng)
{
    const std::uint64_t words = raw.size() / 8;
    switch (rng.below(3)) {
      case 0:
        break;
      case 1: {
        if (words == 0)
            break;
        const std::uint64_t w = rng.below(words);
        const std::string word = raw.substr(w * 8, 8);
        raw.insert(w * 8 + 8, word);
        return;
      }
      default: {
        if (words < 2)
            break;
        const std::uint64_t a = rng.below(words);
        const std::uint64_t b = (a + 1 + rng.below(words - 1)) % words;
        for (unsigned k = 0; k < 8; ++k)
            std::swap(raw[a * 8 + k], raw[b * 8 + k]);
        return;
      }
    }
    flipBits(raw, 0, raw.size(), rng);
}

/** Forge the words of one random record's payload, then reseal it. */
std::vector<std::uint8_t>
forgeLog(const std::vector<std::uint8_t> &bytes, const FileLayout &layout,
         Xoshiro256ss &rng)
{
    const std::size_t i =
        static_cast<std::size_t>(rng.below(layout.records.size()));
    CutSegment seg = cutOf(bytes, layout.records[i]);
    forgeWords(seg.raw, rng);
    seg.comp = archive_detail::compressPayload(seg.raw);
    return withRecord(bytes, layout, i, seg);
}

/**
 * Scribble on the footer, then rebuild a consistent trailer (size and
 * CRC valid), so the checksum passes and the reader's semantic
 * cross-checks are what must catch the lie.
 */
std::vector<std::uint8_t>
corruptIndex(const std::vector<std::uint8_t> &bytes, const FileLayout &layout,
             Xoshiro256ss &rng)
{
    std::vector<std::uint8_t> footer = footerOf(bytes, layout);
    // Half the mutants aim at the record index's structural fields
    // (clean flag, record count, and the first two records' file
    // offsets and sizes); the rest land anywhere, mostly in the
    // metadata and the final stats.
    constexpr std::size_t kIndexFieldBytes = 48;
    const std::size_t index = footerIndexAt(footer);
    const std::size_t pos =
        (index + kIndexFieldBytes <= footer.size() && rng.below(2) == 0)
            ? index + static_cast<std::size_t>(rng.below(kIndexFieldBytes))
            : static_cast<std::size_t>(rng.below(footer.size()));
    footer[pos] ^= static_cast<std::uint8_t>(1 + rng.below(255));
    std::vector<std::uint8_t> out(
        bytes.begin(), bytes.begin() + static_cast<long>(layout.footerAt));
    appendFooter(out, footer, u64At(bytes, bytes.size() - 8));
    return out;
}

/** One stored checkpoint image: its record and its structure. */
struct StoredImage
{
    std::size_t record = 0;
    ImageKind kind = ImageKind::kKeyframe;
    serialize_detail::CheckpointExtent extent;
};

std::vector<StoredImage>
imagesOf(const std::vector<std::uint8_t> &bytes, const FileLayout &layout)
{
    std::vector<StoredImage> images;
    for (std::size_t i = 0; i < layout.records.size(); ++i) {
        const ArchiveSegmentInfo &info = layout.records[i];
        if (!info.hasCheckpoint)
            continue;
        StoredImage image;
        image.record = i;
        image.kind = info.keyframe ? ImageKind::kKeyframe : ImageKind::kDelta;
        image.extent = serialize_detail::scanImage(
            image.kind, bytes.data() + info.imageOffset(),
            static_cast<std::size_t>(info.imageBytes));
        images.push_back(image);
    }
    return images;
}

/** A random image of @p kind among @p images, or nullptr. */
const StoredImage *
pickImage(const std::vector<StoredImage> &images, ImageKind kind,
          Xoshiro256ss &rng)
{
    std::vector<const StoredImage *> fit;
    for (const StoredImage &image : images)
        if (image.kind == kind)
            fit.push_back(&image);
    return fit.empty() ? nullptr : fit[rng.below(fit.size())];
}

/** One word list of a stored image: where it starts, its value width. */
struct StoredList
{
    std::size_t at = 0; ///< offset of its word count in the image
    std::size_t valueBytes = 0;
};

/** The word lists of @p image (bytes @p data) holding at least one word. */
std::vector<StoredList>
nonEmptyLists(const std::vector<std::uint8_t> &data, const StoredImage &image)
{
    using serialize_detail::kListHeaderBytes;
    std::vector<StoredList> lists;
    std::size_t at = image.extent.fieldsAt;
    if (image.kind == ImageKind::kKeyframe) {
        lists.push_back({at, 8});
    } else {
        at += 8; // base GCC
        lists.push_back({at, 8});
        lists.push_back({at + kListHeaderBytes
                             + static_cast<std::size_t>(u64At(data, at + 8)),
                         0});
    }
    std::erase_if(lists, [&data](const StoredList &list) {
        return u64At(data, list.at) == 0;
    });
    return lists;
}

/**
 * Pad the varint of one random address gap of @p image (bytes
 * @p data) with a zero byte — the same gap, non-minimally encoded — and
 * grow its list's byte length to match. Only the encoding changes, so
 * the reader must reject it.
 */
void
padVarint(std::vector<std::uint8_t> &data, const StoredList &list,
          Xoshiro256ss &rng)
{
    const std::uint64_t target = rng.below(u64At(data, list.at));
    std::size_t pos = list.at + serialize_detail::kListHeaderBytes;
    for (std::uint64_t k = 0;; ++k) {
        while (data[pos] & 0x80)
            ++pos;
        if (k == target)
            break;
        pos += 1 + list.valueBytes;
    }
    data[pos] |= 0x80;
    data.insert(data.begin() + static_cast<long>(pos) + 1, 0);
    putU64At(data, list.at + 8, u64At(data, list.at + 8) + 1);
}

/**
 * Apply one chain forgery to @p bytes, resealing the record it edits;
 * unchanged when no image fits the kind.
 */
std::vector<std::uint8_t>
forgeChain(const std::vector<std::uint8_t> &bytes, const FileLayout &layout,
           MutationKind kind, Xoshiro256ss &rng)
{
    const std::vector<StoredImage> images = imagesOf(bytes, layout);
    const StoredImage *image = nullptr;
    StoredList list;
    if (kind == MutationKind::kNonMinimalVarint) {
        std::vector<std::pair<const StoredImage *, StoredList>> fit;
        for (const StoredImage &candidate : images) {
            const ArchiveSegmentInfo &info = layout.records[candidate.record];
            const std::vector<std::uint8_t> data(
                bytes.begin() + static_cast<long>(info.imageOffset()),
                bytes.begin() + static_cast<long>(info.payloadOffset()));
            for (const StoredList &l : nonEmptyLists(data, candidate))
                fit.emplace_back(&candidate, l);
        }
        if (fit.empty())
            return bytes;
        std::tie(image, list) = fit[rng.below(fit.size())];
    } else if (kind == MutationKind::kOrphanDelta) {
        if (images.empty() || images.front().record != 0)
            return bytes;
        image = &images.front();
    } else {
        const bool keyframe_kind = kind == MutationKind::kKeyframeWordCount;
        image = pickImage(
            images, keyframe_kind ? ImageKind::kKeyframe : ImageKind::kDelta,
            rng);
        if (!image)
            return bytes;
    }

    CutSegment seg = cutOf(bytes, layout.records[image->record]);
    std::vector<std::uint8_t> data(seg.image.begin(), seg.image.end());
    // The first field past the contexts: a keyframe's word count, a
    // delta's base GCC.
    const std::size_t tail = image->extent.fieldsAt;
    switch (kind) {
      case MutationKind::kKeyframeWordCount: {
        const std::uint64_t words = u64At(data, tail);
        putU64At(data, tail,
                 words > 0 && rng.below(2)
                     ? words - 1 - rng.below(words)
                     : words + 1 + rng.below(words + 1));
        break;
      }
      case MutationKind::kDeltaBaseGcc:
        putU64At(data, tail, u64At(data, tail) + 1 + rng.below(64));
        break;
      case MutationKind::kDeltaMemoryHash: {
        const std::size_t hash_at = image->extent.bytes - 8;
        putU64At(data, hash_at,
                 u64At(data, hash_at) ^ (1ull << rng.below(64)));
        break;
      }
      case MutationKind::kOrphanDelta:
        seg.imageKind = static_cast<std::uint64_t>(ImageKind::kDelta);
        break;
      case MutationKind::kNonMinimalVarint:
        padVarint(data, list, rng);
        break;
      default:
        break;
    }
    seg.image.assign(data.begin(), data.end());
    return withRecord(bytes, layout, image->record, seg);
}

} // namespace

std::vector<std::uint8_t>
mutateRecording(const std::vector<std::uint8_t> &bytes, MutationKind kind,
                std::uint64_t seed)
{
    Xoshiro256ss rng(seed ^ 0xFA017EC7ull);
    std::vector<std::uint8_t> out = bytes;
    if (out.empty())
        return out;
    if (kind == MutationKind::kTruncate) {
        out.resize(static_cast<std::size_t>(rng.below(out.size())));
        return out;
    }
    const std::optional<FileLayout> layout = layoutOf(bytes);
    const auto flipAnywhere = [&out, &rng] {
        // Too broken to aim at: degrade to a bit flip anywhere.
        flipBits(out, 0, out.size(), rng);
        return out;
    };
    if (!layout)
        return flipAnywhere();

    switch (kind) {
      case MutationKind::kRecordBitFlip: {
        // Aim at one whole record (header, image, payload), never at
        // the footer or the trailer.
        const ArchiveSegmentInfo &info =
            layout->records[rng.below(layout->records.size())];
        const auto begin = static_cast<std::size_t>(info.fileOffset);
        flipBits(out, begin, begin + static_cast<std::size_t>(info.recordBytes),
                 rng);
        return out;
      }
      case MutationKind::kIndexCorrupt:
        return corruptIndex(bytes, *layout, rng);
      default:
        break;
    }
    try {
        return kind == MutationKind::kLogForgery
                   ? forgeLog(bytes, *layout, rng)
                   : forgeChain(bytes, *layout, kind, rng);
    } catch (const RecordingFormatError &) {
        // A payload or image that opens but does not decode.
        return flipAnywhere();
    }
}

namespace
{

/** Count one mutant's outcome; an unexpected one keeps its line. */
void
countOutcome(FaultSweepSummary &summary, MutantOutcome outcome,
             const char *kind, std::uint64_t seed,
             const std::string &message)
{
    ++summary.total;
    switch (outcome) {
      case MutantOutcome::kRejectedAtLoad:
        ++summary.rejectedAtLoad;
        break;
      case MutantOutcome::kReplayedIdentically:
        ++summary.replayedIdentically;
        break;
      case MutantOutcome::kDivergenceDetected:
        ++summary.divergenceDetected;
        break;
      case MutantOutcome::kReplayErrorReported:
        ++summary.replayErrorReported;
        break;
      case MutantOutcome::kUnexpected:
        ++summary.unexpected;
        summary.unexpectedResults.push_back(
            std::string(kind) + " seed " + std::to_string(seed) + ": "
            + message);
        break;
    }
}

} // namespace

void
FaultSweepSummary::add(const MutantResult &r)
{
    countOutcome(*this, r.outcome, mutationKindName(r.kind), r.seed,
                 r.message);
}

void
FaultSweepSummary::add(const RingMutantResult &r)
{
    target = SweepTarget::kRing;
    if (r.salvaged)
        ++salvaged;
    countOutcome(*this, r.outcome, ringMutationKindName(r.kind), r.seed,
                 r.message);
}

std::string
FaultSweepSummary::describe() const
{
    static const char *const kLabels[] = {"fault sweep", "ring fault sweep"};
    std::ostringstream out;
    out << kLabels[static_cast<unsigned>(target)] << ": " << total
        << " mutants | rejected " << rejectedAtLoad << " | identical "
        << replayedIdentically << " | divergence " << divergenceDetected
        << " | replay-error " << replayErrorReported;
    if (target == SweepTarget::kRing)
        out << " | salvaged " << salvaged;
    out << " | UNEXPECTED " << unexpected;
    for (const std::string &line : unexpectedResults)
        out << "\n  " << line;
    return out.str();
}

namespace
{

/** Severity order for combining the readAll and interval legs. */
int
outcomeSeverity(MutantOutcome outcome)
{
    switch (outcome) {
      case MutantOutcome::kReplayedIdentically:
        return 0;
      case MutantOutcome::kRejectedAtLoad:
        return 1;
      case MutantOutcome::kReplayErrorReported:
        return 2;
      case MutantOutcome::kDivergenceDetected:
        return 3;
      case MutantOutcome::kUnexpected:
        return 4;
    }
    return 4;
}

/**
 * Classify one recording pulled out of a mutant: checked replay with
 * every failure fenced.
 */
MutantOutcome
classifyRecording(const Recording &rec, const ReplayCheckOptions &opts,
                  std::string &message)
{
    ReplayCheckResult check;
    try {
        check = checkedReplay(rec, opts);
    } catch (const std::exception &e) {
        message = std::string("checkedReplay threw: ") + e.what();
        return MutantOutcome::kUnexpected;
    }
    if (check.ok)
        return MutantOutcome::kReplayedIdentically;
    message = check.report.message;
    switch (check.report.kind) {
      case DivergenceKind::kFormatError:
      case DivergenceKind::kWorkloadError:
        return MutantOutcome::kRejectedAtLoad;
      case DivergenceKind::kReplayError:
        return MutantOutcome::kReplayErrorReported;
      case DivergenceKind::kCommitDivergence:
      case DivergenceKind::kMissingCommits:
      case DivergenceKind::kExtraCommits:
      case DivergenceKind::kStateDivergence:
        return MutantOutcome::kDivergenceDetected;
      case DivergenceKind::kNone:
        message = "checkedReplay returned !ok with an empty report";
        return MutantOutcome::kUnexpected;
    }
    return MutantOutcome::kUnexpected;
}

#if defined(__unix__) || defined(__APPLE__)
#define DELOREAN_FAULT_TMPFILE 1
#else
#define DELOREAN_FAULT_TMPFILE 0
#endif

#if DELOREAN_FAULT_TMPFILE
/**
 * Scratch file for the mmap sweep leg. Unlinked on destruction; on
 * POSIX an mmap of the file stays valid after the unlink, so the
 * reader may outlive this object.
 */
struct TempArchiveFile
{
    std::string path;
    bool ok = false;

    explicit TempArchiveFile(const std::vector<std::uint8_t> &bytes)
    {
        char name[] = "/tmp/delorean-mutant-XXXXXX";
        const int fd = ::mkstemp(name);
        if (fd < 0)
            return;
        path = name;
        std::size_t off = 0;
        while (off < bytes.size()) {
            const ssize_t w = ::write(fd, bytes.data() + off,
                                      bytes.size() - off);
            if (w <= 0) {
                ::close(fd);
                return;
            }
            off += static_cast<std::size_t>(w);
        }
        ::close(fd);
        ok = true;
    }

    ~TempArchiveFile()
    {
        if (!path.empty())
            ::unlink(path.c_str());
    }
};
#endif

/** Open the mutant through the requested reader entry point. */
ArchiveReader
loadMutant(const std::vector<std::uint8_t> &mutated,
           ArchiveLoadPath load_path)
{
#if DELOREAN_FAULT_TMPFILE
    if (load_path == ArchiveLoadPath::kMmapFile) {
        const TempArchiveFile tmp(mutated);
        if (tmp.ok)
            return ArchiveReader::fromFile(tmp.path, {});
    }
#else
    (void)load_path;
#endif
    return ArchiveReader::fromBytes(mutated);
}

} // namespace

MutantResult
runMutant(const std::vector<std::uint8_t> &file, MutationKind kind,
          std::uint64_t seed, const ReplayCheckOptions &opts,
          ArchiveLoadPath load_path)
{
    MutantResult result;
    result.kind = kind;
    result.seed = seed;

    const std::vector<std::uint8_t> mutated =
        mutateRecording(file, kind, seed);

    // Leg 1: open + readAll + checked replay.
    Recording full;
    std::size_t checkpoints = 0;
    std::optional<ArchiveReader> reader;
    try {
        reader = loadMutant(mutated, load_path);
        checkpoints = reader->checkpointCount();
        full = reader->readAll();
    } catch (const ArchiveError &e) {
        result.outcome = MutantOutcome::kRejectedAtLoad;
        result.typedArchiveError = true;
        result.segment = e.segment();
        result.message = e.what();
        return result;
    } catch (const RecordingFormatError &e) {
        // validateRecording() inside readAll — still a typed, fenced
        // rejection, just without section attribution.
        result.outcome = MutantOutcome::kRejectedAtLoad;
        result.message = e.what();
        return result;
    } catch (const std::exception &e) {
        // The reader's contract is RecordingFormatError only; any
        // other type is a hardening gap the sweep must surface.
        result.outcome = MutantOutcome::kUnexpected;
        result.message =
            std::string("reader threw non-format error: ") + e.what();
        return result;
    }

    result.outcome = classifyRecording(full, opts, result.message);
    if (result.outcome == MutantOutcome::kUnexpected)
        return result;

    // Leg 2: interval replay through the (possibly lying) index. Only
    // reachable when the mutant still opens; a corrupt index must
    // surface as a typed rejection or a localized divergence here,
    // never a crash.
    if (checkpoints > 0) {
        const std::size_t from =
            static_cast<std::size_t>(seed % checkpoints);
        MutantOutcome interval = MutantOutcome::kReplayedIdentically;
        std::string interval_message;
        try {
            const Recording view = reader->readInterval(from);
            ReplayCheckOptions iopts = opts;
            iopts.startCheckpoint = 0;
            // The race detector needs the complete commit history;
            // detector sweeps still fence this leg, just detector-off.
            iopts.detectRaces = false;
            interval =
                classifyRecording(view, iopts, interval_message);
        } catch (const ArchiveError &e) {
            interval = MutantOutcome::kRejectedAtLoad;
            result.typedArchiveError = true;
            result.segment = e.segment();
            interval_message = e.what();
        } catch (const RecordingFormatError &e) {
            interval = MutantOutcome::kRejectedAtLoad;
            interval_message = e.what();
        } catch (const std::exception &e) {
            interval = MutantOutcome::kUnexpected;
            interval_message =
                std::string("readInterval threw non-format error: ")
                + e.what();
        }
        if (outcomeSeverity(interval) > outcomeSeverity(result.outcome)
            || (interval != MutantOutcome::kReplayedIdentically
                && result.message.empty())) {
            result.outcome = interval;
            result.message = interval_message;
        }
    }
    return result;
}

FaultSweepSummary
runFaultSweep(const Recording &rec, unsigned mutants_per_kind,
              std::uint64_t seed0, const ReplayCheckOptions &opts,
              ArchiveLoadPath load_path)
{
    std::ostringstream buf(std::ios::binary);
    saveRecording(rec, buf);
    const std::string s = std::move(buf).str();
    const std::vector<std::uint8_t> file(s.begin(), s.end());

    FaultSweepSummary summary;
    for (unsigned k = 0; k < kMutationKinds; ++k) {
        for (unsigned i = 0; i < mutants_per_kind; ++i) {
            const std::uint64_t seed =
                seed0 * 1'000'003ull + k * 104'729ull + i;
            summary.add(runMutant(file, static_cast<MutationKind>(k), seed,
                                  opts, load_path));
        }
    }
    return summary;
}

// ----- ring-level fault injection -------------------------------------------

const char *
ringMutationKindName(RingMutationKind kind)
{
    switch (kind) {
      case RingMutationKind::kEvictedGap:
        return "evicted-gap";
      case RingMutationKind::kTornTail:
        return "torn-tail";
      case RingMutationKind::kStaleIndex:
        return "stale-index";
    }
    return "unknown";
}

namespace
{

namespace fs = std::filesystem;

/** Segment files of @p dir, name-sorted (== segId-sorted). */
std::vector<fs::path>
ringSegmentFiles(const std::string &dir)
{
    std::vector<fs::path> files;
    for (const auto &entry : fs::directory_iterator(dir))
        if (entry.path().filename().string().rfind("seg-", 0) == 0)
            files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    return files;
}

/**
 * Rewrite ring.index with a *valid* CRC over falsified contents: flip
 * the clean flag or perturb one live-set entry, then recompute the
 * checksum. The reader's scan cross-check — not the CRC — must catch
 * the lie.
 */
void
writeLyingIndex(const std::string &path, Xoshiro256ss &rng)
{
    std::ifstream in(path, std::ios::binary);
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    constexpr std::size_t kPreamble = 40;
    if (bytes.size() < kPreamble + 16)
        return; // too short to lie about; leave as-is
    std::uint8_t *blob = bytes.data() + kPreamble;
    const std::size_t blob_size = bytes.size() - kPreamble;

    auto u64_at = [&](std::size_t off) {
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(blob[off + i]) << (8 * i);
        return v;
    };
    auto put_at = [&](std::size_t off, std::uint64_t v) {
        for (int i = 0; i < 8; ++i)
            blob[off + i] = static_cast<std::uint8_t>(v >> (8 * i));
    };

    const std::uint64_t count = u64_at(8);
    const std::size_t entries_end = 16 + 16 * count;
    bool lied = false;
    if (count > 0 && entries_end <= blob_size && rng.next() % 2 == 0) {
        // Falsify one retained entry: wrong size or wrong id.
        const std::size_t victim = rng.next() % count;
        const std::size_t off =
            16 + 16 * victim + (rng.next() % 2 ? 8 : 0);
        put_at(off, u64_at(off) + 1 + rng.next() % 1024);
        lied = true;
    }
    if (!lied)
        put_at(0, u64_at(0) ^ 1); // flip the clean flag
    // Recompute the preamble CRC so the checksum passes.
    std::uint64_t c = crc32(blob, blob_size);
    for (int i = 0; i < 8; ++i)
        bytes[32 + i] = static_cast<std::uint8_t>(c >> (8 * i));
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

} // namespace

void
mutateRing(const std::string &dir, RingMutationKind kind,
           std::uint64_t seed)
{
    Xoshiro256ss rng(seed ^ 0x51BAD5EEDull);
    const std::vector<fs::path> segs = ringSegmentFiles(dir);
    switch (kind) {
      case RingMutationKind::kEvictedGap: {
        if (segs.empty())
            return;
        // Never the newest: model history rotting out from under the
        // window, not a tail crash (that is kTornTail's job).
        const std::size_t victims =
            segs.size() > 1 ? segs.size() - 1 : 1;
        fs::remove(segs[rng.next() % victims]);
        break;
      }
      case RingMutationKind::kTornTail: {
        if (segs.empty())
            return;
        const fs::path &tail = segs.back();
        const std::uintmax_t size = fs::file_size(tail);
        fs::resize_file(tail, size ? rng.next() % size : 0);
        break;
      }
      case RingMutationKind::kStaleIndex: {
        const std::string index = dir + "/ring.index";
        switch (rng.next() % 3) {
          case 0:
            fs::remove(index);
            break;
          case 1: {
            // Scribble: CRC (or structure) check must reject it.
            std::fstream f(index, std::ios::binary | std::ios::in
                                      | std::ios::out);
            if (!f)
                break;
            f.seekg(0, std::ios::end);
            const std::uint64_t size =
                static_cast<std::uint64_t>(f.tellg());
            const unsigned flips = 1 + rng.next() % 8;
            for (unsigned i = 0; i < flips && size; ++i) {
                const std::uint64_t off = rng.next() % size;
                f.seekg(static_cast<std::streamoff>(off));
                char byte = 0;
                f.read(&byte, 1);
                byte ^= static_cast<char>(1u << (rng.next() % 8));
                f.seekp(static_cast<std::streamoff>(off));
                f.write(&byte, 1);
            }
            break;
          }
          default:
            writeLyingIndex(index, rng);
            break;
        }
        break;
      }
    }
}

RingMutantResult
runRingMutant(const std::string &ring_dir, RingMutationKind kind,
              std::uint64_t seed, const ReplayCheckOptions &opts)
{
    RingMutantResult result;
    result.kind = kind;
    result.seed = seed;

    // Scratch copy, deterministic name per (kind, seed).
    const fs::path scratch =
        fs::temp_directory_path()
        / ("delorean-ring-mutant-"
           + std::to_string(static_cast<unsigned>(kind)) + "-"
           + std::to_string(seed));
    std::error_code ec;
    fs::remove_all(scratch, ec);
    try {
        fs::copy(ring_dir, scratch, fs::copy_options::recursive);
        mutateRing(scratch.string(), kind, seed);
    } catch (const std::exception &e) {
        fs::remove_all(scratch, ec);
        result.message =
            std::string("mutation setup failed: ") + e.what();
        return result;
    }

    std::optional<RingArchiveReader> ring;
    try {
        ring = RingArchiveReader::open(scratch.string());
    } catch (const ArchiveError &e) {
        result.outcome = MutantOutcome::kRejectedAtLoad;
        result.message = e.what();
        fs::remove_all(scratch, ec);
        return result;
    } catch (const std::exception &e) {
        result.outcome = MutantOutcome::kUnexpected;
        result.message =
            std::string("ring open threw non-archive error: ")
            + e.what();
        fs::remove_all(scratch, ec);
        return result;
    }

    result.salvaged = !ring->recovery().usedIndex
                      || ring->recovery().droppedSegments > 0;
    result.droppedSegments = ring->recovery().droppedSegments;

    // Replay whatever window recovery retained. A window too small to
    // bound (fewer than two checkpoints, e.g. a lone tail survivor)
    // has nothing to verify: the salvage itself is the result.
    result.outcome = MutantOutcome::kReplayedIdentically;
    const std::size_t checkpoints = ring->checkpointCount();
    if (checkpoints >= 2) {
        const std::size_t from = seed % (checkpoints - 1);
        try {
            const Recording view =
                ring->readInterval(from, from + 1);
            ReplayCheckOptions iopts = opts;
            iopts.startCheckpoint = 0;
            iopts.stopCheckpoint = 1;
            iopts.detectRaces = false;
            result.outcome =
                classifyRecording(view, iopts, result.message);
        } catch (const ArchiveError &e) {
            result.outcome = MutantOutcome::kRejectedAtLoad;
            result.message = e.what();
        } catch (const RecordingFormatError &e) {
            result.outcome = MutantOutcome::kRejectedAtLoad;
            result.message = e.what();
        } catch (const std::exception &e) {
            result.outcome = MutantOutcome::kUnexpected;
            result.message = std::string(
                                 "ring readInterval threw non-format "
                                 "error: ")
                             + e.what();
        }
    }

    // Unbounded leg: only meaningful when the mutant still claims a
    // clean close (a lying index may); it must either replay or fail
    // typed.
    if (result.outcome != MutantOutcome::kUnexpected
        && ring->recovery().clean && checkpoints >= 1) {
        MutantOutcome tail = MutantOutcome::kReplayedIdentically;
        std::string tail_message;
        try {
            const Recording view =
                ring->readInterval(checkpoints - 1);
            ReplayCheckOptions iopts = opts;
            iopts.startCheckpoint = 0;
            iopts.detectRaces = false;
            tail = classifyRecording(view, iopts, tail_message);
        } catch (const ArchiveError &e) {
            tail = MutantOutcome::kRejectedAtLoad;
            tail_message = e.what();
        } catch (const RecordingFormatError &e) {
            tail = MutantOutcome::kRejectedAtLoad;
            tail_message = e.what();
        } catch (const std::exception &e) {
            tail = MutantOutcome::kUnexpected;
            tail_message =
                std::string("ring unbounded read threw non-format "
                            "error: ")
                + e.what();
        }
        if (outcomeSeverity(tail) > outcomeSeverity(result.outcome)) {
            result.outcome = tail;
            result.message = tail_message;
        }
    }

    fs::remove_all(scratch, ec);
    return result;
}

FaultSweepSummary
runRingFaultSweep(const Recording &rec, unsigned mutants_per_kind,
                  std::uint64_t seed0, const ReplayCheckOptions &opts,
                  const RingOptions &ring_opts)
{
    const fs::path source =
        fs::temp_directory_path()
        / ("delorean-ring-sweep-" + std::to_string(seed0));
    std::error_code ec;
    fs::remove_all(source, ec);
    writeRing(rec, source.string(), ring_opts);

    FaultSweepSummary summary;
    summary.target = SweepTarget::kRing;
    for (unsigned k = 0; k < kRingMutationKinds; ++k) {
        for (unsigned i = 0; i < mutants_per_kind; ++i) {
            const std::uint64_t seed =
                seed0 * 1'000'003ull + k * 104'729ull + i;
            summary.add(runRingMutant(source.string(),
                                      static_cast<RingMutationKind>(k),
                                      seed, opts));
        }
    }
    fs::remove_all(source, ec);
    return summary;
}

} // namespace delorean
