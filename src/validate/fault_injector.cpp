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

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "common/errors.hpp"
#include "common/rng.hpp"
#include "core/serialize.hpp"
#include "core/serialize_detail.hpp"
#include "store/archive.hpp"
#include "store/crc32.hpp"

namespace delorean
{

const char *
mutationKindName(MutationKind kind)
{
    switch (kind) {
      case MutationKind::kBitFlip:
        return "bit-flip";
      case MutationKind::kTruncate:
        return "truncate";
      case MutationKind::kDuplicateWord:
        return "duplicate-word";
      case MutationKind::kReorderWords:
        return "reorder-words";
      case MutationKind::kHeaderCorrupt:
        return "header-corrupt";
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

/** One checkpoint image in a serialized recording. */
struct StoredImage
{
    serialize_detail::ImageKind kind;
    std::size_t kindAt = 0; ///< offset of its kind field
    std::size_t at = 0;     ///< offset of the image
    serialize_detail::CheckpointExtent extent;
};

/**
 * The checkpoint images of the serialized recording @p bytes, as far
 * as the stream parses.
 */
std::vector<StoredImage>
imagesOf(const std::string &bytes)
{
    using namespace serialize_detail;
    std::vector<StoredImage> images;
    const auto *data = reinterpret_cast<const std::uint8_t *>(bytes.data());
    try {
        std::size_t pos = checkpointSectionOffset(bytes);
        if (bytes.size() - pos < 8)
            return images;
        const std::uint64_t count = loadU64(data + pos);
        pos += 8;
        for (std::uint64_t i = 0; i < count && bytes.size() - pos >= 8;
             ++i) {
            StoredImage image;
            image.kind = static_cast<ImageKind>(loadU64(data + pos));
            if (image.kind != ImageKind::kKeyframe
                && image.kind != ImageKind::kDelta)
                break;
            image.kindAt = pos;
            image.at = pos + 8;
            const std::size_t left = bytes.size() - image.at;
            image.extent = scanImage(image.kind, data + image.at, left);
            images.push_back(image);
            pos = image.at + image.extent.bytes;
        }
    } catch (const RecordingFormatError &) {
        // A prefix that does not parse has no (further) images.
    }
    return images;
}

/** A random image of @p kind among @p images, or nullptr. */
const StoredImage *
pickImage(const std::vector<StoredImage> &images,
          serialize_detail::ImageKind kind, Xoshiro256ss &rng)
{
    std::vector<const StoredImage *> fit;
    for (const StoredImage &image : images)
        if (image.kind == kind)
            fit.push_back(&image);
    return fit.empty() ? nullptr : fit[rng.below(fit.size())];
}

/** Little-endian u64 at @p offset of a byte string or vector. */
template <typename Bytes>
std::uint64_t
u64At(const Bytes &bytes, std::size_t offset)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(
                 static_cast<std::uint8_t>(bytes[offset + i]))
             << (8 * i);
    return v;
}

template <typename Bytes>
void
putU64At(Bytes &bytes, std::size_t offset, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        bytes[offset + i] =
            static_cast<typename Bytes::value_type>(v >> (8 * i));
}

/** One word list of a stored image: where it starts, its value width. */
struct StoredList
{
    std::size_t at = 0; ///< offset of its word count
    std::size_t valueBytes = 0;
};

/** The word lists of @p image in @p bytes that hold at least one word. */
std::vector<StoredList>
nonEmptyLists(const std::string &bytes, const StoredImage &image)
{
    using serialize_detail::kListHeaderBytes;
    std::vector<StoredList> lists;
    std::size_t at = image.at + image.extent.fieldsAt;
    if (image.kind == serialize_detail::ImageKind::kKeyframe) {
        lists.push_back({at, 8});
    } else {
        at += 8; // base GCC
        lists.push_back({at, 8});
        lists.push_back({at + kListHeaderBytes
                             + static_cast<std::size_t>(u64At(bytes, at + 8)),
                         0});
    }
    std::erase_if(lists, [&bytes](const StoredList &list) {
        return u64At(bytes, list.at) == 0;
    });
    return lists;
}

/**
 * Pad the varint of one random address gap with a zero byte — the
 * same gap, non-minimally encoded — and grow its list's byte length to
 * match. Only the encoding changes, so a loader must reject it.
 */
void
padVarint(std::string &out, const std::vector<StoredImage> &images,
          Xoshiro256ss &rng)
{
    std::vector<std::pair<const StoredImage *, StoredList>> fit;
    for (const StoredImage &image : images)
        for (const StoredList &list : nonEmptyLists(out, image))
            fit.emplace_back(&image, list);
    if (fit.empty())
        return;
    const StoredList list = fit[rng.below(fit.size())].second;
    const std::uint64_t target = rng.below(u64At(out, list.at));
    std::size_t pos = list.at + serialize_detail::kListHeaderBytes;
    for (std::uint64_t k = 0;; ++k) {
        while (static_cast<std::uint8_t>(out[pos]) & 0x80)
            ++pos;
        if (k == target)
            break;
        pos += 1 + list.valueBytes;
    }
    out[pos] = static_cast<char>(static_cast<std::uint8_t>(out[pos]) | 0x80);
    out.insert(pos + 1, 1, '\0');
    putU64At(out, list.at + 8, u64At(out, list.at + 8) + 1);
}

/** Apply one checkpoint-chain mutation, when an image fits it. */
void
mutateChain(std::string &out, MutationKind kind, Xoshiro256ss &rng)
{
    using serialize_detail::ImageKind;
    const std::vector<StoredImage> images = imagesOf(out);
    if (kind == MutationKind::kNonMinimalVarint) {
        padVarint(out, images, rng);
        return;
    }
    const bool keyframe_kind = kind == MutationKind::kKeyframeWordCount
                               || kind == MutationKind::kOrphanDelta;
    const StoredImage *image = pickImage(
        images, keyframe_kind ? ImageKind::kKeyframe : ImageKind::kDelta,
        rng);
    if (!image)
        return;
    // The first field past the contexts: a keyframe's word count, a
    // delta's base GCC.
    const std::size_t tail = image->at + image->extent.fieldsAt;
    switch (kind) {
      case MutationKind::kKeyframeWordCount: {
        const std::uint64_t words = u64At(out, tail);
        putU64At(out, tail,
                 words > 0 && rng.below(2)
                     ? words - 1 - rng.below(words)
                     : words + 1 + rng.below(words + 1));
        return;
      }
      case MutationKind::kDeltaBaseGcc:
        putU64At(out, tail, u64At(out, tail) + 1 + rng.below(64));
        return;
      case MutationKind::kDeltaMemoryHash: {
        const std::size_t hash_at = image->at + image->extent.bytes - 8;
        putU64At(out, hash_at,
                 u64At(out, hash_at) ^ (1ull << rng.below(64)));
        return;
      }
      case MutationKind::kOrphanDelta:
        putU64At(out, images.front().kindAt,
                 static_cast<std::uint64_t>(ImageKind::kDelta));
        return;
      default:
        return;
    }
}

} // namespace

std::string
mutateSerialized(const std::string &bytes, MutationKind kind,
                 std::uint64_t seed)
{
    Xoshiro256ss rng(seed ^ 0xFA017EC7ull);
    std::string out = bytes;
    if (out.empty())
        return out;
    const std::uint64_t size = out.size();
    const std::uint64_t words = size / 8;

    switch (kind) {
      case MutationKind::kBitFlip: {
        const unsigned flips = 1 + static_cast<unsigned>(rng.below(8));
        for (unsigned i = 0; i < flips; ++i) {
            const std::uint64_t bit = rng.below(size * 8);
            out[bit / 8] = static_cast<char>(
                static_cast<unsigned char>(out[bit / 8])
                ^ (1u << (bit % 8)));
        }
        break;
      }
      case MutationKind::kTruncate:
        out.resize(rng.below(size));
        break;
      case MutationKind::kDuplicateWord: {
        if (words == 0)
            break;
        const std::uint64_t w = rng.below(words);
        out.insert(w * 8 + 8, bytes, w * 8, 8);
        break;
      }
      case MutationKind::kReorderWords: {
        if (words < 2)
            break;
        const std::uint64_t a = rng.below(words);
        std::uint64_t b = rng.below(words);
        if (a == b)
            b = (b + 1) % words;
        for (unsigned i = 0; i < 8; ++i)
            std::swap(out[a * 8 + i], out[b * 8 + i]);
        break;
      }
      case MutationKind::kHeaderCorrupt: {
        // Magic, version, machine and mode occupy the first
        // 21 u64 fields; scribble a random byte there.
        const std::uint64_t header =
            std::min<std::uint64_t>(size, 21 * 8);
        out[rng.below(header)] =
            static_cast<char>(rng.next() & 0xFF);
        break;
      }
      case MutationKind::kKeyframeWordCount:
      case MutationKind::kDeltaBaseGcc:
      case MutationKind::kDeltaMemoryHash:
      case MutationKind::kOrphanDelta:
      case MutationKind::kNonMinimalVarint:
        mutateChain(out, kind, rng);
        break;
    }
    return out;
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
                 r.report.message);
}

void
FaultSweepSummary::add(const ArchiveMutantResult &r)
{
    target = SweepTarget::kArchive;
    countOutcome(*this, r.outcome, archiveMutationKindName(r.kind),
                 r.seed, r.message);
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
    static const char *const kLabels[] = {"fault sweep",
                                          "archive fault sweep",
                                          "ring fault sweep"};
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

MutantResult
runMutant(const std::string &serialized, MutationKind kind,
          std::uint64_t seed, const ReplayCheckOptions &opts)
{
    MutantResult result;
    result.kind = kind;
    result.seed = seed;

    const std::string mutated = mutateSerialized(serialized, kind, seed);

    Recording mutant;
    try {
        std::istringstream in(mutated);
        mutant = loadRecording(in);
    } catch (const RecordingFormatError &e) {
        result.outcome = MutantOutcome::kRejectedAtLoad;
        result.report.kind = DivergenceKind::kFormatError;
        result.report.message = e.what();
        return result;
    } catch (const std::exception &e) {
        // The loader's contract is RecordingFormatError only; any
        // other type is a hardening gap the sweep must surface.
        result.outcome = MutantOutcome::kUnexpected;
        result.report.kind = DivergenceKind::kFormatError;
        result.report.message =
            std::string("loader threw non-format error: ") + e.what();
        return result;
    }

    ReplayCheckResult check;
    try {
        check = checkedReplay(mutant, opts);
    } catch (const std::exception &e) {
        result.outcome = MutantOutcome::kUnexpected;
        result.report.kind = DivergenceKind::kReplayError;
        result.report.message =
            std::string("checkedReplay threw: ") + e.what();
        return result;
    }

    result.report = check.report;
    if (check.ok) {
        result.outcome = MutantOutcome::kReplayedIdentically;
        return result;
    }
    switch (check.report.kind) {
      case DivergenceKind::kFormatError:
      case DivergenceKind::kWorkloadError:
        result.outcome = MutantOutcome::kRejectedAtLoad;
        break;
      case DivergenceKind::kReplayError:
        result.outcome = MutantOutcome::kReplayErrorReported;
        break;
      case DivergenceKind::kCommitDivergence:
      case DivergenceKind::kMissingCommits:
      case DivergenceKind::kExtraCommits:
      case DivergenceKind::kStateDivergence:
        result.outcome = MutantOutcome::kDivergenceDetected;
        break;
      case DivergenceKind::kNone:
        result.outcome = MutantOutcome::kUnexpected;
        result.report.message =
            "checkedReplay returned !ok with an empty report";
        break;
    }
    return result;
}

FaultSweepSummary
runFaultSweep(const Recording &rec, unsigned mutants_per_kind,
              std::uint64_t seed0, const ReplayCheckOptions &opts)
{
    const auto serialize = [](const Recording &r) {
        std::ostringstream buf;
        saveRecording(r, buf);
        return buf.str();
    };
    const std::string serialized = serialize(rec);
    std::string logs = serialized;
    if (opts.startCheckpoint == ReplayCheckOptions::kFullRun
        && !rec.checkpoints.empty()) {
        Recording bare = rec;
        bare.checkpoints.clear();
        logs = serialize(bare);
    }

    FaultSweepSummary summary;
    for (unsigned k = 0; k < kMutationKinds; ++k) {
        for (unsigned i = 0; i < mutants_per_kind; ++i) {
            const std::uint64_t seed =
                seed0 * 1'000'003ull + k * 7919ull + i;
            summary.add(runMutant(k < kStreamMutationKinds ? logs
                                                           : serialized,
                                  static_cast<MutationKind>(k), seed,
                                  opts));
        }
    }
    return summary;
}

// ----- archive-level fault injection ----------------------------------------

const char *
archiveMutationKindName(ArchiveMutationKind kind)
{
    switch (kind) {
      case ArchiveMutationKind::kSegmentBitFlip:
        return "segment-bit-flip";
      case ArchiveMutationKind::kFooterTruncate:
        return "footer-truncate";
      case ArchiveMutationKind::kIndexCorrupt:
        return "index-corrupt";
    }
    return "unknown";
}

namespace
{

void
flipBits(std::vector<std::uint8_t> &bytes, std::size_t begin,
         std::size_t end, Xoshiro256ss &rng)
{
    if (end <= begin)
        return;
    const unsigned flips = 1 + static_cast<unsigned>(rng.below(8));
    const std::uint64_t span = (end - begin) * 8;
    for (unsigned i = 0; i < flips; ++i) {
        const std::uint64_t bit = rng.below(span);
        bytes[begin + bit / 8] ^=
            static_cast<std::uint8_t>(1u << (bit % 8));
    }
}

} // namespace

std::vector<std::uint8_t>
mutateArchive(const std::vector<std::uint8_t> &bytes,
              ArchiveMutationKind kind, std::uint64_t seed)
{
    Xoshiro256ss rng(seed ^ 0xA2C817EC7ull);
    std::vector<std::uint8_t> out = bytes;
    if (out.size() < 56) {
        // Too small to carry any structure; degrade to a bit flip.
        flipBits(out, 0, out.size(), rng);
        return out;
    }
    const std::size_t trailer = out.size() - 32;
    const std::uint64_t footer_offset = u64At(out, trailer);

    switch (kind) {
      case ArchiveMutationKind::kSegmentBitFlip: {
        // Aim at one segment record (header, image, payload) via the
        // archive's own index so the flip never lands in footer or
        // trailer.
        try {
            const ArchiveReader reader = ArchiveReader::fromBytes(out);
            const auto &segs = reader.segments();
            const ArchiveSegmentInfo &seg =
                segs[static_cast<std::size_t>(rng.below(segs.size()))];
            const std::size_t begin =
                static_cast<std::size_t>(seg.fileOffset);
            flipBits(out, begin,
                     begin + static_cast<std::size_t>(seg.recordBytes),
                     rng);
        } catch (const std::exception &) {
            flipBits(out, 0, out.size(), rng);
        }
        break;
      }
      case ArchiveMutationKind::kFooterTruncate: {
        // Cut somewhere inside the footer or trailer region.
        const std::size_t begin = std::min<std::size_t>(
            static_cast<std::size_t>(footer_offset), out.size());
        out.resize(begin + rng.below(out.size() - begin));
        break;
      }
      case ArchiveMutationKind::kIndexCorrupt: {
        // Scribble on the footer, then rebuild a consistent trailer
        // (size + CRC valid), so the checksum layer passes and the
        // reader's semantic cross-checks are what must catch the lie.
        try {
            const std::uint64_t footer_size = u64At(out, trailer + 8);
            if (footer_offset > trailer
                || footer_size > trailer - footer_offset)
                throw std::out_of_range("footer location");
            std::vector<std::uint8_t> raw(
                out.begin() + static_cast<long>(footer_offset),
                out.begin() + static_cast<long>(footer_offset + footer_size));
            if (raw.empty())
                break;
            // Half the mutants aim at the record index's structural
            // fields (clean flag, record count, and the first two
            // records' file offsets and sizes); the rest land anywhere,
            // mostly in the metadata and the final stats. Walk the
            // footer layout: machine (12 u64s) + mode (7 u64s) +
            // appName + seed + iterations, then the index.
            constexpr std::size_t kIndexFieldBytes = 48;
            std::size_t idx0 = raw.size();
            if (raw.size() >= 160) {
                const std::uint64_t name_len = u64At(raw, 152);
                if (name_len < raw.size())
                    idx0 = 160 + static_cast<std::size_t>(name_len) + 16;
            }
            const std::size_t pos =
                (idx0 + kIndexFieldBytes <= raw.size() && rng.below(2) == 0)
                    ? idx0 + static_cast<std::size_t>(
                          rng.below(kIndexFieldBytes))
                    : static_cast<std::size_t>(rng.below(raw.size()));
            raw[pos] ^=
                static_cast<std::uint8_t>(1 + rng.below(255));
            out.resize(static_cast<std::size_t>(footer_offset));
            out.insert(out.end(), raw.begin(), raw.end());
            const std::size_t new_trailer = out.size();
            out.resize(out.size() + 32);
            putU64At(out, new_trailer, footer_offset);
            putU64At(out, new_trailer + 8, raw.size());
            putU64At(out, new_trailer + 16, crc32(raw.data(), raw.size()));
            putU64At(out, new_trailer + 24,
                     u64At(bytes, trailer + 24)); // end magic
        } catch (const std::exception &) {
            flipBits(out, static_cast<std::size_t>(footer_offset),
                     out.size(), rng);
        }
        break;
      }
    }
    return out;
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
 * Classify one recording pulled out of a mutant archive: checked
 * replay with every failure fenced, exactly like runMutant's tail.
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

ArchiveMutantResult
runArchiveMutant(const std::vector<std::uint8_t> &archive,
                 ArchiveMutationKind kind, std::uint64_t seed,
                 const ReplayCheckOptions &opts,
                 ArchiveLoadPath load_path)
{
    ArchiveMutantResult result;
    result.kind = kind;
    result.seed = seed;

    const std::vector<std::uint8_t> mutated =
        mutateArchive(archive, kind, seed);

    // Leg 1: parse + readAll + checked replay.
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
        result.outcome = MutantOutcome::kUnexpected;
        result.message =
            std::string("archive reader threw non-format error: ")
            + e.what();
        return result;
    }

    result.outcome = classifyRecording(full, opts, result.message);
    if (result.outcome == MutantOutcome::kUnexpected)
        return result;

    // Leg 2: interval replay through the (possibly lying) index. Only
    // reachable when the mutant still parses; a corrupt index must
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
runArchiveFaultSweep(const Recording &rec, unsigned mutants_per_kind,
                     std::uint64_t seed0,
                     const ReplayCheckOptions &opts,
                     ArchiveLoadPath load_path)
{
    std::ostringstream buf;
    writeArchive(rec, buf);
    const std::string s = std::move(buf).str();
    const std::vector<std::uint8_t> archive(s.begin(), s.end());

    FaultSweepSummary summary;
    summary.target = SweepTarget::kArchive;
    for (unsigned k = 0; k < kArchiveMutationKinds; ++k) {
        for (unsigned i = 0; i < mutants_per_kind; ++i) {
            const std::uint64_t seed =
                seed0 * 1'000'003ull + k * 104'729ull + i;
            summary.add(runArchiveMutant(
                archive, static_cast<ArchiveMutationKind>(k), seed,
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
