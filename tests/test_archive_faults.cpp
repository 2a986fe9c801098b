/**
 * @file
 * Archive-corruption fault sweep (fuzz tier).
 *
 * The acceptance gate for the store subsystem: >= 500 mutated
 * archives across the recording modes must each be *detected* — a
 * typed ArchiveError naming the failing section (and segment id for
 * payload damage), a rejection from validateRecording, an identical
 * replay (mutation hit dead bytes), or a structured divergence —
 * never a crash, a hang, or a silent wrong answer. Runs under the
 * `fuzz` ctest label.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "compress/lz77.hpp"
#include "core/recorder.hpp"
#include "core/serialize_detail.hpp"
#include "store/archive.hpp"
#include "store/archive_detail.hpp"
#include "store/crc32.hpp"
#include "store/ring.hpp"
#include "validate/fault_injector.hpp"
#include "validate/replay_check.hpp"

#include "container_bytes.hpp"

namespace delorean
{
namespace
{

using test::footerOffset;
using test::kDlaTrailerBytes;
using test::putU64At;
using test::rawFooter;
using test::readFile;
using test::rewriteFooter;
using test::u64At;
using test::writeFile;

constexpr std::uint64_t kSeed = 20080621;
// 60 mutants x 3 kinds x 3 modes = 540 total, over the gate's 500.
constexpr unsigned kMutantsPerKind = 60;

Recording
record(const ModeConfig &mode, std::uint64_t checkpoint_period = 25)
{
    MachineConfig machine;
    machine.numProcs = 4;
    const Workload workload("fft", machine.numProcs, kSeed,
                            WorkloadScale{10});
    return Recorder(mode, machine)
        .record(workload, /*env_seed=*/1, true, {}, checkpoint_period);
}

std::vector<std::uint8_t>
archive(const Recording &rec)
{
    std::ostringstream out(std::ios::binary);
    writeArchive(rec, out);
    const std::string s = std::move(out).str();
    return std::vector<std::uint8_t>(s.begin(), s.end());
}

class ArchiveFaultSweep : public testing::TestWithParam<int>
{
  protected:
    static std::pair<const char *, ModeConfig>
    current()
    {
        switch (GetParam()) {
          case 0:
            return {"order-and-size", ModeConfig::orderAndSize()};
          case 1: {
            ModeConfig strat = ModeConfig::orderOnly();
            strat.stratifyChunksPerProc = 4;
            return {"order-only-strat", strat};
          }
          default:
            return {"picolog", ModeConfig::picoLog()};
        }
    }
};

TEST_P(ArchiveFaultSweep, MutantsNeverCrashHangOrLie)
{
    const auto [name, mode] = current();
    const Recording rec = record(mode);
    ASSERT_GE(rec.checkpoints.size(), 1u) << name;
    const FaultSweepSummary sweep =
        runArchiveFaultSweep(rec, kMutantsPerKind, /*seed0=*/kSeed);
    EXPECT_EQ(sweep.total, kMutantsPerKind * kArchiveMutationKinds);
    EXPECT_TRUE(sweep.ok()) << name << ": " << sweep.describe();
    // The sweep must exercise both sides of the contract: most
    // mutants caught by the integrity layers, and at least some
    // surviving to a replay verdict (index-corrupt mutants that hit
    // dead footer bytes, e.g. a statistics field).
    EXPECT_GT(sweep.rejectedAtLoad, 0u) << name;
    EXPECT_GT(sweep.replayedIdentically + sweep.divergenceDetected
                  + sweep.replayErrorReported,
              0u)
        << name;
}

TEST_P(ArchiveFaultSweep, MmapPathFencesMutantsIdentically)
{
    // Same 540 mutants, pushed through fromFile with mmap enabled:
    // the zero-copy reader must classify every mutant exactly like
    // the buffered reader — same outcome buckets, zero unexpected.
    const auto [name, mode] = current();
    const Recording rec = record(mode);
    const FaultSweepSummary buffered = runArchiveFaultSweep(
        rec, kMutantsPerKind, /*seed0=*/kSeed, {},
        ArchiveLoadPath::kBuffered);
    const FaultSweepSummary mapped = runArchiveFaultSweep(
        rec, kMutantsPerKind, /*seed0=*/kSeed, {},
        ArchiveLoadPath::kMmapFile);
    EXPECT_TRUE(mapped.ok()) << name << ": " << mapped.describe();
    EXPECT_EQ(mapped.total, buffered.total) << name;
    EXPECT_EQ(mapped.rejectedAtLoad, buffered.rejectedAtLoad) << name;
    EXPECT_EQ(mapped.replayedIdentically, buffered.replayedIdentically)
        << name;
    EXPECT_EQ(mapped.divergenceDetected, buffered.divergenceDetected)
        << name;
    EXPECT_EQ(mapped.replayErrorReported, buffered.replayErrorReported)
        << name;
}

TEST(ArchiveFaultSweepDetector, DetectorLegNeverCrashesHangsOrLies)
{
    // Detector leg of the 540-mutant bucket: corrupted archives fed
    // to a replay with the race detector attached must still end in a
    // typed ArchiveError / RecordingFormatError rejection, an
    // identical replay, or a structured divergence — never a crash or
    // hang. A seeded-race base recording keeps the detector live on
    // every mutant that survives to replay.
    MachineConfig machine;
    machine.numProcs = 4;
    const Workload workload("fft~r2", machine.numProcs, kSeed,
                            WorkloadScale{10});
    const Recording rec =
        Recorder(ModeConfig::orderOnly(), machine)
            .record(workload, /*env_seed=*/1, true, {}, 25);
    ASSERT_GE(rec.checkpoints.size(), 1u);

    ReplayCheckOptions opts;
    opts.detectRaces = true;
    const FaultSweepSummary sweep =
        runArchiveFaultSweep(rec, kMutantsPerKind, /*seed0=*/kSeed,
                             opts);
    EXPECT_EQ(sweep.total, kMutantsPerKind * kArchiveMutationKinds);
    EXPECT_TRUE(sweep.ok()) << sweep.describe();
    EXPECT_GT(sweep.rejectedAtLoad, 0u);
    EXPECT_GT(sweep.replayedIdentically + sweep.divergenceDetected
                  + sweep.replayErrorReported,
              0u);
}

INSTANTIATE_TEST_SUITE_P(Modes, ArchiveFaultSweep, testing::Range(0, 3));

/**
 * Ring-directory fault sweep: crash-and-rot shapes against the
 * always-on container. 60 mutants x 3 kinds x 2 modes = 360 rings,
 * each recovered by RingArchiveReader::open and replayed over the
 * retained window — never a crash, a hang, or a silent wrong answer.
 */
class RingFaultSweep : public testing::TestWithParam<int>
{
  protected:
    static std::pair<const char *, ModeConfig>
    current()
    {
        if (GetParam() == 0)
            return {"order-and-size", ModeConfig::orderAndSize()};
        ModeConfig strat = ModeConfig::orderOnly();
        strat.stratifyChunksPerProc = 4;
        return {"order-only-strat", strat};
    }
};

TEST_P(RingFaultSweep, MutantsNeverCrashHangOrLie)
{
    const auto [name, mode] = current();
    const Recording rec = record(mode);
    ASSERT_GE(rec.checkpoints.size(), 2u) << name;

    const FaultSweepSummary sweep =
        runRingFaultSweep(rec, kMutantsPerKind,
                          /*seed0=*/kSeed + GetParam());
    EXPECT_EQ(sweep.total, kMutantsPerKind * kRingMutationKinds);
    EXPECT_TRUE(sweep.ok()) << name << ": " << sweep.describe();
    // Both sides of the recovery contract must be exercised: typed
    // rejections (a ring shredded beyond salvage) and successful
    // salvages that replay the surviving window.
    EXPECT_GT(sweep.salvaged, 0u) << name << ": " << sweep.describe();
    EXPECT_GT(sweep.replayedIdentically, 0u)
        << name << ": " << sweep.describe();
}

INSTANTIATE_TEST_SUITE_P(Modes, RingFaultSweep, testing::Range(0, 2));

TEST(ArchiveFaults, ForgedOffsetsNearTwoToTheSixtyFourFailAtOpen)
{
    // Index and trailer offsets are attacker-chosen: a location check
    // written as `offset + size > limit` wraps for an offset near
    // 2^64 and lets a later read run off the buffer. Each forged file
    // carries valid CRCs, so only the bounds checks stand in the way.
    const Recording rec = record(ModeConfig::orderOnly());
    ASSERT_GE(rec.checkpoints.size(), 2u);
    const std::vector<std::uint8_t> bytes = archive(rec);
    const std::size_t footer_off = footerOffset(bytes);
    const std::vector<std::uint8_t> footer = rawFooter(bytes);

    // Segment 1's index entry: endGcc, fileOffset, rawBytes, compBytes,
    // crc32 (found by value, past segment 0's checkpoint image).
    const ArchiveSegmentInfo seg =
        ArchiveReader::fromBytes(bytes).segments()[1];
    std::size_t entry = 0;
    while (entry + 40 <= footer.size()
           && !(u64At(footer, entry) == seg.endGcc
                && u64At(footer, entry + 8) == seg.fileOffset
                && u64At(footer, entry + 16) == seg.rawBytes
                && u64At(footer, entry + 24) == seg.compBytes
                && u64At(footer, entry + 32) == seg.crc32))
        ++entry;
    ASSERT_LT(entry + 40, footer.size());
    std::vector<std::uint8_t> forged_footer = footer;
    putU64At(forged_footer, entry + 8, ~std::uint64_t{0} - 39);
    std::vector<std::uint8_t> forged_index = bytes;
    rewriteFooter(forged_index, footer_off, forged_footer);
    try {
        ArchiveReader::fromBytes(forged_index);
        ADD_FAILURE() << "segment offset 2^64-40 was accepted at open";
    } catch (const ArchiveError &e) {
        EXPECT_EQ(e.section(), ArchiveSection::kFooter) << e.what();
    }

    // The trailer's footer offset has the same shape.
    std::vector<std::uint8_t> forged_trailer = bytes;
    const std::size_t trailer = bytes.size() - kDlaTrailerBytes;
    putU64At(forged_trailer, trailer, ~std::uint64_t{0} - 7);
    putU64At(forged_trailer, trailer + 8, 16);
    try {
        ArchiveReader::fromBytes(forged_trailer);
        ADD_FAILURE() << "footer offset 2^64-8 was accepted at open";
    } catch (const ArchiveError &e) {
        EXPECT_EQ(e.section(), ArchiveSection::kTrailer) << e.what();
    }
}

TEST(RingFaults, ForgedPayloadSizeThatWrapsTheExtentIsDropped)
{
    // A segment header whose start blob claims 1 MiB past the file and
    // whose payload size is chosen so the extent sum wraps back to the
    // file size. The header is re-sealed with a valid CRC; the salvage
    // scan must drop the file on the payload-size cap, not read past
    // the file buffer.
    const Recording rec = record(ModeConfig::orderOnly());
    ASSERT_GE(rec.checkpoints.size(), 2u);
    const std::string dir =
        (std::filesystem::temp_directory_path()
         / "delorean-ring-forged-extent")
            .string();
    std::filesystem::remove_all(dir);
    writeRing(rec, dir, RingOptions{});

    // Segment file: 48-byte preamble (header raw size at 24, compressed
    // size at 32, CRC at 40), the header blob, the checkpoint blobs,
    // the payload. Header blob u64s: startGcc, endGcc, isTail,
    // hasStart, start bytes/crc, hasEnd, end bytes/crc, payload
    // raw/comp/crc.
    const std::string seg1 = dir + "/seg-000000000001";
    const std::vector<std::uint8_t> file = readFile(seg1);
    const std::size_t hcomp = u64At(file, 32);
    const Lz77 codec;
    std::vector<std::uint8_t> header =
        codec.decompress(file.data() + 48, hcomp);
    ASSERT_EQ(header.size(), 12u * 8);
    ASSERT_EQ(u64At(header, 3 * 8), 1u);
    const std::vector<std::uint8_t> rest(
        file.begin() + static_cast<long>(48 + hcomp), file.end());
    // The file must end exactly where the header says: preamble,
    // header blob, then start + end + payload bytes. Pick the payload
    // size so that sum wraps around to the bytes actually present.
    const std::uint64_t start_bytes = file.size() + (1u << 20);
    putU64At(header, 4 * 8, start_bytes);
    putU64At(header, 10 * 8,
             rest.size() - start_bytes - u64At(header, 7 * 8));
    const std::vector<std::uint8_t> hblob = codec.compress(header);
    std::vector<std::uint8_t> out(file.begin(), file.begin() + 48);
    putU64At(out, 24, header.size());
    putU64At(out, 32, hblob.size());
    putU64At(out, 40, crc32(hblob.data(), hblob.size()));
    out.insert(out.end(), hblob.begin(), hblob.end());
    out.insert(out.end(), rest.begin(), rest.end());
    writeFile(seg1, out);

    const RingArchiveReader ring = RingArchiveReader::open(dir);
    EXPECT_GE(ring.recovery().droppedSegments, 1u);
    const std::vector<std::string> &notes = ring.recovery().notes;
    EXPECT_NE(std::find(notes.begin(), notes.end(),
                        "seg-000000000001: implausible payload size"),
              notes.end());
    std::filesystem::remove_all(dir);
}

TEST(RingFaults, EachMutationKindLandsInItsExpectedBucket)
{
    // Taxonomy: a deleted interior segment shrinks the window to the
    // first chain head after it (salvage, never a crash), or, when no
    // chain head follows it, is a typed rejection; a torn tail drops
    // exactly the torn file; a lying index is overruled by the
    // directory scan, so an index-only fault can never reject a ring
    // whose segments are intact.
    const Recording rec = record(ModeConfig::orderOnly());
    ASSERT_GE(rec.checkpoints.size(), 2u);
    const std::string dir =
        (std::filesystem::temp_directory_path()
         / "delorean-ring-taxonomy")
            .string();
    std::filesystem::remove_all(dir);
    writeRing(rec, dir, RingOptions{});

    for (std::uint64_t seed = 0; seed < 25; ++seed) {
        const RingMutantResult gap = runRingMutant(
            dir, RingMutationKind::kEvictedGap, seed);
        ASSERT_NE(gap.outcome, MutantOutcome::kUnexpected)
            << "gap seed " << seed << ": " << gap.message;
        EXPECT_TRUE(gap.salvaged
                    || (gap.outcome == MutantOutcome::kRejectedAtLoad
                        && gap.message.find("no chain head")
                               != std::string::npos))
            << "gap seed " << seed << ": " << gap.message;

        const RingMutantResult torn = runRingMutant(
            dir, RingMutationKind::kTornTail, seed);
        ASSERT_NE(torn.outcome, MutantOutcome::kUnexpected)
            << "torn seed " << seed << ": " << torn.message;
        EXPECT_TRUE(torn.droppedSegments >= 1
                    || torn.outcome == MutantOutcome::kRejectedAtLoad)
            << "torn seed " << seed;

        const RingMutantResult stale = runRingMutant(
            dir, RingMutationKind::kStaleIndex, seed);
        ASSERT_NE(stale.outcome, MutantOutcome::kUnexpected)
            << "stale seed " << seed << ": " << stale.message;
        EXPECT_NE(stale.outcome, MutantOutcome::kRejectedAtLoad)
            << "stale seed " << seed
            << ": intact segments must survive an index-only fault";
        EXPECT_EQ(stale.droppedSegments, 0u) << "stale seed " << seed;
    }
    std::filesystem::remove_all(dir);
}

/**
 * Corruption taxonomy: every mutation class must produce its expected
 * typed error. Payload damage names the segment; footer truncation
 * names the trailer or footer; a lying index is caught by the
 * semantic cross-checks or the segment-header comparison.
 */
TEST(ArchiveFaults, SegmentBitFlipNamesTheSegment)
{
    const Recording rec = record(ModeConfig::orderOnly());
    const std::vector<std::uint8_t> bytes = archive(rec);
    const ArchiveReader intact = ArchiveReader::fromBytes(bytes);

    unsigned typed = 0;
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
        const ArchiveMutantResult r = runArchiveMutant(
            bytes, ArchiveMutationKind::kSegmentBitFlip, seed);
        ASSERT_NE(r.outcome, MutantOutcome::kUnexpected)
            << "seed " << seed << ": " << r.message;
        if (r.outcome == MutantOutcome::kRejectedAtLoad
            && r.typedArchiveError) {
            // A payload flip is caught by the per-segment CRC and
            // must name a real segment.
            EXPECT_LT(r.segment, intact.segments().size())
                << "seed " << seed << ": " << r.message;
            ++typed;
        }
    }
    // CRC-32 catches essentially every payload flip; allow a little
    // slack for flips that land in a segment's dead bytes.
    EXPECT_GE(typed, 35u);
}

TEST(ArchiveFaults, FooterTruncationIsATrailerOrFooterError)
{
    const Recording rec = record(ModeConfig::orderOnly());
    const std::vector<std::uint8_t> bytes = archive(rec);

    for (std::uint64_t seed = 0; seed < 40; ++seed) {
        const std::vector<std::uint8_t> mutant = mutateArchive(
            bytes, ArchiveMutationKind::kFooterTruncate, seed);
        try {
            ArchiveReader::fromBytes(mutant);
            FAIL() << "seed " << seed
                   << ": truncated footer parsed successfully";
        } catch (const ArchiveError &e) {
            EXPECT_TRUE(e.section() == ArchiveSection::kTrailer
                        || e.section() == ArchiveSection::kFooter)
                << "seed " << seed << ": " << e.what();
        }
    }
}

TEST(ArchiveFaults, IndexCorruptionNeverEscapesDetection)
{
    const Recording rec = record(ModeConfig::orderOnly());
    const std::vector<std::uint8_t> bytes = archive(rec);

    unsigned rejected = 0;
    unsigned survived = 0;
    for (std::uint64_t seed = 0; seed < 60; ++seed) {
        const ArchiveMutantResult r = runArchiveMutant(
            bytes, ArchiveMutationKind::kIndexCorrupt, seed);
        ASSERT_NE(r.outcome, MutantOutcome::kUnexpected)
            << "seed " << seed << ": " << r.message;
        if (r.outcome == MutantOutcome::kRejectedAtLoad)
            ++rejected;
        else
            ++survived;
    }
    // The recompressed-footer mutants pass the CRC layer by
    // construction, so every rejection here came from a semantic
    // cross-check (segment-header comparison, config validation,
    // checkpoint/GCC agreement, ...). Both buckets must be hit.
    EXPECT_GT(rejected, 0u);
    EXPECT_GT(survived, 0u);
}

/** One reader path's verdict on a file, for cross-path comparison. */
struct LoadOutcome
{
    bool ok = false;
    bool archiveError = false;
    bool formatError = false;
    ArchiveSection section = ArchiveSection::kFileHeader;
    std::size_t segment = ArchiveError::kNoSegment;
    std::string message;

    bool
    operator==(const LoadOutcome &other) const
    {
        return ok == other.ok && archiveError == other.archiveError
               && formatError == other.formatError
               && section == other.section && segment == other.segment
               && message == other.message;
    }
};

LoadOutcome
loadFileOutcome(const std::string &path, bool mmap_reads)
{
    LoadOutcome o;
    try {
        const ArchiveIoOptions io{1};
        (mmap_reads ? ArchiveReader::fromFile(path, io)
                    : ArchiveReader::fromBytes(readFile(path), io))
            .readAll();
        o.ok = true;
    } catch (const ArchiveError &e) {
        o.archiveError = true;
        o.section = e.section();
        o.segment = e.segment();
        o.message = e.what();
    } catch (const RecordingFormatError &e) {
        o.formatError = true;
        o.message = e.what();
    }
    return o;
}

std::string
writeTemp(const std::vector<std::uint8_t> &bytes, const char *name)
{
    const std::string path = testing::TempDir() + name;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    return path;
}

/**
 * Failure edges of the zero-copy read path: a 0-byte file, files
 * truncated mid-segment and mid-footer, and a CRC-corrupt payload
 * must each produce the *same* typed error through the mmap reader
 * as through the buffered one (the file read into memory and parsed
 * by fromBytes).
 */
TEST(ArchiveFaults, MmapFailureEdgesMatchBufferedReads)
{
    const Recording rec = record(ModeConfig::orderOnly());
    const std::vector<std::uint8_t> bytes = archive(rec);
    const ArchiveReader intact = ArchiveReader::fromBytes(bytes);
    ASSERT_GE(intact.segments().size(), 2u);

    // 0-byte file: MappedFile maps it as an empty span, so both
    // paths reject it as a header error, not an open failure.
    {
        const std::string path = writeTemp({}, "edge_empty.dla");
        const LoadOutcome mapped = loadFileOutcome(path, true);
        const LoadOutcome buffered = loadFileOutcome(path, false);
        EXPECT_TRUE(mapped.archiveError) << mapped.message;
        EXPECT_EQ(mapped.section, ArchiveSection::kFileHeader);
        EXPECT_TRUE(mapped == buffered) << mapped.message << " vs "
                                        << buffered.message;
        std::remove(path.c_str());
    }

    // Truncated mid-segment: cut inside segment 1's payload.
    {
        const std::size_t cut = static_cast<std::size_t>(
            intact.segments()[1].fileOffset + 40 + 3);
        ASSERT_LT(cut, bytes.size());
        const std::vector<std::uint8_t> cut_bytes(
            bytes.begin(),
            bytes.begin() + static_cast<std::ptrdiff_t>(cut));
        const std::string path =
            writeTemp(cut_bytes, "edge_midseg.dla");
        const LoadOutcome mapped = loadFileOutcome(path, true);
        const LoadOutcome buffered = loadFileOutcome(path, false);
        EXPECT_TRUE(mapped.archiveError) << mapped.message;
        EXPECT_EQ(mapped.section, ArchiveSection::kTrailer);
        EXPECT_TRUE(mapped == buffered) << mapped.message << " vs "
                                        << buffered.message;
        std::remove(path.c_str());
    }

    // Truncated mid-footer: drop the last 8 trailer bytes.
    {
        const std::vector<std::uint8_t> cut_bytes(
            bytes.begin(),
            bytes.begin()
                + static_cast<std::ptrdiff_t>(bytes.size() - 8));
        const std::string path =
            writeTemp(cut_bytes, "edge_midfooter.dla");
        const LoadOutcome mapped = loadFileOutcome(path, true);
        const LoadOutcome buffered = loadFileOutcome(path, false);
        EXPECT_TRUE(mapped.archiveError) << mapped.message;
        EXPECT_EQ(mapped.section, ArchiveSection::kTrailer);
        EXPECT_TRUE(mapped == buffered) << mapped.message << " vs "
                                        << buffered.message;
        std::remove(path.c_str());
    }

    // CRC-corrupt payload: flip one byte in segment 0's payload. The
    // file parses; readAll must fail with a typed segment error — on
    // both paths, with the same segment id.
    {
        std::vector<std::uint8_t> corrupt = bytes;
        corrupt[static_cast<std::size_t>(
            intact.segments()[0].fileOffset + 40)] ^= 0x10;
        const std::string path =
            writeTemp(corrupt, "edge_crc.dla");
        const LoadOutcome mapped = loadFileOutcome(path, true);
        const LoadOutcome buffered = loadFileOutcome(path, false);
        EXPECT_TRUE(mapped.archiveError) << mapped.message;
        EXPECT_EQ(mapped.section, ArchiveSection::kSegment);
        EXPECT_EQ(mapped.segment, 0u);
        EXPECT_TRUE(mapped == buffered) << mapped.message << " vs "
                                        << buffered.message;
        std::remove(path.c_str());
    }
}

TEST(ArchiveFaults, MutationsAreDeterministic)
{
    const Recording rec = record(ModeConfig::picoLog());
    const std::vector<std::uint8_t> bytes = archive(rec);
    for (unsigned k = 0; k < kArchiveMutationKinds; ++k) {
        const auto kind = static_cast<ArchiveMutationKind>(k);
        EXPECT_EQ(mutateArchive(bytes, kind, 7),
                  mutateArchive(bytes, kind, 7))
            << archiveMutationKindName(kind);
        EXPECT_NE(mutateArchive(bytes, kind, 7), bytes)
            << archiveMutationKindName(kind);
    }
}

TEST(ArchiveFaults, SweepAccountingAddsUp)
{
    const Recording rec = record(ModeConfig::orderOnly(), 40);
    const FaultSweepSummary sweep =
        runArchiveFaultSweep(rec, 4, 99);
    EXPECT_EQ(sweep.total, 4u * kArchiveMutationKinds);
    EXPECT_EQ(sweep.total,
              sweep.rejectedAtLoad + sweep.replayedIdentically
                  + sweep.divergenceDetected + sweep.replayErrorReported
                  + sweep.unexpected);
    EXPECT_EQ(sweep.unexpectedResults.size(), sweep.unexpected);
    EXPECT_FALSE(sweep.describe().empty());
}

// ----- checkpoint chains (keyframes and deltas) -----------------------------

/** The stored images of @p rec's checkpoints, as the writers chain them. */
std::vector<archive_detail::CheckpointImages>
chainImages(const Recording &rec)
{
    std::vector<archive_detail::CheckpointImages> images;
    for (std::size_t i = 0; i < rec.checkpoints.size(); ++i)
        images.push_back(archive_detail::storedImages(
            i ? &rec.checkpoints[i - 1] : nullptr, rec.checkpoints[i]));
    return images;
}

/** An OrderOnly fft run whose checkpoints form several chains. */
const Recording &
chainedRecording()
{
    static const Recording rec = record(ModeConfig::orderOnly(), 10);
    return rec;
}

/**
 * The first chain head after checkpoint 0 that a delta follows: its
 * index, so that index + 1 is a delta on it.
 */
std::size_t
headWithDelta(const std::vector<archive_detail::CheckpointImages> &images)
{
    for (std::size_t i = 1; i + 1 < images.size(); ++i)
        if (images[i].headsChain() && !images[i + 1].headsChain())
            return i;
    return 0;
}

/** Offset of the first field past a stored image's context blocks. */
std::size_t
fieldsAt(const std::vector<std::uint8_t> &bytes, std::size_t at,
         serialize_detail::ImageKind kind)
{
    return at
           + serialize_detail::scanImage(kind, bytes.data() + at,
                                         bytes.size() - at)
                 .fieldsAt;
}

/** Offset of the first word's value in the keyframe stored at @p at. */
std::size_t
firstValueAt(const std::vector<std::uint8_t> &bytes, std::size_t at)
{
    std::size_t pos = fieldsAt(bytes, at, serialize_detail::ImageKind::kKeyframe)
                      + serialize_detail::kListHeaderBytes;
    while (bytes[pos] & 0x80)
        ++pos; // the first gap's varint
    return pos + 1;
}

/** Offset of @p image's stored form in the raw footer. */
std::size_t
footerImageOffset(const std::vector<std::uint8_t> &footer,
                  const archive_detail::CheckpointImages &image)
{
    const std::string &image_bytes = image.chainImage();
    const std::vector<std::uint8_t> want(image_bytes.begin(),
                                         image_bytes.end());
    const auto it = std::search(footer.begin(), footer.end(), want.begin(),
                                want.end());
    return static_cast<std::size_t>(it - footer.begin());
}

/** @p bytes with the footer u64 at @p offset set to @p value, re-sealed. */
std::vector<std::uint8_t>
forgeFooter(const std::vector<std::uint8_t> &bytes, std::size_t offset,
            std::uint64_t value)
{
    std::vector<std::uint8_t> footer = rawFooter(bytes);
    putU64At(footer, offset, value);
    std::vector<std::uint8_t> out = bytes;
    rewriteFooter(out, footerOffset(bytes), footer);
    return out;
}

template <typename Fn>
void
expectFooterError(Fn fn, const std::string &what)
{
    try {
        fn();
        ADD_FAILURE() << "accepted; expected '" << what << "'";
    } catch (const ArchiveError &e) {
        EXPECT_EQ(e.section(), ArchiveSection::kFooter) << e.what();
        EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
            << e.what();
    }
}

TEST(ChainFaults, DlaCorruptedKeyframeFailsTheNextDeltaHash)
{
    const Recording &rec = chainedRecording();
    const auto images = chainImages(rec);
    const std::size_t head = headWithDelta(images);
    ASSERT_GT(head, 0u) << "no mid-run chain head followed by a delta";
    const std::vector<std::uint8_t> bytes = archive(rec);
    const std::vector<std::uint8_t> footer = rawFooter(bytes);
    const std::size_t at = footerImageOffset(footer, images[head]);
    ASSERT_LT(at, footer.size());
    ASSERT_EQ(u64At(footer, at), rec.checkpoints[head].gcc);

    // The first word's value: structure intact, content wrong, footer
    // re-sealed so only the chain's memory hash can notice.
    const std::size_t value_at = firstValueAt(footer, at);
    const std::vector<std::uint8_t> bad =
        forgeFooter(bytes, value_at, u64At(footer, value_at) ^ 1);
    const ArchiveReader reader = ArchiveReader::fromBytes(bad);
    EXPECT_NO_THROW(reader.checkpointAt(head - 1));
    expectFooterError([&] { reader.checkpointAt(head + 1); },
                      "memory hash mismatch");
    expectFooterError([&] { reader.readAll(); }, "memory hash mismatch");
}

TEST(ChainFaults, DlaDeltaWithForgedBaseGccFailsAtOpen)
{
    const Recording &rec = chainedRecording();
    const auto images = chainImages(rec);
    const std::size_t delta = headWithDelta(images) + 1;
    ASSERT_GT(delta, 1u);
    const std::vector<std::uint8_t> bytes = archive(rec);
    const std::vector<std::uint8_t> footer = rawFooter(bytes);
    const std::size_t at = footerImageOffset(footer, images[delta]);
    ASSERT_LT(at, footer.size());
    const std::size_t base_at =
        fieldsAt(footer, at, serialize_detail::ImageKind::kDelta);
    ASSERT_EQ(u64At(footer, base_at), rec.checkpoints[delta - 1].gcc);
    const std::vector<std::uint8_t> bad =
        forgeFooter(bytes, base_at, rec.checkpoints[delta - 1].gcc + 1);
    expectFooterError([&] { ArchiveReader::fromBytes(bad); },
                      "delta base GCC");
}

TEST(ChainFaults, DlaDeltaWithForgedMemoryHashFailsItsRebuild)
{
    const Recording &rec = chainedRecording();
    const auto images = chainImages(rec);
    const std::size_t delta = headWithDelta(images) + 1;
    ASSERT_GT(delta, 1u);
    const std::vector<std::uint8_t> bytes = archive(rec);
    const std::vector<std::uint8_t> footer = rawFooter(bytes);
    const std::size_t at = footerImageOffset(footer, images[delta]);
    ASSERT_LT(at, footer.size());
    const std::size_t hash_at = at + images[delta].delta.size() - 8;
    const std::vector<std::uint8_t> bad =
        forgeFooter(bytes, hash_at, u64At(footer, hash_at) + 1);
    const ArchiveReader reader = ArchiveReader::fromBytes(bad);
    EXPECT_NO_THROW(reader.checkpointAt(delta - 1));
    expectFooterError([&] { reader.checkpointAt(delta); },
                      "memory hash mismatch");
    expectFooterError([&] { reader.readInterval(delta - 1, delta); },
                      "memory hash mismatch");
    expectFooterError([&] { reader.readAll(); }, "memory hash mismatch");
}

/** Ring of chainedRecording() in a fresh @p name directory. */
std::string
chainedRing(const std::string &name)
{
    const std::string dir =
        (std::filesystem::temp_directory_path() / name).string();
    std::filesystem::remove_all(dir);
    RingOptions opts;
    opts.checkpointPeriod = 10;
    opts.budgetBytes = 1u << 30;
    writeRing(chainedRecording(), dir, opts);
    return dir;
}

std::string
segPath(const std::string &dir, std::size_t id)
{
    char name[32];
    std::snprintf(name, sizeof name, "seg-%012zu", id);
    return dir + "/" + name;
}

/**
 * Re-encode one checkpoint image of ring segment file @p path — its
 * start blob, or its end blob — through @p edit, re-sealing the blob
 * and the header so only the image's content can be judged.
 */
template <typename Fn>
void
editRingImage(const std::string &path, bool start, Fn edit)
{
    // Header blob u64s: startGcc, endGcc, isTail, startKind, [start
    // bytes/crc], endKind, [end bytes/crc], payload raw/comp/crc.
    // Images are stored raw.
    const std::vector<std::uint8_t> file = readFile(path);
    const Lz77 codec;
    const std::size_t hcomp = u64At(file, 32);
    std::vector<std::uint8_t> header =
        codec.decompress(file.data() + 48, hcomp);
    const bool has_start = u64At(header, 24) != 0;
    const std::size_t start_bytes = has_start ? u64At(header, 32) : 0;
    const std::size_t end_field = has_start ? 48 : 32;
    const std::size_t blob_off = 48 + hcomp + (start ? 0 : start_bytes);
    const std::size_t field = start ? 32 : end_field + 8;
    ASSERT_TRUE(start ? has_start : u64At(header, end_field) != 0);
    const std::size_t comp = u64At(header, field);
    std::vector<std::uint8_t> blob(
        file.begin() + static_cast<long>(blob_off),
        file.begin() + static_cast<long>(blob_off + comp));
    edit(blob);
    putU64At(header, field, blob.size());
    putU64At(header, field + 8, crc32(blob.data(), blob.size()));
    const std::vector<std::uint8_t> hblob = codec.compress(header);
    std::vector<std::uint8_t> out(file.begin(), file.begin() + 48);
    putU64At(out, 32, hblob.size());
    putU64At(out, 40, crc32(hblob.data(), hblob.size()));
    out.insert(out.end(), hblob.begin(), hblob.end());
    out.insert(out.end(), file.begin() + static_cast<long>(48 + hcomp),
               file.begin() + static_cast<long>(blob_off));
    out.insert(out.end(), blob.begin(), blob.end());
    out.insert(out.end(), file.begin() + static_cast<long>(blob_off + comp),
               file.end());
    writeFile(path, out);

    // Keep the clean-close index consistent: ring.index's blob (after
    // its 40-byte preamble, CRC at 32) is the clean flag, the live
    // count, then (id, file bytes) per segment.
    const std::filesystem::path seg(path);
    const std::string index_path = (seg.parent_path() / "ring.index").string();
    std::vector<std::uint8_t> index = readFile(index_path);
    const std::uint64_t id = std::stoull(seg.filename().string().substr(4));
    for (std::size_t k = 0; k < u64At(index, 48); ++k)
        if (u64At(index, 56 + 16 * k) == id)
            putU64At(index, 64 + 16 * k, out.size());
    putU64At(index, 32, crc32(index.data() + 40, index.size() - 40));
    writeFile(index_path, index);
}

/**
 * The chain contract after a fault: either a typed rejection at open,
 * or a salvaged window that opens with a chain head and whose every
 * bounded interval replays identically. True when the ring opened.
 */
bool
expectRejectedOrSalvagedToHead(const std::string &dir,
                               const std::string &label)
{
    std::optional<RingArchiveReader> ring;
    try {
        ring.emplace(RingArchiveReader::open(dir));
    } catch (const ArchiveError &) {
        return false;
    }
    EXPECT_TRUE(ring->segments().front().chainHead()) << label;
    if (ring->checkpointCount() == 0) {
        ADD_FAILURE() << label << ": opened without a checkpoint";
        return true;
    }
    EXPECT_TRUE(ring->imageInfo(0).keyframe) << label;
    for (std::size_t i = 0; i + 1 < ring->checkpointCount(); ++i) {
        ReplayCheckOptions opts;
        opts.startCheckpoint = 0;
        opts.stopCheckpoint = 1;
        const ReplayCheckResult result =
            checkedReplay(ring->readInterval(i, i + 1), opts);
        EXPECT_TRUE(result.ok) << label << " interval " << i;
    }
    return true;
}

TEST(ChainFaults, RingCorruptedKeyframeIsDroppedOrFailsTheNextDelta)
{
    const auto images = chainImages(chainedRecording());
    const std::size_t head = headWithDelta(images);
    ASSERT_GT(head, 0u);
    // Checkpoint j closes segment j, so segment head + 1 starts with
    // checkpoint head's keyframe.
    {
        // Unsealed: the scan's CRC drops the file; salvage then starts
        // at the next chain head after the gap.
        const std::string dir = chainedRing("delorean-chain-keyframe-crc");
        std::vector<std::uint8_t> file = readFile(segPath(dir, head + 1));
        const std::size_t hcomp = u64At(file, 32);
        file[48 + hcomp + 5] ^= 0x20;
        writeFile(segPath(dir, head + 1), file);
        const RingArchiveReader ring = RingArchiveReader::open(dir);
        EXPECT_GT(ring.segments().front().segId, head + 1);
        expectRejectedOrSalvagedToHead(dir, "unsealed keyframe");
        std::filesystem::remove_all(dir);
    }
    {
        // Re-sealed: the scan accepts it; the delta after it carries
        // the memory hash that rejects the rebuilt image.
        const std::string dir = chainedRing("delorean-chain-keyframe");
        editRingImage(segPath(dir, head + 1), true,
                      [](std::vector<std::uint8_t> &raw) {
                          const std::size_t v = firstValueAt(raw, 0);
                          putU64At(raw, v, u64At(raw, v) ^ 1);
                      });
        const RingArchiveReader ring = RingArchiveReader::open(dir);
        ASSERT_TRUE(ring.recovery().clean);
        try {
            ring.checkpointAt(head + 1);
            ADD_FAILURE() << "corrupted keyframe rebuilt silently";
        } catch (const ArchiveError &e) {
            EXPECT_EQ(e.section(), ArchiveSection::kSegment);
            EXPECT_NE(std::string(e.what()).find("memory hash mismatch"),
                      std::string::npos)
                << e.what();
        }
        std::filesystem::remove_all(dir);
    }
}

TEST(ChainFaults, RingDeltaWithForgedBaseGccIsDroppedAtScan)
{
    const auto images = chainImages(chainedRecording());
    const std::size_t delta = headWithDelta(images) + 1;
    ASSERT_GT(delta, 1u);
    const std::string dir = chainedRing("delorean-chain-base");
    // Segment delta closes with checkpoint delta's end image.
    editRingImage(segPath(dir, delta), false,
                  [](std::vector<std::uint8_t> &raw) {
                      const std::size_t b = fieldsAt(
                          raw, 0, serialize_detail::ImageKind::kDelta);
                      putU64At(raw, b, u64At(raw, b) + 1);
                  });
    const RingArchiveReader ring = RingArchiveReader::open(dir);
    const std::vector<std::string> &notes = ring.recovery().notes;
    EXPECT_NE(std::find(notes.begin(), notes.end(),
                        "seg-" + std::string(12 - std::to_string(delta)
                                                      .size(),
                                             '0')
                            + std::to_string(delta)
                            + ": end checkpoint disagrees with the header"),
              notes.end());
    expectRejectedOrSalvagedToHead(dir, "forged base GCC");
    std::filesystem::remove_all(dir);
}

TEST(ChainFaults, RingDeltaWithForgedMemoryHashFailsItsRebuild)
{
    const auto images = chainImages(chainedRecording());
    const std::size_t delta = headWithDelta(images) + 1;
    ASSERT_GT(delta, 1u);
    const std::string dir = chainedRing("delorean-chain-hash");
    editRingImage(segPath(dir, delta), false,
                  [](std::vector<std::uint8_t> &raw) {
                      putU64At(raw, raw.size() - 8,
                               u64At(raw, raw.size() - 8) + 1);
                  });
    const RingArchiveReader ring = RingArchiveReader::open(dir);
    ASSERT_TRUE(ring.recovery().clean);
    EXPECT_NO_THROW(ring.checkpointAt(delta - 1));
    for (const auto &read :
         {std::function<void()>([&] { ring.checkpointAt(delta); }),
          std::function<void()>([&] { ring.readInterval(delta - 1, delta); }),
          std::function<void()>([&] { ring.readAll(); })}) {
        try {
            read();
            ADD_FAILURE() << "forged memory hash accepted";
        } catch (const ArchiveError &e) {
            EXPECT_EQ(e.section(), ArchiveSection::kSegment);
            EXPECT_EQ(e.segment(), delta);
            EXPECT_NE(std::string(e.what()).find("memory hash mismatch"),
                      std::string::npos)
                << e.what();
        }
    }
    std::filesystem::remove_all(dir);
}

/**
 * A mid-chain file deleted, as kEvictedGap does, and a torn chain-head
 * file: for every such pair the ring is rejected typed or salvaged to
 * a chain head whose window replays identically.
 */
TEST(ChainFaults, RingMidChainGapAndTornChainHead)
{
    const auto images = chainImages(chainedRecording());
    std::vector<std::size_t> heads;   // chain-head segment ids
    std::vector<std::size_t> members; // mid-chain segment ids
    for (std::size_t i = 1; i < images.size(); ++i)
        (images[i - 1].headsChain() ? heads : members).push_back(i);
    ASSERT_GE(heads.size(), 2u);
    ASSERT_FALSE(members.empty());
    std::size_t salvaged = 0;
    std::size_t rejected = 0;
    for (const std::size_t gap : members) {
        for (const std::size_t head : heads) {
            const std::string dir = chainedRing("delorean-chain-gap");
            std::filesystem::remove(segPath(dir, gap));
            const std::string torn = segPath(dir, head);
            if (head != gap)
                std::filesystem::resize_file(
                    torn, std::filesystem::file_size(torn) / 2);
            (expectRejectedOrSalvagedToHead(
                 dir, "gap " + std::to_string(gap) + " torn "
                          + std::to_string(head))
                 ? salvaged
                 : rejected)++;
            std::filesystem::remove_all(dir);
        }
    }
    EXPECT_GT(salvaged, 0u);
    EXPECT_GT(rejected, 0u);
}

} // namespace
} // namespace delorean
