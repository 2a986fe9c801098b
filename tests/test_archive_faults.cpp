/**
 * @file
 * Archive-corruption fault sweep (fuzz tier).
 *
 * The acceptance gate for the store subsystem: >= 500 mutated
 * recording files across the recording modes must each be *detected* — a
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

#include "core/recorder.hpp"
#include "core/serialize.hpp"
#include "core/serialize_detail.hpp"
#include "store/archive.hpp"
#include "store/crc32.hpp"
#include "store/ring.hpp"
#include "validate/fault_injector.hpp"
#include "validate/replay_check.hpp"

#include "container_bytes.hpp"

namespace delorean
{
namespace
{

using test::footerIndexAt;
using test::footerOffset;
using test::kDlaTrailerBytes;
using test::putU64At;
using test::rawFooter;
using test::readFile;
using test::recordImageAt;
using test::resealRecord;
using test::rewriteFooter;
using test::slice;
using test::u64At;
using test::writeFile;

constexpr std::uint64_t kSeed = 20080621;
// 20 mutants x 9 kinds x 3 modes = 540 total, over the gate's 500.
constexpr unsigned kMutantsPerKind = 20;

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
    saveRecording(rec, out);
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
        runFaultSweep(rec, kMutantsPerKind, /*seed0=*/kSeed);
    EXPECT_EQ(sweep.total, kMutantsPerKind * kMutationKinds);
    EXPECT_TRUE(sweep.ok()) << name << ": " << sweep.describe();
    // The sweep must exercise both sides of the contract: most
    // mutants caught by the integrity layers, and at least some
    // surviving to a replay verdict (forged logs, and index-corrupt
    // mutants that hit dead footer bytes, e.g. a statistics field).
    EXPECT_GT(sweep.rejectedAtLoad, 0u) << name;
    EXPECT_GT(sweep.replayedIdentically + sweep.divergenceDetected
                  + sweep.replayErrorReported,
              0u)
        << name;
}

TEST_P(ArchiveFaultSweep, MmapPathFencesMutantsIdentically)
{
    // Same mutants, pushed through fromFile with mmap enabled:
    // the zero-copy reader must classify every mutant exactly like
    // the buffered reader — same outcome buckets, zero unexpected.
    const auto [name, mode] = current();
    const Recording rec = record(mode);
    const FaultSweepSummary buffered = runFaultSweep(
        rec, kMutantsPerKind, /*seed0=*/kSeed, {},
        ArchiveLoadPath::kBuffered);
    const FaultSweepSummary mapped = runFaultSweep(
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
    // Detector leg of the sweep: corrupted archives fed
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
        runFaultSweep(rec, kMutantsPerKind, /*seed0=*/kSeed,
                             opts);
    EXPECT_EQ(sweep.total, kMutantsPerKind * kMutationKinds);
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

    // Record 1's index entry: its file offset, then its bytes. Either
    // forged near 2^64 must fail the location check, not wrap it.
    const std::size_t entry = footerIndexAt(footer) + 16 + 16;
    ASSERT_EQ(u64At(footer, entry),
              ArchiveReader::fromBytes(bytes).segments()[1].fileOffset);
    for (const auto &[field, value] :
         {std::pair<std::size_t, std::uint64_t>{0, ~std::uint64_t{0} - 39},
          {8, ~std::uint64_t{0} - 15}}) {
        std::vector<std::uint8_t> forged_footer = footer;
        putU64At(forged_footer, entry + field, value);
        std::vector<std::uint8_t> forged_index = bytes;
        rewriteFooter(forged_index, footer_off, forged_footer);
        try {
            ArchiveReader::fromBytes(forged_index);
            ADD_FAILURE() << "record 1 location field " << field
                          << " forged near 2^64 was accepted at open";
        } catch (const ArchiveError &e) {
            EXPECT_EQ(e.section(), ArchiveSection::kFooter) << e.what();
        }
    }

    // A record's image size near 2^64, re-sealed: the size caps reject
    // it before any extent sum.
    std::vector<std::uint8_t> forged_record = bytes;
    const std::size_t rec1 =
        static_cast<std::size_t>(u64At(footer, entry));
    putU64At(forged_record, rec1 + test::record::kImageBytes,
             ~std::uint64_t{0} - 87);
    putU64At(forged_record, rec1 + test::record::kHeaderCrc,
             crc32(forged_record.data() + rec1, test::record::kHeaderCrc));
    try {
        ArchiveReader::fromBytes(forged_record);
        ADD_FAILURE() << "image size 2^64-88 was accepted at open";
    } catch (const ArchiveError &e) {
        EXPECT_EQ(e.section(), ArchiveSection::kSegment) << e.what();
        EXPECT_EQ(e.segment(), 1u) << e.what();
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
    // A record header whose image claims 1 MiB past the file and whose
    // payload size is chosen so the extent sum wraps back to the file
    // size. The header is re-sealed with a valid CRC; the salvage scan
    // must drop the file on the payload-size cap, not read past the
    // file buffer.
    const Recording rec = record(ModeConfig::orderOnly());
    ASSERT_GE(rec.checkpoints.size(), 2u);
    const std::string dir =
        (std::filesystem::temp_directory_path()
         / "delorean-ring-forged-extent")
            .string();
    std::filesystem::remove_all(dir);
    writeRing(rec, dir, RingOptions{});

    // A segment file is one record: the header (image size at 40,
    // payload stored size at 64, header CRC at 80), the image, the
    // payload. Claim an image 1 MiB past the file and pick the payload
    // size so that header + image + payload wraps around to the bytes
    // actually present, then re-seal the header.
    const std::string seg1 = dir + "/seg-000000000001";
    std::vector<std::uint8_t> file = readFile(seg1);
    const std::uint64_t image_bytes = file.size() + (1u << 20);
    putU64At(file, test::record::kImageBytes, image_bytes);
    putU64At(file, test::record::kCompBytes,
             file.size() - test::record::kHeaderBytes - image_bytes);
    putU64At(file, test::record::kHeaderCrc,
             crc32(file.data(), test::record::kHeaderCrc));
    writeFile(seg1, file);

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
        const MutantResult r = runMutant(
            bytes, MutationKind::kRecordBitFlip, seed);
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
        const std::vector<std::uint8_t> mutant = mutateRecording(
            bytes, MutationKind::kTruncate, seed);
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
        const MutantResult r = runMutant(
            bytes, MutationKind::kIndexCorrupt, seed);
        ASSERT_NE(r.outcome, MutantOutcome::kUnexpected)
            << "seed " << seed << ": " << r.message;
        if (r.outcome == MutantOutcome::kRejectedAtLoad)
            ++rejected;
        else
            ++survived;
    }
    // The resealed-footer mutants pass the CRC layer by
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
            intact.segments()[1].payloadOffset() + 3);
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
            intact.segments()[0].payloadOffset())] ^= 0x10;
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
    for (unsigned k = 0; k < kMutationKinds; ++k) {
        const auto kind = static_cast<MutationKind>(k);
        EXPECT_EQ(mutateRecording(bytes, kind, 7),
                  mutateRecording(bytes, kind, 7))
            << mutationKindName(kind);
        EXPECT_NE(mutateRecording(bytes, kind, 7), bytes)
            << mutationKindName(kind);
    }
}

TEST(ArchiveFaults, SweepAccountingAddsUp)
{
    const Recording rec = record(ModeConfig::orderOnly(), 40);
    const FaultSweepSummary sweep =
        runFaultSweep(rec, 4, 99);
    EXPECT_EQ(sweep.total, 4u * kMutationKinds);
    EXPECT_EQ(sweep.total,
              sweep.rejectedAtLoad + sweep.replayedIdentically
                  + sweep.divergenceDetected + sweep.replayErrorReported
                  + sweep.unexpected);
    EXPECT_EQ(sweep.unexpectedResults.size(), sweep.unexpected);
    EXPECT_FALSE(sweep.describe().empty());
}

// ----- checkpoint chains (keyframes and deltas) -----------------------------

/** An OrderOnly fft run whose checkpoints form several chains. */
const Recording &
chainedRecording()
{
    static const Recording rec = record(ModeConfig::orderOnly(), 10);
    return rec;
}

/**
 * The first chain head after checkpoint 0 that a delta follows: its
 * index, so that index + 1 is a delta on it. Checkpoint j is the image
 * of record j in both containers.
 */
std::size_t
headWithDelta(const Recording &rec)
{
    for (std::size_t i = 1; i + 1 < rec.checkpoints.size(); ++i)
        if (rec.checkpoints[i].memory.headsChain()
            && !rec.checkpoints[i + 1].memory.headsChain())
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

/**
 * @p bytes with the u64 at @p offset of checkpoint @p ckpt's image set
 * to @p value, its record re-sealed.
 */
std::vector<std::uint8_t>
forgeImage(const std::vector<std::uint8_t> &bytes, std::size_t ckpt,
           std::size_t offset, std::uint64_t value)
{
    const ArchiveSegmentInfo seg =
        ArchiveReader::fromBytes(bytes).segments()[ckpt];
    std::vector<std::uint8_t> out = bytes;
    putU64At(out, static_cast<std::size_t>(seg.imageOffset()) + offset,
             value);
    resealRecord(out, static_cast<std::size_t>(seg.fileOffset));
    return out;
}

/** The stored image of checkpoint @p ckpt of `.dla` @p bytes. */
std::vector<std::uint8_t>
dlaImage(const std::vector<std::uint8_t> &bytes, std::size_t ckpt)
{
    const ArchiveSegmentInfo seg =
        ArchiveReader::fromBytes(bytes).segments()[ckpt];
    return slice(bytes, static_cast<std::size_t>(seg.imageOffset()),
                 static_cast<std::size_t>(seg.imageBytes));
}

/** Run @p fn; expect an ArchiveError of segment @p segment naming @p what. */
template <typename Fn>
void
expectSegmentError(Fn fn, std::size_t segment, const std::string &what)
{
    try {
        fn();
        ADD_FAILURE() << "accepted; expected '" << what << "'";
    } catch (const ArchiveError &e) {
        EXPECT_EQ(e.section(), ArchiveSection::kSegment) << e.what();
        EXPECT_EQ(e.segment(), segment) << e.what();
        EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
            << e.what();
    }
}

TEST(ChainFaults, DlaCorruptedKeyframeFailsTheNextDeltaHash)
{
    const Recording &rec = chainedRecording();
    const std::size_t head = headWithDelta(rec);
    ASSERT_GT(head, 0u) << "no mid-run chain head followed by a delta";
    const std::vector<std::uint8_t> bytes = archive(rec);
    const std::vector<std::uint8_t> image = dlaImage(bytes, head);
    ASSERT_EQ(u64At(image, 0), rec.checkpoints[head].gcc);

    // The first word's value: structure intact, content wrong, record
    // re-sealed so only the chain's memory hash can notice.
    const std::size_t value_at = firstValueAt(image, 0);
    const std::vector<std::uint8_t> bad =
        forgeImage(bytes, head, value_at, u64At(image, value_at) ^ 1);
    const ArchiveReader reader = ArchiveReader::fromBytes(bad);
    EXPECT_NO_THROW(reader.checkpointAt(head - 1));
    expectSegmentError([&] { reader.checkpointAt(head + 1); }, head + 1,
                       "memory hash mismatch");
    expectSegmentError([&] { reader.readAll(); }, head + 1,
                       "memory hash mismatch");
}

TEST(ChainFaults, DlaDeltaWithForgedBaseGccFailsAtOpen)
{
    const Recording &rec = chainedRecording();
    const std::size_t delta = headWithDelta(rec) + 1;
    ASSERT_GT(delta, 1u);
    const std::vector<std::uint8_t> bytes = archive(rec);
    const std::vector<std::uint8_t> image = dlaImage(bytes, delta);
    const std::size_t base_at =
        fieldsAt(image, 0, serialize_detail::ImageKind::kDelta);
    ASSERT_EQ(u64At(image, base_at), rec.checkpoints[delta - 1].gcc);
    const std::vector<std::uint8_t> bad = forgeImage(
        bytes, delta, base_at, rec.checkpoints[delta - 1].gcc + 1);
    expectSegmentError([&] { ArchiveReader::fromBytes(bad); }, delta,
                       "end checkpoint disagrees with the header");
}

TEST(ChainFaults, DlaDeltaWithForgedMemoryHashFailsItsRebuild)
{
    const Recording &rec = chainedRecording();
    const std::size_t delta = headWithDelta(rec) + 1;
    ASSERT_GT(delta, 1u);
    const std::vector<std::uint8_t> bytes = archive(rec);
    const std::vector<std::uint8_t> image = dlaImage(bytes, delta);
    const std::size_t hash_at = image.size() - 8;
    const std::vector<std::uint8_t> bad =
        forgeImage(bytes, delta, hash_at, u64At(image, hash_at) + 1);
    const ArchiveReader reader = ArchiveReader::fromBytes(bad);
    EXPECT_NO_THROW(reader.checkpointAt(delta - 1));
    expectSegmentError([&] { reader.checkpointAt(delta); }, delta,
                       "memory hash mismatch");
    expectSegmentError([&] { reader.readInterval(delta - 1, delta); }, delta,
                       "memory hash mismatch");
    expectSegmentError([&] { reader.readAll(); }, delta,
                       "memory hash mismatch");
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
 * Edit the image of ring segment file @p path in place through
 * @p edit (which keeps its size), re-sealing the record so only the
 * image's content can be judged.
 */
template <typename Fn>
void
editRingImage(const std::string &path, Fn edit)
{
    std::vector<std::uint8_t> file = readFile(path);
    const std::size_t at = recordImageAt(0);
    std::vector<std::uint8_t> image = slice(
        file, at, static_cast<std::size_t>(u64At(file, test::record::kImageBytes)));
    edit(image);
    std::copy(image.begin(), image.end(),
              file.begin() + static_cast<long>(at));
    resealRecord(file, 0);
    writeFile(path, file);
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
    EXPECT_TRUE(ring->segments().front().keyframe) << label;
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
    const std::size_t head = headWithDelta(chainedRecording());
    ASSERT_GT(head, 0u);
    // Checkpoint j is the image of segment file j.
    {
        // Unsealed: the scan's CRC drops the file; salvage then starts
        // at the next chain head after the gap.
        const std::string dir = chainedRing("delorean-chain-keyframe-crc");
        std::vector<std::uint8_t> file = readFile(segPath(dir, head));
        file[recordImageAt(0) + 5] ^= 0x20;
        writeFile(segPath(dir, head), file);
        ASSERT_TRUE(expectRejectedOrSalvagedToHead(dir, "unsealed keyframe"));
        EXPECT_GT(RingArchiveReader::open(dir).segments().front().index, head);
        std::filesystem::remove_all(dir);
    }
    {
        // Re-sealed: the scan accepts it; the delta after it carries
        // the memory hash that rejects the rebuilt image.
        const std::string dir = chainedRing("delorean-chain-keyframe");
        editRingImage(segPath(dir, head), [](std::vector<std::uint8_t> &raw) {
            const std::size_t v = firstValueAt(raw, 0);
            putU64At(raw, v, u64At(raw, v) ^ 1);
        });
        const RingArchiveReader ring = RingArchiveReader::open(dir);
        ASSERT_TRUE(ring.recovery().clean);
        expectSegmentError([&] { ring.checkpointAt(head + 1); }, head + 1,
                           "memory hash mismatch");
        std::filesystem::remove_all(dir);
    }
}

TEST(ChainFaults, RingDeltaWithForgedBaseGccIsDroppedAtScan)
{
    const std::size_t delta = headWithDelta(chainedRecording()) + 1;
    ASSERT_GT(delta, 1u);
    const std::string dir = chainedRing("delorean-chain-base");
    editRingImage(segPath(dir, delta), [](std::vector<std::uint8_t> &raw) {
        const std::size_t b =
            fieldsAt(raw, 0, serialize_detail::ImageKind::kDelta);
        putU64At(raw, b, u64At(raw, b) + 1);
    });
    const RingArchiveReader ring = RingArchiveReader::open(dir);
    const std::vector<std::string> &notes = ring.recovery().notes;
    EXPECT_NE(std::find(notes.begin(), notes.end(),
                        std::filesystem::path(segPath(dir, delta))
                                .filename()
                                .string()
                            + ": end checkpoint disagrees with the header"),
              notes.end());
    expectRejectedOrSalvagedToHead(dir, "forged base GCC");
    std::filesystem::remove_all(dir);
}

TEST(ChainFaults, RingDeltaWithForgedMemoryHashFailsItsRebuild)
{
    const std::size_t delta = headWithDelta(chainedRecording()) + 1;
    ASSERT_GT(delta, 1u);
    const std::string dir = chainedRing("delorean-chain-hash");
    editRingImage(segPath(dir, delta), [](std::vector<std::uint8_t> &raw) {
        putU64At(raw, raw.size() - 8, u64At(raw, raw.size() - 8) + 1);
    });
    const RingArchiveReader ring = RingArchiveReader::open(dir);
    ASSERT_TRUE(ring.recovery().clean);
    EXPECT_NO_THROW(ring.checkpointAt(delta - 1));
    for (const auto &read :
         {std::function<void()>([&] { ring.checkpointAt(delta); }),
          std::function<void()>([&] { ring.readInterval(delta - 1, delta); }),
          std::function<void()>([&] { ring.readAll(); })})
        expectSegmentError(read, delta, "memory hash mismatch");
    std::filesystem::remove_all(dir);
}

/**
 * A crash while a chain-head file is written: that file torn, and none
 * after it. Salvage drops only the torn file, so the window ends at the
 * previous file's checkpoint and replays identically. With a mid-chain
 * file deleted as well, as kEvictedGap does, the ring is rejected
 * typed or salvaged to a chain head whose window replays identically.
 */
TEST(ChainFaults, RingMidChainGapAndTornChainHead)
{
    const Recording &rec = chainedRecording();
    std::vector<std::size_t> heads;   // chain-head files after file 0
    std::vector<std::size_t> members; // mid-chain files
    for (std::size_t i = 1; i < rec.checkpoints.size(); ++i)
        (rec.checkpoints[i].memory.headsChain() ? heads : members)
            .push_back(i);
    ASSERT_GE(heads.size(), 2u);
    ASSERT_FALSE(members.empty());
    const auto crash_at = [&rec](const std::string &dir, std::size_t head) {
        for (std::size_t id = head + 1; id <= rec.checkpoints.size(); ++id)
            std::filesystem::remove(segPath(dir, id));
        const std::string torn = segPath(dir, head);
        std::filesystem::resize_file(torn,
                                     std::filesystem::file_size(torn) / 2);
    };

    for (const std::size_t head : heads) {
        const std::string label = "torn head " + std::to_string(head);
        const std::string dir = chainedRing("delorean-chain-torn");
        crash_at(dir, head);
        ASSERT_TRUE(expectRejectedOrSalvagedToHead(dir, label));
        const RingArchiveReader ring = RingArchiveReader::open(dir);
        EXPECT_FALSE(ring.recovery().clean) << label;
        EXPECT_EQ(ring.recovery().droppedSegments, 1u) << label;
        EXPECT_EQ(ring.checkpointGccs().back(),
                  rec.checkpoints[head - 1].gcc)
            << label;
        std::filesystem::remove_all(dir);
    }

    std::size_t salvaged = 0;
    std::size_t rejected = 0;
    for (const std::size_t gap : members) {
        for (const std::size_t head : heads) {
            const std::string dir = chainedRing("delorean-chain-gap");
            crash_at(dir, head);
            std::filesystem::remove(segPath(dir, gap));
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
