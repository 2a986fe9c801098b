/**
 * @file
 * Ring archive (src/store/ring): always-on recording into a rotating
 * segmented directory. Byte-compatibility with the `.dla` container,
 * disk-budget eviction, the bounded replay-start-lag contract, and
 * crash-consistent recovery from torn tails, gaps and stale indices.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iomanip>
#include <fstream>
#include <sstream>

#include "core/delorean.hpp"
#include "core/serialize.hpp"
#include "core/serialize_detail.hpp"
#include "store/archive.hpp"
#include "store/ring.hpp"
#include "trace/app_profile.hpp"

#include "container_bytes.hpp"

namespace delorean
{
namespace
{

using test::putU64At;
using test::readFile;
using test::recordImageAt;
using test::u64At;
using test::writeFile;

MachineConfig
machine(unsigned procs = 4)
{
    MachineConfig m;
    m.numProcs = procs;
    return m;
}

ReplayPerturbation
perturb(std::uint64_t seed)
{
    ReplayPerturbation p;
    p.enabled = true;
    p.seed = seed;
    return p;
}

std::vector<std::pair<std::string, ModeConfig>>
allModes()
{
    ModeConfig stratified = ModeConfig::orderOnly();
    stratified.stratifyChunksPerProc = 4;
    return {
        {"OrderAndSize", ModeConfig::orderAndSize()},
        {"OrderOnly", ModeConfig::orderOnly()},
        {"OrderOnlyStratified", stratified},
        {"PicoLog", ModeConfig::picoLog()},
    };
}

std::string
savedBytes(const Recording &rec)
{
    std::ostringstream out(std::ios::binary);
    saveRecording(rec, out);
    return std::move(out).str();
}

std::vector<std::uint8_t>
archiveBytes(const Recording &rec)
{
    const std::string s = savedBytes(rec);
    return std::vector<std::uint8_t>(s.begin(), s.end());
}

std::string
imageBytes(const SystemCheckpoint &ckpt)
{
    return serialize_detail::encodeKeyframe(ckpt);
}

/** Fresh scratch ring directory under the test temp dir. */
std::string
ringDir(const std::string &name)
{
    const std::string dir = testing::TempDir() + "ring_" + name;
    std::filesystem::remove_all(dir);
    return dir;
}

Recording
record(const ModeConfig &mode, const std::string &app,
       std::uint64_t period, RingArchiveWriter *writer = nullptr)
{
    Workload w(app, 4, 9, WorkloadScale::tiny());
    Recorder recorder(mode, machine());
    if (!writer)
        return recorder.record(w, 1, true, {}, period);
    return recorder.record(w, 1, true, {}, period,
                           [writer](const Recording &r) {
                               writer->onCheckpoint(r);
                           });
}

/** Path of the newest (largest-id) segment file in @p dir. */
std::string
newestSegmentPath(const std::string &dir)
{
    std::string best;
    for (const auto &entry :
         std::filesystem::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("seg-", 0) == 0
            && (best.empty()
                || name > std::filesystem::path(best)
                              .filename()
                              .string()))
            best = entry.path().string();
    }
    return best;
}

/**
 * A segment whose image is CRC-valid but names the wrong GCC is
 * dropped by the open-time scan, which checks the image header against
 * the record header without decoding the image's memory. Salvage then
 * keeps the run from the next chain head file on.
 */
TEST(Ring, EndImageNamingWrongGccIsDroppedAtScan)
{
    const std::string dir = ringDir("end_gcc");
    RingOptions opts;
    opts.budgetBytes = 1u << 30;
    opts.checkpointPeriod = 10;
    writeRing(record(ModeConfig::orderOnly(), "ocean", 10), dir, opts);
    const RingArchiveReader intact = RingArchiveReader::open(dir);
    std::size_t head = 2;
    while (head < intact.segments().size()
           && !intact.segments()[head].chainHead())
        ++head;
    ASSERT_LT(head, intact.segments().size());

    // The file before that head: its image's lead opens with its GCC.
    std::ostringstream name;
    name << "seg-" << std::setw(12) << std::setfill('0') << head - 1;
    const std::string path = dir + "/" + name.str();
    std::vector<std::uint8_t> file = readFile(path);
    ASSERT_EQ(u64At(file, recordImageAt(0)),
              u64At(file, test::record::kEndGcc));
    putU64At(file, recordImageAt(0), u64At(file, recordImageAt(0)) + 1);
    test::resealRecord(file, 0);
    writeFile(path, file);

    const RingArchiveReader ring = RingArchiveReader::open(dir);
    EXPECT_GE(ring.recovery().droppedSegments, 1u);
    const std::vector<std::string> &notes = ring.recovery().notes;
    EXPECT_NE(std::find(notes.begin(), notes.end(),
                        name.str()
                            + ": end checkpoint disagrees with the header"),
              notes.end());
    EXPECT_EQ(ring.segments().front().index, head);
    std::filesystem::remove_all(dir);
}

TEST(Ring, OptionsRejectInfeasibleConfigs)
{
    RingOptions opts;
    opts.checkpointPeriod = 0;
    EXPECT_THROW(opts.validate(), ConfigError);
    EXPECT_THROW(RingArchiveWriter(ringDir("infeasible"), opts),
                 ConfigError);

    opts = RingOptions{};
    opts.budgetBytes = 0;
    EXPECT_THROW(opts.validate(), ConfigError);

    // The replay-start lag bound follows from the period: T = 2P.
    opts = RingOptions{};
    opts.checkpointPeriod = 50;
    EXPECT_NO_THROW(opts.validate());
    EXPECT_EQ(opts.resolvedLag(), 100u);
}

TEST(Ring, CleanRoundTripMatchesBatchArchiveAllModes)
{
    // With a budget large enough to evict nothing, a cleanly closed
    // ring is just the `.dla` archive in directory clothing: readAll
    // and every interval view must be byte-identical to saveRecording's
    // `.dla` of the same recording.
    for (const auto &[mode_name, mode] : allModes()) {
        const std::string dir = ringDir("clean_" + mode_name);
        RingOptions opts;
        opts.budgetBytes = 1u << 30;
        opts.checkpointPeriod = 20;
        RingArchiveWriter writer(dir, opts);
        const Recording rec = record(mode, "radix", 20, &writer);
        writer.close(rec);
        EXPECT_TRUE(writer.closed());
        ASSERT_GE(rec.checkpoints.size(), 2u) << mode_name;

        const RingWriterStats stats = writer.stats();
        EXPECT_EQ(stats.segmentsCut, rec.checkpoints.size() + 1);
        EXPECT_EQ(stats.segmentsEvicted, 0u);
        EXPECT_LE(stats.worstStartLag, opts.resolvedLag())
            << mode_name;

        ASSERT_TRUE(RingArchiveReader::looksLikeRing(dir));
        const RingArchiveReader ring = RingArchiveReader::open(dir);
        EXPECT_TRUE(ring.recovery().usedIndex) << mode_name;
        EXPECT_TRUE(ring.recovery().clean) << mode_name;
        EXPECT_EQ(ring.recovery().droppedSegments, 0u);
        EXPECT_EQ(ring.appName(), "radix");
        EXPECT_EQ(ring.checkpointCount(), rec.checkpoints.size());

        // Images are decoded on first use: GCCs come from the segment
        // headers, every image equals the recorded checkpoint, and a
        // repeated lookup returns the memoized object.
        std::vector<std::uint64_t> gccs;
        for (const SystemCheckpoint &ckpt : rec.checkpoints)
            gccs.push_back(ckpt.gcc);
        EXPECT_EQ(ring.checkpointGccs(), gccs) << mode_name;
        for (std::size_t i = 0; i < ring.checkpointCount(); ++i) {
            const SystemCheckpoint &got = ring.checkpointAt(i);
            const SystemCheckpoint &want = rec.checkpoints[i];
            EXPECT_EQ(got.gcc, want.gcc) << mode_name;
            EXPECT_EQ(got.committedChunks, want.committedChunks);
            EXPECT_TRUE(got.memory == want.memory) << mode_name;
            EXPECT_EQ(imageBytes(got), imageBytes(want)) << mode_name;
            EXPECT_EQ(&ring.checkpointAt(i), &got) << mode_name;
        }

        EXPECT_EQ(savedBytes(ring.readAll()), savedBytes(rec))
            << mode_name;

        const ArchiveReader batch =
            ArchiveReader::fromBytes(archiveBytes(rec));
        for (std::size_t i = 0; i < ring.checkpointCount(); ++i) {
            EXPECT_EQ(ring.checkpointAt(i).gcc,
                      batch.checkpointAt(i).gcc);
            EXPECT_EQ(savedBytes(ring.readInterval(i)),
                      savedBytes(batch.readInterval(i)))
                << mode_name << " checkpoint " << i;
            if (i + 1 < ring.checkpointCount()) {
                EXPECT_EQ(savedBytes(ring.readInterval(i, i + 1)),
                          savedBytes(batch.readInterval(i, i + 1)))
                    << mode_name << " interval " << i;
            }
        }
        EXPECT_EQ(savedBytes(ring.readInterval(0, 2)),
                  savedBytes(batch.readInterval(0, 2)))
            << mode_name;
        std::filesystem::remove_all(dir);
    }
}

TEST(Ring, WriteRingConvenienceAndMisuse)
{
    const std::string dir = ringDir("misuse");
    const Recording rec = record(ModeConfig::orderOnly(), "fft", 20);
    const RingWriterStats stats = writeRing(rec, dir, RingOptions{});
    EXPECT_EQ(stats.segmentsCut, rec.checkpoints.size() + 1);

    RingArchiveWriter writer(ringDir("misuse2"), RingOptions{});
    writer.close(rec);
    EXPECT_THROW(writer.onCheckpoint(rec), std::logic_error);
    EXPECT_THROW(writer.close(rec), std::logic_error);

    Recording shuffled = rec;
    ASSERT_GE(shuffled.checkpoints.size(), 2u);
    std::swap(shuffled.checkpoints.front(),
              shuffled.checkpoints.back());
    RingArchiveWriter strict(ringDir("misuse3"), RingOptions{});
    EXPECT_THROW(strict.onCheckpoint(shuffled),
                 RecordingFormatError);
    std::filesystem::remove_all(dir);
}

TEST(Ring, EvictionKeepsNewestWindowDecodable)
{
    // A budget that can hold only a few segments: old history must be
    // evicted, every retained interval must still match the batch
    // archive's view of the same checkpoints, and the replay-start
    // lag contract must hold throughout.
    const std::string dir = ringDir("evict");
    RingOptions opts;
    // Checkpoints are stored as chains of deltas after a keyframe, so
    // a chain head file is many times the size of the files after it:
    // this holds only the newest chain (GCC 300 on) of a 43-segment
    // run.
    opts.budgetBytes = 128u << 10;
    opts.checkpointPeriod = 10;
    RingArchiveWriter writer(dir, opts);
    const Recording rec =
        record(ModeConfig::orderAndSize(), "ocean", 10, &writer);
    writer.close(rec);
    ASSERT_GE(rec.checkpoints.size(), 6u);

    const RingWriterStats stats = writer.stats();
    EXPECT_GT(stats.segmentsEvicted, 0u);
    EXPECT_LE(stats.worstStartLag, opts.resolvedLag());
    EXPECT_LE(stats.maxCheckpointSpacing, opts.checkpointPeriod);

    const RingArchiveReader ring = RingArchiveReader::open(dir);
    // Whole chains are evicted: the retained run opens with a chain
    // head, and it is over budget only when the protected newest
    // chain alone is.
    ASSERT_TRUE(ring.segments().front().chainHead());
    const auto heads = std::count_if(
        ring.segments().begin(), ring.segments().end(),
        [](const ArchiveSegmentInfo &seg) { return seg.chainHead(); });
    if (heads > 1) {
        EXPECT_LE(stats.liveBytes, opts.budgetBytes);
    }
    EXPECT_TRUE(ring.recovery().clean);
    EXPECT_GT(ring.startGcc(), 0u);
    ASSERT_GE(ring.checkpointCount(), 2u);

    // Ring checkpoints are a contiguous suffix of the recording's;
    // views must agree with the `.dla` archive at the same GCCs.
    const ArchiveReader batch =
        ArchiveReader::fromBytes(archiveBytes(rec));
    const std::uint64_t first_gcc = ring.checkpointAt(0).gcc;
    std::size_t off = 0;
    while (off < batch.checkpointCount()
           && batch.checkpointAt(off).gcc != first_gcc)
        ++off;
    ASSERT_LT(off, batch.checkpointCount());
    for (std::size_t i = 0; i < ring.checkpointCount(); ++i) {
        ASSERT_EQ(ring.checkpointAt(i).gcc,
                  batch.checkpointAt(off + i).gcc);
        EXPECT_EQ(savedBytes(ring.readInterval(i)),
                  savedBytes(batch.readInterval(off + i)))
            << "checkpoint " << i;
    }

    // The whole run is gone; say so with a typed error.
    EXPECT_THROW(ring.readAll(), CheckpointOutOfRangeError);
    std::filesystem::remove_all(dir);
}

TEST(Ring, TailHeadingItsChainKeepsTheChainBefore)
{
    // A run whose last checkpoint heads a chain ends in a tail file
    // holding that checkpoint alone. Evicting every older chain to
    // meet the budget would leave nothing to seek, so the ring keeps
    // the chain before it and counts the overrun.
    Recording rec = record(ModeConfig::orderAndSize(), "ocean", 10);
    std::vector<std::size_t> heads;
    for (std::size_t i = 0; i < rec.checkpoints.size(); ++i)
        if (rec.checkpoints[i].memory.headsChain())
            heads.push_back(i);
    ASSERT_GE(heads.size(), 3u);
    rec.checkpoints.resize(heads.back() + 1);
    const std::size_t kept = heads[heads.size() - 2];

    const std::string dir = ringDir("tail_head");
    RingOptions opts;
    opts.budgetBytes = 1;
    opts.checkpointPeriod = 10;
    const RingWriterStats stats = writeRing(rec, dir, opts);
    EXPECT_GT(stats.segmentsEvicted, 0u);
    EXPECT_GT(stats.budgetOverruns, 0u);

    const RingArchiveReader ring = RingArchiveReader::open(dir);
    ASSERT_EQ(ring.checkpointCount(), heads.back() - kept + 1);
    EXPECT_EQ(ring.checkpointAt(0).gcc, rec.checkpoints[kept].gcc);
    const ArchiveReader batch =
        ArchiveReader::fromBytes(archiveBytes(rec));
    for (std::size_t i = 0; i < ring.checkpointCount(); ++i)
        EXPECT_EQ(savedBytes(ring.readInterval(i)),
                  savedBytes(batch.readInterval(kept + i)))
            << "checkpoint " << i;
    std::filesystem::remove_all(dir);
}

TEST(Ring, TimeTravelSeekAndReplay)
{
    const std::string dir = ringDir("seek");
    RingOptions opts;
    opts.checkpointPeriod = 15;
    RingArchiveWriter writer(dir, opts);
    Workload w("radix", 4, 9, WorkloadScale::tiny());
    Recorder recorder(ModeConfig::orderOnly(), machine());
    const Recording rec = recorder.record(
        w, 1, true, {}, 15,
        [&writer](const Recording &r) { writer.onCheckpoint(r); });
    writer.close(rec);
    ASSERT_GE(rec.checkpoints.size(), 3u);

    const RingArchiveReader ring = RingArchiveReader::open(dir);
    const std::vector<std::uint64_t> gccs = ring.checkpointGccs();

    // Exact hits, between-checkpoint cycles, and beyond-the-end all
    // resolve to the newest checkpoint at or before the cycle.
    EXPECT_EQ(ring.newestCheckpointAtOrBefore(gccs[0]), 0u);
    EXPECT_EQ(ring.newestCheckpointAtOrBefore(gccs[1] + 1), 1u);
    EXPECT_EQ(ring.newestCheckpointAtOrBefore(~0ull),
              gccs.size() - 1);
    EXPECT_THROW(ring.newestCheckpointAtOrBefore(gccs[0] - 1),
                 CheckpointOutOfRangeError);

    // Time-travel replay: seek, decode the bounded interval, replay
    // forward and judge against the stop checkpoint.
    const std::size_t idx =
        ring.newestCheckpointAtOrBefore(gccs[1] + 3);
    const Recording view = ring.readInterval(idx, idx + 1);
    ASSERT_EQ(view.checkpoints.size(), 2u);
    Replayer replayer;
    const ReplayOutcome out = replayer.replayInterval(
        view, 0, w, 77, perturb(5), &view.checkpoints[1]);
    EXPECT_TRUE(out.deterministicExact);
    EXPECT_EQ(out.fingerprint.commits.size(), gccs[2] - gccs[1]);
    std::filesystem::remove_all(dir);
}

TEST(Ring, TornTailSalvageKeepsBoundedReads)
{
    // Kill-mid-segment crash shape: the newest segment file is torn.
    // Recovery must drop exactly that file, flag the ring unclean,
    // and keep every bounded interval over the surviving window
    // byte-identical to the `.dla` archive's.
    const std::string dir = ringDir("torn");
    RingOptions opts;
    opts.checkpointPeriod = 15;
    RingArchiveWriter writer(dir, opts);
    const Recording rec =
        record(ModeConfig::orderAndSize(), "fft", 15, &writer);
    writer.close(rec);
    ASSERT_GE(rec.checkpoints.size(), 3u);

    const std::string tail = newestSegmentPath(dir);
    ASSERT_FALSE(tail.empty());
    const auto size = std::filesystem::file_size(tail);
    ASSERT_GT(size, 8u);
    std::filesystem::resize_file(tail, size - 7);

    const RingArchiveReader ring = RingArchiveReader::open(dir);
    EXPECT_FALSE(ring.recovery().clean);
    EXPECT_FALSE(ring.recovery().usedIndex); // index is stale now
    EXPECT_GE(ring.recovery().droppedSegments, 1u);
    ASSERT_GE(ring.checkpointCount(), 2u);

    // A crashed recorder never knew the run's final stats, so the
    // salvaged views carry zeroed finals; everything else — logs,
    // checkpoints, commits — must be byte-identical to the batch
    // archive's view of the same interval.
    const ArchiveReader batch =
        ArchiveReader::fromBytes(archiveBytes(rec));
    Workload w("fft", 4, 9, WorkloadScale::tiny());
    Replayer replayer;
    for (std::size_t i = 0; i + 1 < ring.checkpointCount(); ++i) {
        Recording view = ring.readInterval(i, i + 1);
        const Recording want = batch.readInterval(i, i + 1);
        EXPECT_EQ(view.fingerprint.finalMemHash, 0u);
        view.fingerprint.perProcAcc = want.fingerprint.perProcAcc;
        view.fingerprint.perProcRetired =
            want.fingerprint.perProcRetired;
        view.fingerprint.finalMemHash = want.fingerprint.finalMemHash;
        EXPECT_EQ(savedBytes(view), savedBytes(want))
            << "checkpoint " << i;

        // And the salvaged view replays deterministically.
        const ReplayOutcome out = replayer.replayInterval(
            view, 0, w, 55 + i, perturb(i + 1),
            &view.checkpoints[1]);
        EXPECT_TRUE(out.deterministicExact) << "checkpoint " << i;
    }

    // No finals without a clean close: unbounded reads are refused
    // with a typed error instead of fabricating stats.
    EXPECT_THROW(ring.readInterval(0), ArchiveError);
    EXPECT_THROW(ring.readAll(), ArchiveError);
    std::filesystem::remove_all(dir);
}

TEST(Ring, GapSalvageKeepsNewestContiguousRun)
{
    const std::string dir = ringDir("gap");
    RingOptions opts;
    opts.checkpointPeriod = 12;
    RingArchiveWriter writer(dir, opts);
    const Recording rec =
        record(ModeConfig::orderOnly(), "lu", 12, &writer);
    writer.close(rec);
    const RingArchiveReader before = RingArchiveReader::open(dir);
    const std::size_t total = before.segments().size();
    ASSERT_GE(total, 4u);

    // Punch a hole in the middle: everything older than the gap is
    // unreachable (its end checkpoint chain is broken), and so is every
    // file after it up to the next chain head, whose keyframe the
    // deltas before it would need.
    const std::uint64_t victim = before.segments()[1].index;
    std::size_t head = 2;
    while (head < total && !before.segments()[head].chainHead())
        ++head;
    ASSERT_LT(head, total);
    std::ostringstream name;
    name << "seg-" << std::setw(12) << std::setfill('0') << victim;
    ASSERT_TRUE(
        std::filesystem::remove(dir + "/" + name.str()));

    const RingArchiveReader ring = RingArchiveReader::open(dir);
    EXPECT_FALSE(ring.recovery().usedIndex);
    EXPECT_EQ(ring.segments().size(), total - head);
    EXPECT_EQ(ring.recovery().droppedSegments, head - 1);
    EXPECT_EQ(ring.segments().front().index,
              before.segments()[head].index);
    // Still clean-decodable after the cut: the index no longer
    // matches, so finals are dropped, but bounded reads survive.
    ASSERT_GE(ring.checkpointCount(), 1u);
    EXPECT_NO_THROW(ring.readInterval(0, ring.checkpointCount() - 1));
    std::filesystem::remove_all(dir);
}

TEST(Ring, ZeroCheckpointRecording)
{
    // No checkpoints at all: one tail segment, no replay starting
    // points, but a cleanly closed ring still reconstructs the run.
    const std::string dir = ringDir("zero");
    const Recording rec = record(ModeConfig::picoLog(), "fft", 0);
    ASSERT_TRUE(rec.checkpoints.empty());
    writeRing(rec, dir, RingOptions{});

    const RingArchiveReader ring = RingArchiveReader::open(dir);
    EXPECT_TRUE(ring.recovery().clean);
    EXPECT_EQ(ring.checkpointCount(), 0u);
    EXPECT_EQ(savedBytes(ring.readAll()), savedBytes(rec));
    EXPECT_THROW(ring.readInterval(0), CheckpointOutOfRangeError);
    EXPECT_THROW(ring.newestCheckpointAtOrBefore(~0ull),
                 CheckpointOutOfRangeError);
    std::filesystem::remove_all(dir);
}

TEST(Ring, OpenRejectsNonRingDirectories)
{
    EXPECT_FALSE(RingArchiveReader::looksLikeRing(
        testing::TempDir() + "no_such_ring_dir"));
    EXPECT_THROW(RingArchiveReader::open(testing::TempDir()
                                         + "no_such_ring_dir"),
                 ArchiveError);

    // A directory whose meta is garbage is typed, not UB.
    const std::string dir = ringDir("garbage");
    std::filesystem::create_directories(dir);
    std::ofstream(dir + "/ring.meta", std::ios::binary)
        << "not a ring at all, sorry";
    EXPECT_FALSE(RingArchiveReader::looksLikeRing(dir));
    EXPECT_THROW(RingArchiveReader::open(dir), ArchiveError);
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace delorean
