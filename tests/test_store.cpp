/**
 * @file
 * Archive container (src/store): segmented, compressed,
 * checkpoint-indexed storage for recordings. Round-trip byte
 * identity, O(1) checkpoint seek, and interval replay that decodes
 * only the segments covering the requested GCC interval.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <fstream>
#include <sstream>

#include "common/errors.hpp"
#include "core/delorean.hpp"
#include "core/serialize.hpp"
#include "core/serialize_detail.hpp"
#include "store/archive.hpp"
#include "store/crc32.hpp"
#include "store/ring.hpp"
#include "trace/app_profile.hpp"

#include "container_bytes.hpp"

namespace delorean
{
namespace
{

using test::putU64At;
using test::rawFooter;
using test::readFile;
using test::resealRecord;
using test::u64At;

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

/**
 * Open the container at @p path on the zero-copy mmap path, or
 * buffered: the file read into memory and parsed through fromBytes.
 */
ArchiveReader
openArchive(const std::string &path, unsigned threads, bool mmap_reads)
{
    const ArchiveIoOptions io{threads};
    return mmap_reads ? ArchiveReader::fromFile(path, io)
                      : ArchiveReader::fromBytes(readFile(path), io);
}

std::string
imageBytes(const SystemCheckpoint &ckpt)
{
    return serialize_detail::encodeKeyframe(ckpt);
}

/**
 * Images are decoded on first use: the GCC list comes from the index,
 * every decoded image equals the recorded checkpoint (GCC, contexts,
 * committed chunks, memory), and a repeated lookup returns the
 * memoized object.
 */
void
expectLazyImagesMatch(const ArchiveReader &reader, const Recording &rec,
                      const std::string &label)
{
    std::vector<std::uint64_t> gccs;
    for (const SystemCheckpoint &ckpt : rec.checkpoints)
        gccs.push_back(ckpt.gcc);
    EXPECT_EQ(reader.checkpointGccs(), gccs) << label;
    for (std::size_t i = 0; i < rec.checkpoints.size(); ++i) {
        const SystemCheckpoint &got = reader.checkpointAt(i);
        const SystemCheckpoint &want = rec.checkpoints[i];
        EXPECT_EQ(got.gcc, want.gcc) << label << " checkpoint " << i;
        EXPECT_EQ(got.committedChunks, want.committedChunks) << label;
        EXPECT_TRUE(got.memory == want.memory) << label;
        // Contexts and the rest of the image, padding-insensitively.
        EXPECT_EQ(imageBytes(got), imageBytes(want)) << label;
        EXPECT_EQ(&reader.checkpointAt(i), &got) << label;
    }
}

/** Archive -> readAll must be byte-identical under saveRecording. */
void
expectRoundTripAllApps(const ModeConfig &mode, const char *mode_name)
{
    for (const std::string &app : AppTable::splash2Names()) {
        Workload w(app, 4, 9, WorkloadScale::tiny());
        Recorder recorder(mode, machine());
        const Recording rec = recorder.record(w, 1, true, {}, 20);

        const ArchiveReader reader =
            ArchiveReader::fromBytes(archiveBytes(rec));
        ASSERT_EQ(reader.checkpointCount(), rec.checkpoints.size())
            << mode_name << "/" << app;
        expectLazyImagesMatch(reader, rec,
                              std::string(mode_name) + "/" + app);
        const Recording back = reader.readAll();
        EXPECT_TRUE(savedBytes(back) == savedBytes(rec))
            << mode_name << "/" << app;
    }
}

TEST(Store, RoundTripByteIdentityOrderAndSize)
{
    expectRoundTripAllApps(ModeConfig::orderAndSize(), "OrderAndSize");
}

TEST(Store, RoundTripByteIdentityOrderOnly)
{
    expectRoundTripAllApps(ModeConfig::orderOnly(), "OrderOnly");
}

TEST(Store, RoundTripByteIdentityStratified)
{
    ModeConfig mode = ModeConfig::orderOnly();
    mode.stratifyChunksPerProc = 4;
    expectRoundTripAllApps(mode, "OrderOnlyStratified");
}

TEST(Store, RoundTripByteIdentityPicoLog)
{
    expectRoundTripAllApps(ModeConfig::picoLog(), "PicoLog");
}

TEST(Store, RoundTripWithSystemActivity)
{
    // Interrupts, I/O loads and DMA transfers crossing segment
    // boundaries must land in the right segments.
    for (const auto &[mode_name, mode] : allModes()) {
        Workload w("sweb2005", 4, 9, WorkloadScale{30});
        Recorder recorder(mode, machine());
        const Recording rec = recorder.record(w, 1, true, {}, 25);
        ASSERT_GT(rec.io.totalEntries(), 0u) << mode_name;
        ASSERT_GT(rec.dma.count(), 0u) << mode_name;

        const ArchiveReader reader =
            ArchiveReader::fromBytes(archiveBytes(rec));
        const Recording back = reader.readAll();
        EXPECT_TRUE(savedBytes(back) == savedBytes(rec)) << mode_name;
    }
}

TEST(Store, RoundTripWithoutCheckpoints)
{
    // No checkpoints -> a single tail segment; still byte-identical.
    Workload w("fft", 4, 9, WorkloadScale::tiny());
    Recorder recorder(ModeConfig::orderOnly(), machine());
    const Recording rec = recorder.record(w, 1);
    ASSERT_TRUE(rec.checkpoints.empty());

    const ArchiveReader reader =
        ArchiveReader::fromBytes(archiveBytes(rec));
    EXPECT_EQ(reader.checkpointCount(), 0u);
    EXPECT_EQ(savedBytes(reader.readAll()), savedBytes(rec));
}

TEST(Store, FooterIndexMetadata)
{
    Workload w("lu", 4, 9, WorkloadScale::tiny());
    Recorder recorder(ModeConfig::orderOnly(), machine());
    const Recording rec = recorder.record(w, 1, true, {}, 20);
    ASSERT_GE(rec.checkpoints.size(), 2u);

    const ArchiveReader reader =
        ArchiveReader::fromBytes(archiveBytes(rec));
    EXPECT_EQ(reader.appName(), "lu");
    EXPECT_EQ(reader.workloadSeed(), 9u);
    EXPECT_EQ(reader.machine().numProcs, 4u);
    EXPECT_EQ(reader.mode().mode, ExecMode::kOrderOnly);

    // Records = checkpoints + tail, back to back after the 16-byte
    // file header; each starts where the one before ends, and holds
    // its end checkpoint's image (a keyframe for record 0).
    const auto &segs = reader.segments();
    ASSERT_EQ(segs.size(), rec.checkpoints.size() + 1);
    for (std::size_t i = 0; i < rec.checkpoints.size(); ++i) {
        EXPECT_EQ(segs[i].endGcc, rec.checkpoints[i].gcc);
        EXPECT_TRUE(segs[i].hasCheckpoint);
        EXPECT_EQ(segs[i].keyframe, rec.checkpoints[i].memory.headsChain());
        EXPECT_EQ(reader.checkpointAt(i).gcc, rec.checkpoints[i].gcc);
    }
    EXPECT_TRUE(segs.front().keyframe);
    EXPECT_FALSE(segs.back().hasCheckpoint);
    EXPECT_EQ(segs.back().imageBytes, 0u);
    EXPECT_EQ(segs.front().fileOffset, 16u);
    for (std::size_t i = 0; i < segs.size(); ++i) {
        EXPECT_EQ(segs[i].index, i);
        EXPECT_EQ(segs[i].startGcc, i ? segs[i - 1].endGcc : 0);
        if (i > 0) {
            EXPECT_EQ(segs[i].fileOffset,
                      segs[i - 1].fileOffset + segs[i - 1].recordBytes);
        }
    }
}

/**
 * Interval replay straight off the archive: from every checkpoint, in
 * every mode, the decoded interval view must replay to the same
 * fingerprint as full replay of that interval.
 */
TEST(Store, IntervalReplayFromEveryCheckpointAllModes)
{
    // Pinned hash of saveRecording(readAll()) followed by every
    // saveRecording(readInterval(i, i + 1)), per mode: the views a
    // reader produces must not change with how it decodes images.
    // Re-pinned for .dlrec v3 (checkpoint chains) and for v4 (images
    // as gap lists and context diffs). The v2 pins were
    // 0x1e8f9fd0ec5b1ff2, 0xb1bceb8731e5d54e, 0x80994ccbdb0398f3 and
    // 0x91515f6d812085a8; the v3 pins 0x2a2b62a3844c8890,
    // 0x5ae5b69deab71991, 0x2906ea1df8cd248d and 0xd0a10fb4a5bd18bf.
    // Re-pinned when the `.dla` (v6) became the one recording file:
    // the `.dlrec` v4 encoder, run on each view these `.dla` bytes load
    // back to, still gives the v4 pins 0xd75ef50f1baf7f14,
    // 0x5d0626ed8b91088a, 0xcc582e6d01eafe1f and 0xb3b4b864e7197c91.
    const std::uint64_t view_hashes[] = {
        0x59cda8e53ae92348ull, 0x4435e139103d8d6bull,
        0x7f0ee95d733f0491ull, 0x174baafb31aba95eull};
    std::size_t mode_index = 0;
    for (const auto &[mode_name, mode] : allModes()) {
        Workload w("radix", 4, 9, WorkloadScale::tiny());
        Recorder recorder(mode, machine());
        const Recording rec = recorder.record(w, 1, true, {}, 20);
        ASSERT_GE(rec.checkpoints.size(), 1u) << mode_name;

        const ArchiveReader reader =
            ArchiveReader::fromBytes(archiveBytes(rec));
        std::string views = savedBytes(reader.readAll());
        for (std::size_t i = 0; i + 1 < reader.checkpointCount(); ++i)
            views += savedBytes(reader.readInterval(i, i + 1));
        EXPECT_EQ(hashBytes(views), view_hashes[mode_index++])
            << mode_name << std::hex << " view hash 0x"
            << hashBytes(views);
        expectLazyImagesMatch(reader, rec, mode_name);
        Replayer replayer;
        for (std::size_t i = 0; i < reader.checkpointCount(); ++i) {
            const Recording view = reader.readInterval(i);
            ASSERT_EQ(view.checkpoints.size(), 1u);
            const ReplayOutcome out = replayer.replayInterval(
                view, 0, w, 31 + i, perturb(i + 1));
            // Stratified replay may legally reorder commits inside a
            // stratum, so determinism is judged per-processor there.
            if (mode.stratifyChunksPerProc != 0)
                EXPECT_TRUE(out.deterministicPerProc)
                    << mode_name << " checkpoint " << i;
            else
                EXPECT_TRUE(out.deterministicExact)
                    << mode_name << " checkpoint " << i;
        }
    }
}

TEST(Store, BoundedIntervalReplayBetweenCheckpoints)
{
    Workload w("ocean", 4, 9, WorkloadScale::tiny());
    Recorder recorder(ModeConfig::orderOnly(), machine());
    const Recording rec = recorder.record(w, 1, true, {}, 15);
    ASSERT_GE(rec.checkpoints.size(), 3u);

    const ArchiveReader reader =
        ArchiveReader::fromBytes(archiveBytes(rec));
    Replayer replayer;
    const Recording view = reader.readInterval(0, 2);
    ASSERT_EQ(view.checkpoints.size(), 2u);
    const ReplayOutcome out = replayer.replayInterval(
        view, 0, w, 7, perturb(4), &view.checkpoints[1]);
    EXPECT_TRUE(out.deterministicExact);
    // Exactly the chunk commits between the two checkpoint GCCs.
    EXPECT_EQ(out.fingerprint.commits.size(),
              rec.checkpoints[2].gcc - rec.checkpoints[0].gcc);
}

TEST(Store, PicoLogBoundedIntervalsAllReplay)
{
    // PicoLog's replay round-robin skips only processors marked
    // finished, so a processor whose program ends inside a bounded
    // interval must still be marked finished at the stop cap, or the
    // round-robin waits on it forever. Every bounded interval of a few
    // 8-processor archives must replay deterministically.
    for (const char *app : {"radix~r2", "fft", "barnes", "ocean"}) {
        Workload w(app, 8, 1, WorkloadScale{5});
        Recorder recorder(ModeConfig::picoLog(), machine(8));
        const Recording rec = recorder.record(w, 1, true, {}, 25);
        ASSERT_GE(rec.checkpoints.size(), 2u) << app;

        const ArchiveReader reader =
            ArchiveReader::fromBytes(archiveBytes(rec));
        Replayer replayer;
        for (std::size_t i = 0; i < reader.checkpointCount(); ++i) {
            for (std::size_t j = i + 1; j < reader.checkpointCount();
                 ++j) {
                const Recording view = reader.readInterval(i, j);
                const ReplayOutcome out = replayer.replayInterval(
                    view, 0, w, 7, perturb(i + 1), &view.checkpoints[1]);
                EXPECT_TRUE(out.deterministicExact)
                    << app << " interval [" << i << ", " << j << ")";
            }
        }
    }
}

/**
 * Open checks every checkpoint image in its record without decoding
 * it. Records re-sealed with valid CRCs but a bad image must still be
 * rejected at open, as an error of that segment, with the same message
 * the eager decoder gave: a context count past 64, an image GCC that
 * disagrees with its record header, and a word list running past the
 * image.
 */
TEST(Store, RecordImageChecksFireAtOpen)
{
    Workload w("fft", 4, 9, WorkloadScale::tiny());
    const Recording rec =
        Recorder(ModeConfig::orderOnly(), machine()).record(w, 1, true,
                                                            {}, 20);
    ASSERT_GE(rec.checkpoints.size(), 2u);
    const std::vector<std::uint8_t> bytes = archiveBytes(rec);

    // Record 0's image: gcc, dmaConsumed, rrNext, context count,
    // context blocks, the word list's count and byte length, words.
    const ArchiveSegmentInfo seg =
        ArchiveReader::fromBytes(bytes).segments()[0];
    const std::size_t image = seg.imageOffset();
    const std::size_t procs = 4;
    ASSERT_EQ(u64At(bytes, image), seg.endGcc);
    ASSERT_EQ(u64At(bytes, image + 24), procs);
    const std::size_t words_at =
        image
        + serialize_detail::scanImage(serialize_detail::ImageKind::kKeyframe,
                                      bytes.data() + image,
                                      static_cast<std::size_t>(
                                          seg.imageBytes))
              .fieldsAt;

    struct Case
    {
        const char *what;
        std::size_t offset;
        std::uint64_t value;
        const char *message;
    };
    const Case cases[] = {
        {"context count 65", image + 24, 65,
         "checkpoint context count 65 outside [0, 64]"},
        {"GCC off the header", image, seg.endGcc + 1,
         "end checkpoint disagrees with the header"},
        {"word list past the image", words_at + 8, seg.imageBytes,
         "runs past its image"},
    };
    for (const Case &c : cases) {
        std::vector<std::uint8_t> bad = bytes;
        putU64At(bad, c.offset, c.value);
        resealRecord(bad, static_cast<std::size_t>(seg.fileOffset));
        try {
            ArchiveReader::fromBytes(bad);
            ADD_FAILURE() << c.what << " was accepted at open";
        } catch (const ArchiveError &e) {
            EXPECT_EQ(e.section(), ArchiveSection::kSegment) << c.what;
            EXPECT_EQ(e.segment(), 0u) << c.what;
            EXPECT_NE(std::string(e.what()).find(c.message),
                      std::string::npos)
                << c.what << ": " << e.what();
        }
    }
}

TEST(Store, IntervalViewDecodesOnlyCoveringSegments)
{
    // The interval view's logs must be strictly smaller than the full
    // recording's serialized form once the skipped prefix is real.
    Workload w("barnes", 4, 9, WorkloadScale::tiny());
    Recorder recorder(ModeConfig::orderAndSize(), machine());
    const Recording rec = recorder.record(w, 1, true, {}, 20);
    ASSERT_GE(rec.checkpoints.size(), 2u);

    const ArchiveReader reader =
        ArchiveReader::fromBytes(archiveBytes(rec));
    const std::size_t last = reader.checkpointCount() - 1;
    const Recording view = reader.readInterval(last);
    // CS entries for chunks committed before the start checkpoint are
    // not decoded (only the slices after the seek point are).
    std::size_t full_cs = 0;
    std::size_t view_cs = 0;
    for (unsigned p = 0; p < 4; ++p) {
        full_cs += rec.cs[p].entryCount();
        view_cs += view.cs[p].entryCount();
    }
    EXPECT_LT(view_cs, full_cs);
}

TEST(Store, ArchiveFileRoundTrip)
{
    Workload w("water-ns", 4, 9, WorkloadScale::tiny());
    Recorder recorder(ModeConfig::picoLog(), machine());
    const Recording rec = recorder.record(w, 1, true, {}, 25);

    const std::string path =
        ::testing::TempDir() + "store_roundtrip.dla";
    saveRecordingFile(rec, path);
    const ArchiveReader reader = ArchiveReader::fromFile(path);
    EXPECT_EQ(savedBytes(reader.readAll()), savedBytes(rec));
    std::remove(path.c_str());
}

TEST(Store, FileWritersReportAFullDevice)
{
    // A write to a full disk fails when the stream flushes its last
    // buffer, which for a small file is at close: the file writer must
    // report it instead of returning as if the file were saved.
    if (!std::filesystem::exists("/dev/full"))
        GTEST_SKIP() << "no /dev/full on this platform";
    Workload w("fft", 4, 9, WorkloadScale::tiny());
    const Recording rec =
        Recorder(ModeConfig::orderOnly(), machine()).record(w, 1);
    EXPECT_THROW(saveRecordingFile(rec, "/dev/full"),
                 std::runtime_error);
}

TEST(Store, WriterByteIdenticalAcrossIoThreads)
{
    // The parallel segment codec commits in segment order, so the
    // container bytes must not depend on the worker count — for any
    // mode, including the default (DELOREAN_JOBS-resolved) options.
    for (const auto &[mode_name, mode] : allModes()) {
        Workload w("radix", 4, 9, WorkloadScale::tiny());
        Recorder recorder(mode, machine());
        const Recording rec = recorder.record(w, 1, true, {}, 20);
        ASSERT_FALSE(rec.checkpoints.empty()) << mode_name;

        const auto archivedWith = [&rec](const ArchiveIoOptions &io) {
            std::ostringstream out(std::ios::binary);
            saveRecording(rec, out, io);
            return std::move(out).str();
        };
        const std::string serial =
            archivedWith(ArchiveIoOptions{1});
        for (const unsigned threads : {2u, 4u, 8u})
            EXPECT_EQ(archivedWith(ArchiveIoOptions{threads}),
                      serial)
                << mode_name << " ioThreads=" << threads;
        EXPECT_EQ(archivedWith(ArchiveIoOptions{}), serial)
            << mode_name << " default options";
    }
}

TEST(Store, FileReadsIdenticalAcrossMmapAndIoThreads)
{
    Workload w("ocean", 4, 9, WorkloadScale::tiny());
    Recorder recorder(ModeConfig::orderAndSize(), machine());
    const Recording rec = recorder.record(w, 1, true, {}, 20);
    ASSERT_GE(rec.checkpoints.size(), 2u);

    const std::string path =
        testing::TempDir() + "store_datapath_test.dla";
    saveRecordingFile(rec, path);
    const std::string expect = savedBytes(rec);

    for (const bool mmap_reads : {true, false}) {
        for (const unsigned threads : {1u, 2u, 4u, 8u}) {
            const ArchiveReader reader =
                openArchive(path, threads, mmap_reads);
            if (!mmap_reads) {
                EXPECT_FALSE(reader.usingMmap());
            } else if (MappedFile::supported()) {
                EXPECT_TRUE(reader.usingMmap());
            }
            ASSERT_EQ(savedBytes(reader.readAll()), expect)
                << "mmap=" << mmap_reads << " threads=" << threads;
        }
    }

    // Interval views must also agree byte-for-byte across the paths.
    const ArchiveReader mapped = openArchive(path, 4, true);
    const ArchiveReader buffered = openArchive(path, 1, false);
    const ArchiveReader in_memory = ArchiveReader::fromBytes(
        archiveBytes(rec), ArchiveIoOptions{2});
    EXPECT_FALSE(in_memory.usingMmap());
    for (std::size_t i = 0; i < mapped.checkpointCount(); ++i) {
        const std::string view = savedBytes(mapped.readInterval(i));
        EXPECT_EQ(view, savedBytes(buffered.readInterval(i))) << i;
        EXPECT_EQ(view, savedBytes(in_memory.readInterval(i))) << i;
    }
    std::remove(path.c_str());
}

TEST(Store, StreamingWriterByteIdenticalAllModes)
{
    // The archive writer fed one checkpoint at a time from the record
    // loop must emit exactly the bytes of the same writer fed the
    // whole recording at close() (saveRecording), at any codec worker
    // count: the two feed paths cut and batch segments differently,
    // and the keyframe/delta choice must not depend on either. The
    // same holds for the ring writer's directory (with a budget that
    // evicts whole chains), and both containers' bytes are the same
    // at every ioThreads.
    std::map<std::string, std::string> dla_bytes;
    std::map<std::string, std::string> ring_bytes;
    for (const auto &[mode_name, mode] : allModes()) {
        for (const unsigned threads : {1u, 2u, 4u}) {
            Workload w("radix", 4, 9, WorkloadScale::tiny());
            Recorder recorder(mode, machine());

            std::ostringstream streamed(std::ios::binary);
            StreamingArchiveWriter writer(streamed,
                                          ArchiveIoOptions{threads});
            const Recording rec = recorder.record(
                w, 1, true, {}, 20,
                [&writer](const Recording &r) {
                    writer.onCheckpoint(r);
                });
            writer.close(rec);
            EXPECT_TRUE(writer.closed());
            ASSERT_FALSE(rec.checkpoints.empty()) << mode_name;
            EXPECT_EQ(writer.segmentCount(),
                      rec.checkpoints.size() + 1)
                << mode_name;

            // Close-fed: no hook, every segment cut at close().
            std::ostringstream fed(std::ios::binary);
            StreamingArchiveWriter tail(fed, ArchiveIoOptions{threads});
            tail.close(rec);
            const std::string expect = std::move(fed).str();
            EXPECT_EQ(std::move(streamed).str(), expect)
                << mode_name << " hook-fed ioThreads=" << threads;

            // saveRecording is the close-fed writer.
            std::ostringstream written(std::ios::binary);
            saveRecording(rec, written, ArchiveIoOptions{threads});
            EXPECT_EQ(std::move(written).str(), expect)
                << mode_name << " saveRecording ioThreads=" << threads;
            if (dla_bytes.count(mode_name)) {
                EXPECT_EQ(dla_bytes[mode_name], expect)
                    << mode_name << " ioThreads=" << threads;
            }
            dla_bytes[mode_name] = expect;

            // The ring: hook-fed equals close-fed.
            RingOptions ropts;
            ropts.checkpointPeriod = 20;
            ropts.budgetBytes = 40000;
            ropts.io.ioThreads = threads;
            const std::string hook_dir =
                testing::TempDir() + "store_ring_hook_" + mode_name;
            const std::string close_dir =
                testing::TempDir() + "store_ring_close_" + mode_name;
            std::filesystem::remove_all(hook_dir);
            std::filesystem::remove_all(close_dir);
            RingArchiveWriter ring(hook_dir, ropts);
            const Recording again = Recorder(mode, machine())
                                        .record(w, 1, true, {}, 20,
                                                [&ring](const Recording &r) {
                                                    ring.onCheckpoint(r);
                                                });
            ring.close(again);
            EXPECT_GT(ring.stats().segmentsEvicted, 0u) << mode_name;
            RingArchiveWriter fed_ring(close_dir, ropts);
            fed_ring.close(again);
            const std::string ring_expect =
                test::ringDirBytes(close_dir);
            EXPECT_EQ(test::ringDirBytes(hook_dir), ring_expect)
                << mode_name << " ring hook-fed ioThreads=" << threads;
            if (ring_bytes.count(mode_name)) {
                EXPECT_EQ(ring_bytes[mode_name], ring_expect)
                    << mode_name << " ring ioThreads=" << threads;
            }
            ring_bytes[mode_name] = ring_expect;
            std::filesystem::remove_all(hook_dir);
            std::filesystem::remove_all(close_dir);
        }
    }
}

/**
 * The keyframe rule's bound, read back from both containers: the
 * stored images a rebuild reads — the chain's keyframe and every
 * delta up to the image — never exceed twice the keyframe's raw
 * bytes. The run is long enough to form several chains of both
 * kinds. The same bound holds in RAM: materializing any image of the
 * recording, or of a reader's readAll(), reads at most twice its
 * keyframe's bytes, and the recording's chains are the ones both
 * containers store.
 */
TEST(Store, ChainRebuildReadsAtMostTwoKeyframes)
{
    Workload w("ocean", 4, 9, WorkloadScale::tiny());
    const Recording rec = Recorder(ModeConfig::orderOnly(), machine())
                              .record(w, 1, true, {}, 10);
    ASSERT_GE(rec.checkpoints.size(), 10u);
    const auto check = [](const archive_detail::ContainerReader &reader,
                          const std::string &label) {
        std::size_t keyframes = 0;
        std::uint64_t keyframe_raw = 0;
        std::uint64_t read = 0;
        for (std::size_t i = 0; i < reader.checkpointCount(); ++i) {
            const ArchiveSegmentInfo &info = reader.segments()[i];
            if (info.keyframe) {
                ++keyframes;
                keyframe_raw = info.imageBytes;
                read = 0;
            } else {
                EXPECT_EQ(info.startGcc, reader.segments()[i - 1].endGcc)
                    << label << " checkpoint " << i;
            }
            read += info.imageBytes;
            EXPECT_LE(read, 2 * keyframe_raw)
                << label << " checkpoint " << i;
        }
        EXPECT_GE(keyframes, 2u) << label;
        EXPECT_LT(keyframes, reader.checkpointCount()) << label;
    };
    const ArchiveReader dla = ArchiveReader::fromBytes(archiveBytes(rec));
    check(dla, ".dla");

    const std::string dir = testing::TempDir() + "store_chain_bound";
    std::filesystem::remove_all(dir);
    RingOptions ropts;
    ropts.checkpointPeriod = 10;
    ropts.budgetBytes = 1u << 30;
    writeRing(rec, dir, ropts);
    const RingArchiveReader ring = RingArchiveReader::open(dir);
    ASSERT_EQ(ring.checkpointCount(), dla.checkpointCount());
    check(ring, "ring");
    for (std::size_t i = 0; i < ring.checkpointCount(); ++i) {
        EXPECT_EQ(ring.segments()[i].keyframe, dla.segments()[i].keyframe)
            << i;
        EXPECT_EQ(ring.segments()[i].imageBytes,
                  dla.segments()[i].imageBytes)
            << i;
    }

    const auto check_ram = [](const Recording &r, const std::string &label) {
        for (std::size_t i = 0; i < r.checkpoints.size(); ++i) {
            const test::ChainBytes bytes = test::chainBytes(r.checkpoints, i);
            EXPECT_LE(bytes.read, 2 * bytes.keyframe)
                << label << " checkpoint " << i;
        }
    };
    check_ram(rec, "recording");
    check_ram(dla.readAll(), ".dla readAll");
    check_ram(ring.readAll(), "ring readAll");
    for (std::size_t i = 0; i < rec.checkpoints.size(); ++i)
        EXPECT_EQ(rec.checkpoints[i].memory.headsChain(),
                  dla.segments()[i].keyframe)
            << i;
    std::filesystem::remove_all(dir);
}

/**
 * Each checkpoint image is stored exactly once in either container: a
 * ring file is byte for byte the `.dla`'s record of the same segment,
 * so the two hold the same images, and neither holds any other copy
 * (the bytes of all records, plus the `.dla`'s header, footer and
 * trailer, are the whole file). A recorded chain head keeps no delta.
 */
TEST(Store, EachCheckpointImageIsStoredOnce)
{
    for (const char *app : {"fft", "ocean", "sjbb2k"}) {
        for (const ModeConfig &mode :
             {ModeConfig::orderAndSize(), ModeConfig::orderOnly(),
              ModeConfig::picoLog()}) {
            const std::string label =
                std::string(app) + " " + modeConfigName(mode);
            Workload w(app, 4, 9, WorkloadScale::tiny());
            const Recording rec =
                Recorder(mode, machine()).record(w, 1, true, {}, 10);
            ASSERT_GE(rec.checkpoints.size(), 2u) << label;
            for (const SystemCheckpoint &ckpt : rec.checkpoints) {
                if (ckpt.memory.headsChain()) {
                    EXPECT_EQ(ckpt.memory.delta(), nullptr) << label;
                }
            }

            const std::vector<std::uint8_t> bytes = archiveBytes(rec);
            const ArchiveReader dla = ArchiveReader::fromBytes(bytes);
            const std::string dir = testing::TempDir() + "store_once";
            std::filesystem::remove_all(dir);
            RingOptions ropts;
            ropts.checkpointPeriod = 10;
            ropts.budgetBytes = 1u << 30;
            writeRing(rec, dir, ropts);
            const RingArchiveReader ring = RingArchiveReader::open(dir);
            ASSERT_EQ(ring.segments().size(), dla.segments().size())
                << label;
            ASSERT_EQ(ring.checkpointCount(), rec.checkpoints.size())
                << label;

            std::uint64_t records = 0;
            std::uint64_t dla_images = 0;
            std::uint64_t ring_images = 0;
            for (std::size_t i = 0; i < dla.segments().size(); ++i) {
                const ArchiveSegmentInfo &seg = dla.segments()[i];
                char name[32];
                std::snprintf(name, sizeof name, "/seg-%012zu", i);
                EXPECT_EQ(readFile(dir + name),
                          test::slice(bytes,
                                      static_cast<std::size_t>(seg.fileOffset),
                                      static_cast<std::size_t>(
                                          seg.recordBytes)))
                    << label << " segment " << i;
                records += seg.recordBytes;
                dla_images += seg.imageBytes;
                ring_images += ring.segments()[i].imageBytes;
            }
            for (std::size_t i = 0; i < rec.checkpoints.size(); ++i) {
                EXPECT_EQ(ring.segments()[i].imageBytes,
                          dla.segments()[i].imageBytes)
                    << label << " checkpoint " << i;
                EXPECT_EQ(dla.segments()[i].keyframe,
                          rec.checkpoints[i].memory.headsChain())
                    << label << " checkpoint " << i;
            }
            EXPECT_EQ(ring_images, dla_images) << label;
            EXPECT_EQ(16 + records + rawFooter(bytes).size()
                          + test::kDlaTrailerBytes,
                      bytes.size())
                << label;
            std::filesystem::remove_all(dir);
        }
    }
}

TEST(Store, StreamingFileReadbackAcrossDatapaths)
{
    // A hook-fed file must be indistinguishable from the recording it
    // streamed to every reader datapath: mmap and buffered, serial and
    // parallel decode.
    Workload w("ocean", 4, 9, WorkloadScale::tiny());
    Recorder recorder(ModeConfig::orderAndSize(), machine());
    const std::string path = testing::TempDir() + "store_streamed.dla";

    std::string expect;
    {
        std::ofstream file(path, std::ios::binary);
        StreamingArchiveWriter writer(file);
        const Recording rec = recorder.record(
            w, 1, true, {}, 20,
            [&writer](const Recording &r) { writer.onCheckpoint(r); });
        writer.close(rec);
        expect = savedBytes(rec);
    }
    for (const bool mmap_reads : {true, false}) {
        for (const unsigned threads : {1u, 4u}) {
            const ArchiveReader reader =
                openArchive(path, threads, mmap_reads);
            EXPECT_EQ(savedBytes(reader.readAll()), expect)
                << "mmap=" << mmap_reads << " threads=" << threads;
        }
    }
    std::remove(path.c_str());
}

TEST(Store, StreamingWriterRejectsOutOfOrderCheckpoints)
{
    Workload w("fft", 4, 9, WorkloadScale::tiny());
    Recorder recorder(ModeConfig::orderOnly(), machine());
    Recording rec = recorder.record(w, 1, true, {}, 15);
    ASSERT_GE(rec.checkpoints.size(), 2u);
    std::swap(rec.checkpoints.front(), rec.checkpoints.back());

    std::ostringstream out(std::ios::binary);
    StreamingArchiveWriter writer(out);
    EXPECT_THROW(writer.onCheckpoint(rec), RecordingFormatError);
    // saveRecording feeds the same writer at close().
    std::ostringstream whole(std::ios::binary);
    EXPECT_THROW(saveRecording(rec, whole), RecordingFormatError);
}

TEST(Store, StreamingWriterUseAfterCloseThrows)
{
    Workload w("lu", 4, 9, WorkloadScale::tiny());
    Recorder recorder(ModeConfig::picoLog(), machine());
    const Recording rec = recorder.record(w, 1, true, {}, 25);

    std::ostringstream out(std::ios::binary);
    StreamingArchiveWriter writer(out);
    writer.close(rec);
    EXPECT_TRUE(writer.closed());
    EXPECT_THROW(writer.onCheckpoint(rec), std::logic_error);
    EXPECT_THROW(writer.close(rec), std::logic_error);
}

TEST(Store, CheckpointOutOfRangeIsTyped)
{
    // An interval request naming a checkpoint the container does not
    // hold is an operator error, not container corruption: it must
    // surface as the dedicated subtype carrying the requested index
    // and what was actually available.
    Workload w("fft", 4, 9, WorkloadScale::tiny());
    Recorder recorder(ModeConfig::orderOnly(), machine());
    const Recording rec = recorder.record(w, 1, true, {}, 20);
    ASSERT_GE(rec.checkpoints.size(), 2u);
    const ArchiveReader reader =
        ArchiveReader::fromBytes(archiveBytes(rec));
    const std::size_t count = reader.checkpointCount();

    try {
        reader.checkpointAt(count);
        FAIL() << "expected CheckpointOutOfRangeError";
    } catch (const CheckpointOutOfRangeError &e) {
        EXPECT_EQ(e.index(), count);
        EXPECT_EQ(e.available(), count);
        EXPECT_EQ(e.section(), ArchiveSection::kCheckpointIndex);
    }
    try {
        reader.readInterval(count + 3);
        FAIL() << "expected CheckpointOutOfRangeError";
    } catch (const CheckpointOutOfRangeError &e) {
        EXPECT_EQ(e.index(), count + 3);
        EXPECT_EQ(e.available(), count);
    }
    // Inverted bounds are the same category.
    EXPECT_THROW(reader.readInterval(1, 1),
                 CheckpointOutOfRangeError);
    // And the subtype still lands in generic ArchiveError handlers.
    EXPECT_THROW(reader.checkpointAt(count), ArchiveError);
}

TEST(Store, StreamingWriterCloseDuringFlush)
{
    // close() must drain correctly while the background flusher is
    // still mid-batch: stage a large first feed (kicking off a flush)
    // and close immediately after, with no settling time.
    Workload w("barnes", 4, 9, WorkloadScale::tiny());
    Recorder recorder(ModeConfig::orderAndSize(), machine());
    const Recording rec = recorder.record(w, 1, true, {}, 10);
    ASSERT_GE(rec.checkpoints.size(), 4u);

    const std::string expect = savedBytes(rec);

    for (int round = 0; round < 3; ++round) {
        std::ostringstream streamed(std::ios::binary);
        StreamingArchiveWriter writer(streamed);
        writer.onCheckpoint(rec); // stages every segment, flush starts
        writer.close(rec);        // drains while the flusher runs
        EXPECT_EQ(std::move(streamed).str(), expect)
            << "round " << round;
    }
}

TEST(Store, StreamingWriterZeroCheckpointRecording)
{
    // A recording with no checkpoints streams to a single tail
    // segment and must still match the close-fed bytes exactly.
    Workload w("fft", 4, 9, WorkloadScale::tiny());
    Recorder recorder(ModeConfig::orderOnly(), machine());
    const Recording rec = recorder.record(w, 1);
    ASSERT_TRUE(rec.checkpoints.empty());

    std::ostringstream streamed(std::ios::binary);
    StreamingArchiveWriter writer(streamed);
    writer.onCheckpoint(rec); // no checkpoints: nothing to cut yet
    writer.close(rec);
    EXPECT_EQ(writer.segmentCount(), 1u);

    const std::string bytes = std::move(streamed).str();
    EXPECT_EQ(bytes, savedBytes(rec));

    const ArchiveReader reader = ArchiveReader::fromBytes(
        std::vector<std::uint8_t>(bytes.begin(), bytes.end()));
    EXPECT_EQ(reader.checkpointCount(), 0u);
    EXPECT_EQ(savedBytes(reader.readAll()), savedBytes(rec));
    EXPECT_THROW(reader.readInterval(0), CheckpointOutOfRangeError);
}

} // namespace
} // namespace delorean
