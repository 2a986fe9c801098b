/**
 * @file
 * Archive container (src/store): segmented, compressed,
 * checkpoint-indexed storage for recordings. Round-trip byte
 * identity, O(1) checkpoint seek, and interval replay that decodes
 * only the segments covering the requested GCC interval.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/errors.hpp"
#include "compress/lz77.hpp"
#include "core/delorean.hpp"
#include "core/serialize.hpp"
#include "core/serialize_detail.hpp"
#include "store/archive.hpp"
#include "store/crc32.hpp"
#include "trace/app_profile.hpp"

namespace delorean
{
namespace
{

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
    std::ostringstream out(std::ios::binary);
    writeArchive(rec, out);
    const std::string s = std::move(out).str();
    return std::vector<std::uint8_t>(s.begin(), s.end());
}

std::string
imageBytes(const SystemCheckpoint &ckpt)
{
    std::ostringstream out(std::ios::binary);
    serialize_detail::putCheckpoint(out, ckpt);
    return std::move(out).str();
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

/** 64-bit content hash of a byte image: mix64 chained over words. */
std::uint64_t
bytesHash(const std::string &bytes)
{
    std::uint64_t h = mix64(bytes.size());
    for (std::size_t off = 0; off < bytes.size(); off += 8) {
        std::uint64_t w = 0;
        for (std::size_t i = 0; i < 8 && off + i < bytes.size(); ++i)
            w |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(bytes[off + i]))
                 << (8 * i);
        h = mix64(h ^ w);
    }
    return h;
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

    // Segments = checkpoints + tail; boundaries ascending; the log
    // bit positions (the hardware write pointers at each boundary)
    // are monotone and end at the recording's true log sizes.
    const auto &segs = reader.segments();
    ASSERT_EQ(segs.size(), rec.checkpoints.size() + 1);
    for (std::size_t i = 0; i < rec.checkpoints.size(); ++i) {
        EXPECT_EQ(segs[i].endGcc, rec.checkpoints[i].gcc);
        EXPECT_TRUE(segs[i].hasCheckpoint);
        EXPECT_EQ(reader.checkpointAt(i).gcc, rec.checkpoints[i].gcc);
    }
    EXPECT_FALSE(segs.back().hasCheckpoint);
    for (std::size_t i = 1; i < segs.size(); ++i) {
        EXPECT_GE(segs[i].endGcc, segs[i - 1].endGcc);
        EXPECT_GE(segs[i].piBitsEnd, segs[i - 1].piBitsEnd);
        for (unsigned p = 0; p < 4; ++p)
            EXPECT_GE(segs[i].csBitsEnd[p], segs[i - 1].csBitsEnd[p]);
    }
    EXPECT_EQ(segs.back().piBitsEnd, rec.pi.sizeBits());
    std::uint64_t cs_bits = 0;
    for (unsigned p = 0; p < 4; ++p)
        cs_bits += segs.back().csBitsEnd[p];
    std::uint64_t want_cs = 0;
    for (const CsLog &log : rec.cs)
        want_cs += log.sizeBits();
    EXPECT_EQ(cs_bits, want_cs);
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
    const std::uint64_t view_hashes[] = {
        0x1e8f9fd0ec5b1ff2ull, 0xb1bceb8731e5d54eull,
        0x80994ccbdb0398f3ull, 0x91515f6d812085a8ull};
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
        EXPECT_EQ(bytesHash(views), view_hashes[mode_index++])
            << mode_name << std::hex << " view hash 0x"
            << bytesHash(views);
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

std::uint64_t
u64At(const std::vector<std::uint8_t> &bytes, std::size_t off)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(bytes[off + i]) << (8 * i);
    return v;
}

void
putU64At(std::vector<std::uint8_t> &bytes, std::size_t off,
         std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        bytes[off + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/**
 * Truncate @p bytes at @p footer_off, then append @p raw_footer
 * compressed plus a consistent trailer (offset, sizes, CRC, end magic),
 * so only the reader's semantic checks can reject the result.
 */
void
rewriteFooter(std::vector<std::uint8_t> &bytes, std::size_t footer_off,
              const std::vector<std::uint8_t> &raw_footer)
{
    const std::uint64_t end_magic = u64At(bytes, bytes.size() - 8);
    const std::vector<std::uint8_t> comp = Lz77().compress(raw_footer);
    bytes.resize(footer_off);
    bytes.insert(bytes.end(), comp.begin(), comp.end());
    const std::size_t trailer = bytes.size();
    bytes.resize(trailer + 40);
    putU64At(bytes, trailer, footer_off);
    putU64At(bytes, trailer + 8, comp.size());
    putU64At(bytes, trailer + 16, raw_footer.size());
    putU64At(bytes, trailer + 24, crc32(comp.data(), comp.size()));
    putU64At(bytes, trailer + 32, end_magic);
}

std::vector<std::uint8_t>
rawFooter(const std::vector<std::uint8_t> &bytes)
{
    const std::size_t trailer = bytes.size() - 40;
    return Lz77().decompress(
        bytes.data() + u64At(bytes, trailer),
        static_cast<std::size_t>(u64At(bytes, trailer + 8)));
}

TEST(Store, RejectsArbiterCountOtherThanOne)
{
    Workload w("fft", 4, 9, WorkloadScale::tiny());
    const Recording rec =
        Recorder(ModeConfig::orderOnly(), machine()).record(w, 1, true,
                                                            {}, 20);
    std::vector<std::uint8_t> bytes = archiveBytes(rec);
    std::vector<std::uint8_t> footer = rawFooter(bytes);
    // The footer opens with the 12-u64 machine header; the arbiter
    // count is its last field.
    ASSERT_EQ(u64At(footer, 88), 1u);
    putU64At(footer, 88, 4);
    rewriteFooter(bytes, u64At(bytes, bytes.size() - 40), footer);
    try {
        ArchiveReader::fromBytes(bytes);
        ADD_FAILURE() << "arbiter count 4 was accepted";
    } catch (const RecordingFormatError &e) {
        EXPECT_NE(std::string(e.what()).find("arbiter count 4 is not 1"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Store, RejectsPiSliceHasMasksFlag)
{
    Workload w("fft", 4, 9, WorkloadScale::tiny());
    const Recording rec =
        Recorder(ModeConfig::orderOnly(), machine()).record(w, 1, true,
                                                            {}, 20);
    std::vector<std::uint8_t> bytes = archiveBytes(rec);
    const std::size_t footer_off = u64At(bytes, bytes.size() - 40);
    std::vector<std::uint8_t> footer = rawFooter(bytes);

    // Re-encode the tail segment (the last one before the footer)
    // with its PI slice's has-masks flag, the payload's second u64,
    // set to 1. Segment header: magic, reserved, raw size, compressed
    // size, CRC; the segment's index entry repeats the last three.
    const ArchiveSegmentInfo seg =
        ArchiveReader::fromBytes(bytes).segments().back();
    const std::size_t payload_off = seg.fileOffset + 40;
    ASSERT_EQ(payload_off + seg.compBytes, footer_off);
    std::vector<std::uint8_t> raw = Lz77().decompress(
        bytes.data() + payload_off,
        static_cast<std::size_t>(seg.compBytes));
    ASSERT_EQ(u64At(raw, 8), 0u);
    putU64At(raw, 8, 1);
    const std::vector<std::uint8_t> comp = Lz77().compress(raw);
    const std::uint64_t crc = crc32(comp.data(), comp.size());

    bool patched = false;
    for (std::size_t off = 0; off + 24 <= footer.size(); ++off) {
        if (u64At(footer, off) == seg.rawBytes
            && u64At(footer, off + 8) == seg.compBytes
            && u64At(footer, off + 16) == seg.crc32) {
            putU64At(footer, off + 8, comp.size());
            putU64At(footer, off + 16, crc);
            patched = true;
            break;
        }
    }
    ASSERT_TRUE(patched);
    std::vector<std::uint8_t> out(
        bytes.begin(), bytes.begin() + static_cast<long>(payload_off));
    putU64At(out, seg.fileOffset + 24, comp.size());
    putU64At(out, seg.fileOffset + 32, crc);
    out.insert(out.end(), comp.begin(), comp.end());
    out.insert(out.end(), bytes.end() - 40, bytes.end()); // old trailer
    rewriteFooter(out, out.size() - 40, footer);

    const ArchiveReader reader = ArchiveReader::fromBytes(out);
    for (const bool whole : {true, false}) {
        try {
            if (whole)
                reader.readAll();
            else
                reader.readInterval(reader.checkpointCount() - 1);
            ADD_FAILURE() << "flagged PI slice was accepted";
        } catch (const ArchiveError &e) {
            EXPECT_EQ(e.segment(), reader.segments().size() - 1);
            EXPECT_NE(std::string(e.what()).find(
                          "has-masks flag 1 is not 0"),
                      std::string::npos)
                << e.what();
        }
    }
}

/**
 * Open checks every checkpoint image in the footer without decoding
 * it. Footers re-encoded with a valid CRC but a bad image must still
 * be rejected at open, as a footer error, with the same message the
 * eager decoder gave: a context count past 64, an image GCC that
 * disagrees with its index entry, and a word list running past the
 * footer.
 */
TEST(Store, FooterImageChecksFireAtOpen)
{
    Workload w("fft", 4, 9, WorkloadScale::tiny());
    const Recording rec =
        Recorder(ModeConfig::orderOnly(), machine()).record(w, 1, true,
                                                            {}, 20);
    ASSERT_GE(rec.checkpoints.size(), 2u);
    const std::vector<std::uint8_t> bytes = archiveBytes(rec);
    const std::size_t footer_off = u64At(bytes, bytes.size() - 40);
    const std::vector<std::uint8_t> footer = rawFooter(bytes);

    // Segment 0's index entry: endGcc, fileOffset, rawBytes,
    // compBytes, crc32, piBitsEnd, strataBitsEnd, the CS bit-position
    // count and positions, the has-checkpoint flag, then the image:
    // gcc, dmaConsumed, rrNext, context count, contexts (each followed
    // by its committed-chunk count), word count, words.
    const ArchiveSegmentInfo seg =
        ArchiveReader::fromBytes(bytes).segments()[0];
    std::size_t entry = 0;
    while (entry + 40 <= footer.size()
           && !(u64At(footer, entry) == seg.endGcc
                && u64At(footer, entry + 8) == seg.fileOffset
                && u64At(footer, entry + 16) == seg.rawBytes
                && u64At(footer, entry + 24) == seg.compBytes
                && u64At(footer, entry + 32) == seg.crc32))
        ++entry;
    ASSERT_LT(entry + 40, footer.size());
    const std::size_t procs = 4;
    const std::size_t image = entry + 8 * (7 + 1 + procs + 1);
    ASSERT_EQ(u64At(footer, image), seg.endGcc);
    ASSERT_EQ(u64At(footer, image + 24), procs);
    const std::size_t words_at =
        image + 32 + procs * (sizeof(ThreadContext) + 8);

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
        {"GCC off the index", image, seg.endGcc + 1,
         "segment 0 checkpoint GCC disagrees with the index"},
        {"word list past the footer", words_at,
         (footer.size() - words_at) / 16 + 1, "file truncated"},
    };
    for (const Case &c : cases) {
        std::vector<std::uint8_t> bad_footer = footer;
        putU64At(bad_footer, c.offset, c.value);
        std::vector<std::uint8_t> bad = bytes;
        rewriteFooter(bad, footer_off, bad_footer);
        try {
            ArchiveReader::fromBytes(bad);
            ADD_FAILURE() << c.what << " was accepted at open";
        } catch (const ArchiveError &e) {
            EXPECT_EQ(e.section(), ArchiveSection::kFooter) << c.what;
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
    writeArchiveFile(rec, path);
    EXPECT_TRUE(ArchiveReader::fileLooksLikeArchive(path));
    const ArchiveReader reader = ArchiveReader::fromFile(path);
    EXPECT_EQ(savedBytes(reader.readAll()), savedBytes(rec));
    std::remove(path.c_str());
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
            writeArchive(rec, out, io);
            return std::move(out).str();
        };
        const std::string serial =
            archivedWith(ArchiveIoOptions{1, true});
        for (const unsigned threads : {2u, 4u, 8u})
            EXPECT_EQ(archivedWith(ArchiveIoOptions{threads, true}),
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
    writeArchiveFile(rec, path);
    const std::string expect = savedBytes(rec);

    for (const bool mmap_reads : {true, false}) {
        for (const unsigned threads : {1u, 2u, 4u, 8u}) {
            const ArchiveReader reader = ArchiveReader::fromFile(
                path, ArchiveIoOptions{threads, mmap_reads});
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
    const ArchiveReader mapped =
        ArchiveReader::fromFile(path, ArchiveIoOptions{4, true});
    const ArchiveReader buffered =
        ArchiveReader::fromFile(path, ArchiveIoOptions{1, false});
    const ArchiveReader in_memory = ArchiveReader::fromBytes(
        archiveBytes(rec), ArchiveIoOptions{2, true});
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
    // The incremental writer — fed one checkpoint at a time from the
    // record loop, or the whole recording at close() — must emit
    // exactly the batch writer's bytes, at any codec worker count.
    for (const auto &[mode_name, mode] : allModes()) {
        for (const unsigned threads : {1u, 4u}) {
            Workload w("radix", 4, 9, WorkloadScale::tiny());
            Recorder recorder(mode, machine());

            std::ostringstream streamed(std::ios::binary);
            StreamingArchiveWriter writer(streamed,
                                          ArchiveIoOptions{threads,
                                                           true});
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

            std::ostringstream batch(std::ios::binary);
            writeArchive(rec, batch);
            const std::string expect = std::move(batch).str();
            EXPECT_EQ(std::move(streamed).str(), expect)
                << mode_name << " hook-fed ioThreads=" << threads;

            // Batch-fed: no hook, every segment cut at close().
            std::ostringstream fed(std::ios::binary);
            StreamingArchiveWriter tail(fed,
                                        ArchiveIoOptions{threads,
                                                         true});
            tail.close(rec);
            EXPECT_EQ(std::move(fed).str(), expect)
                << mode_name << " batch-fed ioThreads=" << threads;
        }
    }
}

TEST(Store, StreamingFileReadbackAcrossDatapaths)
{
    // A streamed file must be indistinguishable from a batch-written
    // one to every reader datapath: mmap and buffered, serial and
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
    EXPECT_TRUE(ArchiveReader::fileLooksLikeArchive(path));

    for (const bool mmap_reads : {true, false}) {
        for (const unsigned threads : {1u, 4u}) {
            const ArchiveReader reader = ArchiveReader::fromFile(
                path, ArchiveIoOptions{threads, mmap_reads});
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

    std::ostringstream batch(std::ios::binary);
    writeArchive(rec, batch);
    const std::string expect = std::move(batch).str();

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
    // segment and must still match the batch writer byte for byte.
    Workload w("fft", 4, 9, WorkloadScale::tiny());
    Recorder recorder(ModeConfig::orderOnly(), machine());
    const Recording rec = recorder.record(w, 1);
    ASSERT_TRUE(rec.checkpoints.empty());

    std::ostringstream streamed(std::ios::binary);
    StreamingArchiveWriter writer(streamed);
    writer.onCheckpoint(rec); // no checkpoints: nothing to cut yet
    writer.close(rec);
    EXPECT_EQ(writer.segmentCount(), 1u);

    std::ostringstream batch(std::ios::binary);
    writeArchive(rec, batch);
    const std::string bytes = std::move(streamed).str();
    EXPECT_EQ(bytes, std::move(batch).str());

    const ArchiveReader reader = ArchiveReader::fromBytes(
        std::vector<std::uint8_t>(bytes.begin(), bytes.end()));
    EXPECT_EQ(reader.checkpointCount(), 0u);
    EXPECT_EQ(savedBytes(reader.readAll()), savedBytes(rec));
    EXPECT_THROW(reader.readInterval(0), CheckpointOutOfRangeError);
}

TEST(Store, ArchiveMagicSniffRejectsRecording)
{
    Workload w("fft", 4, 9, WorkloadScale::tiny());
    Recorder recorder(ModeConfig::orderOnly(), machine());
    const Recording rec = recorder.record(w, 1);
    const std::string raw = savedBytes(rec);
    EXPECT_FALSE(ArchiveReader::looksLikeArchive(
        reinterpret_cast<const std::uint8_t *>(raw.data()),
        raw.size()));
}

} // namespace
} // namespace delorean
