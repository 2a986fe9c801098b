/**
 * @file
 * Recording persistence tests: save/load round trips, replay of a
 * recording that went through disk, pinned hashes of the .dlrec and
 * .dla byte images and of a ring directory, format v1/v2 loading, and
 * typed rejection of the two constant v2 fields (arbiter count 1, PI
 * has-masks flag 0).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "common/errors.hpp"
#include "common/rng.hpp"
#include "core/delorean.hpp"
#include "core/serialize.hpp"
#include "core/serialize_detail.hpp"
#include "store/archive.hpp"
#include "store/ring.hpp"

#include "container_bytes.hpp"

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

Recording
roundTrip(const Recording &rec)
{
    std::stringstream buffer;
    saveRecording(rec, buffer);
    return loadRecording(buffer);
}

TEST(Serialize, RoundTripPreservesLogsAndFingerprint)
{
    Workload w("sweb2005", 4, 3, WorkloadScale{20});
    const Recording rec =
        Recorder(ModeConfig::orderOnly(), machine()).record(w, 1);
    const Recording copy = roundTrip(rec);

    EXPECT_EQ(copy.appName, rec.appName);
    EXPECT_EQ(copy.workloadSeed, rec.workloadSeed);
    EXPECT_EQ(copy.machine.numProcs, rec.machine.numProcs);
    EXPECT_EQ(copy.mode.mode, rec.mode.mode);
    EXPECT_EQ(copy.mode.chunkSize, rec.mode.chunkSize);

    ASSERT_EQ(copy.pi.entryCount(), rec.pi.entryCount());
    for (std::size_t i = 0; i < rec.pi.entryCount(); ++i)
        ASSERT_EQ(copy.pi.entryAt(i), rec.pi.entryAt(i));

    ASSERT_EQ(copy.cs.size(), rec.cs.size());
    for (std::size_t p = 0; p < rec.cs.size(); ++p)
        EXPECT_EQ(copy.cs[p].entryCount(), rec.cs[p].entryCount());

    EXPECT_EQ(copy.io.totalEntries(), rec.io.totalEntries());
    EXPECT_EQ(copy.interrupts.totalEntries(),
              rec.interrupts.totalEntries());
    EXPECT_EQ(copy.dma.count(), rec.dma.count());

    EXPECT_TRUE(copy.fingerprint.matchesExact(rec.fingerprint));
    EXPECT_EQ(copy.stats.retiredInstrs, rec.stats.retiredInstrs);
    EXPECT_EQ(copy.stats.totalCycles, rec.stats.totalCycles);
}

TEST(Serialize, LoadedRecordingReplaysDeterministically)
{
    Workload w("sjbb2k", 4, 3, WorkloadScale{20});
    const Recording rec =
        Recorder(ModeConfig::orderOnly(), machine()).record(w, 1);
    const Recording copy = roundTrip(rec);

    ReplayPerturbation perturb;
    perturb.enabled = true;
    perturb.seed = 9;
    const ReplayOutcome out = Replayer().replay(copy, 42, perturb);
    EXPECT_TRUE(out.deterministicExact);
}

TEST(Serialize, OrderAndSizeAndPicoLogRoundTrip)
{
    for (const ModeConfig mode :
         {ModeConfig::orderAndSize(), ModeConfig::picoLog()}) {
        Workload w("radix", 4, 3, WorkloadScale::tiny());
        const Recording rec = Recorder(mode, machine()).record(w, 1);
        const Recording copy = roundTrip(rec);
        EXPECT_TRUE(copy.fingerprint.matchesExact(rec.fingerprint));
        const ReplayOutcome out = Replayer().replay(copy, 5);
        EXPECT_TRUE(out.deterministicExact)
            << execModeName(mode.mode);
    }
}

TEST(Serialize, StratifiedRecordingRoundTrips)
{
    ModeConfig mode = ModeConfig::orderOnly();
    mode.stratifyChunksPerProc = 1;
    Workload w("barnes", 4, 3, WorkloadScale::tiny());
    const Recording rec = Recorder(mode, machine()).record(w, 1);
    const Recording copy = roundTrip(rec);
    ASSERT_EQ(copy.strata.size(), rec.strata.size());
    const ReplayOutcome out = Replayer().replay(copy, 5);
    EXPECT_TRUE(out.deterministicPerProc);
}

TEST(Serialize, CheckpointsRoundTripAndReplay)
{
    Workload w("fmm", 4, 3, WorkloadScale::tiny());
    const Recording rec = Recorder(ModeConfig::orderOnly(), machine())
                              .record(w, 1, true, {25});
    ASSERT_EQ(rec.checkpoints.size(), 1u);
    const Recording copy = roundTrip(rec);
    ASSERT_EQ(copy.checkpoints.size(), 1u);
    EXPECT_EQ(copy.checkpoints[0].gcc, rec.checkpoints[0].gcc);
    EXPECT_EQ(copy.checkpoints[0].memory.hash(),
              rec.checkpoints[0].memory.hash());

    const ReplayOutcome out =
        Replayer().replayInterval(copy, 0, w, 7);
    EXPECT_TRUE(out.deterministicExact);
}

TEST(Serialize, FileRoundTrip)
{
    Workload w("lu", 2, 3, WorkloadScale::tiny());
    MachineConfig m = machine(2);
    const Recording rec =
        Recorder(ModeConfig::orderOnly(), m).record(w, 1);
    const std::string path = "/tmp/delorean_test_recording.bin";
    saveRecordingFile(rec, path);
    const Recording copy = loadRecordingFile(path);
    EXPECT_TRUE(copy.fingerprint.matchesExact(rec.fingerprint));
    std::remove(path.c_str());
}

TEST(Serialize, RejectsGarbage)
{
    std::stringstream buffer;
    buffer << "this is not a recording at all, sorry";
    EXPECT_THROW(loadRecording(buffer), std::runtime_error);
}

std::string
serialized(const Recording &rec)
{
    std::ostringstream out;
    saveRecording(rec, out);
    return std::move(out).str();
}

/**
 * Hash of a ring directory: every file name and its bytes, in name
 * order (ring.index, ring.meta, then seg-* ascending).
 */
std::uint64_t
ringHash(const std::string &dir)
{
    return hashBytes(test::ringDirBytes(dir));
}

TEST(Serialize, GoldenBytesArePinned)
{
    // One small fixed run per mode configuration. The hashes pin the
    // .dlrec and .dla byte images and the files of a ring directory
    // (ring.meta, every seg-* and ring.index, with a budget that
    // evicts), so any drift in the wire formats, the recorder's logs,
    // the fingerprints or the ring's eviction fails here.
    struct Golden
    {
        const char *label;
        ModeConfig mode;
        std::uint64_t recordingHash;
        std::uint64_t archiveHash;
        std::uint64_t ringHash;
    };
    ModeConfig strat = ModeConfig::orderOnly();
    strat.stratifyChunksPerProc = 3;
    // The .dla (v3) and ring (v2) pins moved once, when checkpoints
    // became keyframe chains; the ring budget then dropped from 300000
    // to 60000 bytes so the smaller ring still evicts. The .dla v2 /
    // ring v1 pins were, per mode:
    //   order-and-size   0x0d36fc53a2b06f19  0x1907e8e3bc7ef3c2
    //   order-only       0xd698ac8dc50e6208  0x4c0337aa31f7807b
    //   order-only-strat 0x8422cf8225ac001d  0xe883fde35a28fbf6
    //   picolog          0x5d8df3650ad7243c  0x80f89ce2799a6e91
    // The .dlrec pins moved once, when .dlrec v3 began storing the
    // checkpoint chains; the v2 pins were, per mode:
    //   order-and-size   0x106ed7879a1fe22c
    //   order-only       0x9833376a1237a0dd
    //   order-only-strat 0xb31510eb6702f9b9
    //   picolog          0xddc8c740d6a95a9e
    // All three pins moved once more with .dlrec v4, .dla v4 and ring
    // v3 (images as gap lists and context diffs, stored raw); the
    // 60000-byte ring still evicts down to the newest chain in every
    // mode. The .dlrec v3 / .dla v3 / ring v2 pins were, per mode:
    //   order-and-size   0xeda82e9c82c96abc  0x6506bec96579fab7
    //                    0x845e77e093f37f07
    //   order-only       0xec50a355d12af55f  0xeab0307ef088ea2d
    //                    0x7f17e60d4e5f2d90
    //   order-only-strat 0x71247568d6e2c834  0x3d29744302cba95d
    //                    0x76bfc7ce485d7bee
    //   picolog          0x08b2205957c59a79  0x64dda0fc9a7ee329
    //                    0xaec65f6a2254c774
    const Golden goldens[] = {
        {"order-and-size", ModeConfig::orderAndSize(),
         0x5d863ee3f8cc7ef2ull, 0x572c117d80ac4c4bull,
         0x969f1a74f4bb7859ull},
        {"order-only", ModeConfig::orderOnly(), 0x949ebc321f72e5fbull,
         0x503329936e71be29ull, 0x0cd14c25c0ed7851ull},
        {"order-only-strat", strat, 0xc2c9b7b7b9115650ull,
         0x7aba783a4078a03dull, 0x833888b36a267827ull},
        {"picolog", ModeConfig::picoLog(), 0x6f2d04740d1179b9ull,
         0x649ad1c291cd1dbeull, 0x68a1fdb57862aa1eull},
    };
    for (const Golden &g : goldens) {
        Workload w("fft", 4, 7, WorkloadScale::tiny());
        const Recording rec =
            Recorder(g.mode, machine()).record(w, 1, true, {}, 40);
        ASSERT_FALSE(rec.checkpoints.empty()) << g.label;
        std::ostringstream dla;
        writeArchive(rec, dla);
        EXPECT_EQ(hashBytes(serialized(rec)), g.recordingHash)
            << g.label << std::hex << " recording hash 0x"
            << hashBytes(serialized(rec));
        EXPECT_EQ(hashBytes(dla.str()), g.archiveHash)
            << g.label << std::hex << " archive hash 0x"
            << hashBytes(dla.str());

        const std::string dir =
            testing::TempDir() + "golden_ring_" + g.label;
        std::filesystem::remove_all(dir);
        RingOptions opts;
        opts.checkpointPeriod = 40;
        opts.budgetBytes = 60000;
        const RingWriterStats stats = writeRing(rec, dir, opts);
        EXPECT_GT(stats.segmentsEvicted, 0u) << g.label;
        EXPECT_EQ(ringHash(dir), g.ringHash)
            << g.label << std::hex << " ring hash 0x" << ringHash(dir);
        std::filesystem::remove_all(dir);
    }
}

std::uint64_t
u64At(const std::string &bytes, std::size_t off)
{
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(bytes[off + i]))
             << (8 * i);
    return v;
}

void
putU64At(std::string &bytes, std::size_t off, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        bytes[off + i] = static_cast<char>(v >> (8 * i));
}

/// Stream layout: magic, version, 12 machine u64s (the arbiter count
/// last, at byte 104), 7 mode u64s, appName, seed, iterations, PI
/// count, PI entries, then the has-masks flag.
constexpr std::size_t kArbiterCountOffset = 104;

std::size_t
hasMasksOffset(const std::string &bytes)
{
    const std::size_t pi_count_off =
        21 * 8 + 8 + static_cast<std::size_t>(u64At(bytes, 21 * 8)) + 16;
    return pi_count_off + 8
           + static_cast<std::size_t>(u64At(bytes, pi_count_off)) * 8;
}

/**
 * Rewrite a v2 stream as format v1: version 1, no arbiter count in
 * the machine header and no PI has-masks flag.
 */
std::string
downgradeToV1(const std::string &v2)
{
    std::string v1 = v2;
    v1.erase(hasMasksOffset(v2), 8);
    v1.erase(kArbiterCountOffset, 8);
    putU64At(v1, 8, 1);
    return v1;
}

Recording
recordFft()
{
    Workload w("fft", 4, 7, WorkloadScale::tiny());
    return Recorder(ModeConfig::orderOnly(), machine()).record(w, 1);
}

TEST(Serialize, LegacyV1RecordingsStillLoadAndReplay)
{
    const Recording rec = recordFft();
    const std::string v4 = serialized(rec);
    ASSERT_EQ(u64At(v4, kArbiterCountOffset), 1u);
    ASSERT_EQ(u64At(v4, hasMasksOffset(v4)), 0u);

    std::istringstream in(downgradeToV1(v4));
    const Recording loaded = loadRecording(in);
    EXPECT_EQ(loaded.pi.entryCount(), rec.pi.entryCount());
    EXPECT_TRUE(Replayer().replay(loaded, 5).deterministicExact);
    // Re-serializing writes format v4, byte-identical to the original.
    EXPECT_EQ(serialized(loaded), v4);
}

/**
 * A full image as format v1/v2 wrote it: gcc, dmaConsumed, rrNext,
 * the context count, per processor its ThreadContext bytes and
 * committed-chunk counter, the word count, then (addr, value) u64
 * pairs in address order.
 */
std::string
fullImage(const SystemCheckpoint &ckpt)
{
    std::string out;
    const auto put = [&out](std::uint64_t v) {
        std::string word(8, '\0');
        putU64At(word, 0, v);
        out += word;
    };
    put(ckpt.gcc);
    put(ckpt.dmaConsumed);
    put(ckpt.rrNext);
    put(ckpt.contexts.size());
    for (std::size_t p = 0; p < ckpt.contexts.size(); ++p) {
        std::string ctx(sizeof(ThreadContext), '\0');
        serialize_detail::contextBytes(
            ckpt.contexts[p], reinterpret_cast<std::uint8_t *>(ctx.data()));
        out += ctx;
        put(ckpt.committedChunks[p]);
    }
    const std::vector<CheckpointImage::Word> words =
        CheckpointImage::sortedWords(ckpt.memory.materialize());
    put(words.size());
    for (const auto &[addr, value] : words) {
        put(addr);
        put(value);
    }
    return out;
}

/**
 * @p rec as format v2 wrote it: every checkpoint a full image, with
 * no kind field before it.
 */
std::string
legacyV2(const Recording &rec)
{
    Recording bare = rec;
    bare.checkpoints.clear();
    std::string v2 = serialized(bare);
    putU64At(v2, 8, 2);
    v2.resize(v2.size() - 8); // the checkpoint count
    std::string count(8, '\0');
    putU64At(count, 0, rec.checkpoints.size());
    v2 += count;
    for (const SystemCheckpoint &ckpt : rec.checkpoints)
        v2 += fullImage(ckpt);
    return v2;
}

/**
 * Format v1 and v2 recordings store every checkpoint as a full image.
 * Loading converts them into keyframe chains under the recorder's
 * keyframe rule, so a re-serialized legacy file is byte-identical to
 * the v4 file of the same recording, and its intervals replay.
 */
TEST(Serialize, LegacyFullImagesConvertToTheRecordedChains)
{
    Workload w("ocean", 4, 9, WorkloadScale::tiny());
    const Recording rec =
        Recorder(ModeConfig::orderOnly(), machine()).record(w, 1, true, {},
                                                            10);
    std::size_t heads = 0;
    for (const SystemCheckpoint &ckpt : rec.checkpoints)
        heads += ckpt.memory.headsChain() ? 1 : 0;
    ASSERT_GT(heads, 1u);
    ASSERT_LT(heads, rec.checkpoints.size());
    const std::string v4 = serialized(rec);
    const std::string v2 = legacyV2(rec);
    for (const std::string &legacy : {v2, downgradeToV1(v2)}) {
        std::istringstream in(legacy);
        const Recording loaded = loadRecording(in);
        EXPECT_EQ(serialized(loaded), v4);
        ASSERT_EQ(loaded.checkpoints.size(), rec.checkpoints.size());
        for (std::size_t i = 0; i < rec.checkpoints.size(); ++i)
            EXPECT_EQ(loaded.checkpoints[i].memory.headsChain(),
                      rec.checkpoints[i].memory.headsChain())
                << i;
        EXPECT_TRUE(Replayer()
                        .replayInterval(loaded, 2, w, 5, {},
                                        &loaded.checkpoints[3])
                        .deterministicExact);
    }
}

/**
 * Format v3 files (chain images with fixed-width words and contexts)
 * are rejected with the typed version error rather than converted:
 * their chains would need a second decoder.
 */
TEST(Serialize, RejectsFormatV3)
{
    std::string v3 = serialized(recordFft());
    putU64At(v3, 8, 3);
    std::istringstream in(v3);
    try {
        loadRecording(in);
        ADD_FAILURE() << "a v3 recording was accepted";
    } catch (const RecordingFormatError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "unsupported recording version 3"),
                  std::string::npos)
            << e.what();
    }
}

TEST(Serialize, RejectsArbiterCountOtherThanOne)
{
    const std::string good = serialized(recordFft());
    for (const std::uint64_t arbiters : {0ull, 2ull, 4ull, ~0ull}) {
        std::string bad = good;
        putU64At(bad, kArbiterCountOffset, arbiters);
        std::istringstream in(bad);
        EXPECT_THROW(loadRecording(in), RecordingFormatError)
            << "arbiters " << arbiters;
    }
}

TEST(Serialize, RejectsPiHasMasksFlag)
{
    std::string bad = serialized(recordFft());
    putU64At(bad, hasMasksOffset(bad), 1);
    std::istringstream in(bad);
    EXPECT_THROW(loadRecording(in), RecordingFormatError);
}

TEST(Serialize, RejectsTruncated)
{
    Workload w("lu", 2, 3, WorkloadScale::tiny());
    const Recording rec =
        Recorder(ModeConfig::orderOnly(), machine(2)).record(w, 1);
    std::stringstream buffer;
    saveRecording(rec, buffer);
    const std::string full = buffer.str();
    std::stringstream cut(full.substr(0, full.size() / 2));
    EXPECT_THROW(loadRecording(cut), std::runtime_error);
}

} // namespace
} // namespace delorean
