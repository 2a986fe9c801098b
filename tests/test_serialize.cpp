/**
 * @file
 * Recording persistence tests: save/load round trips through the one
 * recording file (a `.dla`), of whole runs and of interval views,
 * replay of a recording that went through disk, pinned hashes of the
 * `.dla` bytes and of ring directories, and typed rejection of other
 * format versions.
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

std::string
serialized(const Recording &rec)
{
    std::ostringstream out;
    saveRecording(rec, out);
    return std::move(out).str();
}

Recording
load(const std::string &bytes)
{
    return ArchiveReader::fromBytes({bytes.begin(), bytes.end()}).readAll();
}

Recording
roundTrip(const Recording &rec)
{
    return load(serialized(rec));
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
    const std::string path = testing::TempDir() + "delorean_test_recording.dla";
    saveRecordingFile(rec, path);
    const Recording copy = ArchiveReader::fromFile(path).readAll();
    EXPECT_TRUE(copy.fingerprint.matchesExact(rec.fingerprint));
    std::remove(path.c_str());
}

TEST(Serialize, RejectsGarbage)
{
    EXPECT_THROW(load("this is not a recording at all, sorry"),
                 RecordingFormatError);
}

/**
 * Every view a reader hands out is itself a recording, saved and
 * loaded through the same one file: readAll(), each bounded
 * readInterval(i, i + 1) and an open-ended readInterval(i) load back
 * to the bytes they were saved as and replay to their recorded
 * (interval) fingerprint, in all four mode configurations.
 */
TEST(Serialize, ViewsRoundTripThroughTheOneFile)
{
    ModeConfig strat = ModeConfig::orderOnly();
    strat.stratifyChunksPerProc = 3;
    for (const char *app : {"fft", "ocean", "sjbb2k"}) {
        for (const ModeConfig &mode :
             {ModeConfig::orderAndSize(), ModeConfig::orderOnly(), strat,
              ModeConfig::picoLog()}) {
            const std::string label =
                std::string(app) + " " + modeConfigName(mode);
            Workload w(app, 4, 3, WorkloadScale::tiny());
            const Recording rec =
                Recorder(mode, machine()).record(w, 1, true, {}, 25);
            ASSERT_GE(rec.checkpoints.size(), 2u) << label;
            const ArchiveReader reader =
                ArchiveReader::fromBytes([&rec] {
                    const std::string bytes = serialized(rec);
                    return std::vector<std::uint8_t>(bytes.begin(),
                                                     bytes.end());
                }());
            const auto deterministic = [&rec](const ReplayOutcome &out) {
                return rec.stratified() ? out.deterministicPerProc
                                        : out.deterministicExact;
            };
            // Saved, loaded back, saved again: the same bytes.
            const auto through = [&label](const Recording &view,
                                          const std::string &what) {
                const std::string bytes = serialized(view);
                Recording loaded = load(bytes);
                EXPECT_EQ(serialized(loaded), bytes) << label << " " << what;
                return loaded;
            };

            const Recording whole = through(reader.readAll(), "readAll");
            EXPECT_TRUE(deterministic(Replayer().replay(whole, 5)))
                << label;
            for (std::size_t i = 0; i + 1 < reader.checkpointCount(); ++i) {
                const std::string what =
                    "readInterval(" + std::to_string(i) + ", "
                    + std::to_string(i + 1) + ")";
                const Recording view =
                    through(reader.readInterval(i, i + 1), what);
                ASSERT_EQ(view.checkpoints.size(), 2u) << label << what;
                EXPECT_TRUE(deterministic(Replayer().replayInterval(
                    view, 0, w, 7, {}, &view.checkpoints[1])))
                    << label << " " << what;
            }
            const std::size_t from = reader.checkpointCount() / 2;
            const Recording tail = through(reader.readInterval(from),
                                           "readInterval(" + std::to_string(from) + ")");
            ASSERT_EQ(tail.checkpoints.size(), 1u) << label;
            EXPECT_TRUE(deterministic(Replayer().replayInterval(tail, 0, w, 7)))
                << label << " open-ended view";
        }
    }
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
    // recording's `.dla` bytes and the files of two ring directories (ring.meta, every seg-* and ring.index): the ring of
    // the same run, and an evicting ring of the run recorded with
    // twice as many checkpoints. Any drift in the wire formats, the
    // recorder's logs, the fingerprints or the ring's eviction fails
    // here.
    struct Golden
    {
        const char *label;
        ModeConfig mode;
        std::uint64_t archiveHash;
        std::uint64_t ringHash;
        std::uint64_t evictingRingHash;
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
    // The .dla and ring pins moved once more with .dla v5 and ring v4
    // (one segment record per file or segment, each image stored
    // once). A ring evicts only whole chains and keeps the newest, so
    // the ring of a one-chain run (three modes here) no longer evicts:
    // it keeps every file and counts budget overruns. The budget
    // dropped to 50000 bytes, which every such ring exceeds, and the
    // evicting ring pin was added then. The .dla v4 / ring v3 pins
    // were, per mode:
    //   order-and-size   0x572c117d80ac4c4b  0x969f1a74f4bb7859
    //   order-only       0x503329936e71be29  0x0cd14c25c0ed7851
    //   order-only-strat 0x7aba783a4078a03d  0x833888b36a267827
    //   picolog          0x649ad1c291cd1dbe  0x68a1fdb57862aa1e
    // With `.dla` v6 and ring v5 (the machine header's arbiter count
    // and every PI slice's has-masks flag gone) every pin moved once
    // more, and the `.dlrec` pin went with its format. The `.dlrec` v4
    // / `.dla` v5 / ring v4 / evicting ring v4 pins were, per mode:
    //   order-and-size   0x5d863ee3f8cc7ef2  0xc5c4a1570ed241cd
    //                    0x67cfacaf0475436d  0x8f0205b306a62c33
    //   order-only       0x949ebc321f72e5fb  0xa0f3922737766f92
    //                    0xc5e0196ed03766aa  0xca767e7e4410fbd1
    //   order-only-strat 0xc2c9b7b7b9115650  0x70de607ca5785988
    //                    0x2119a16b3053d246  0x74f73f865437054d
    //   picolog          0x6f2d04740d1179b9  0x1e3a986cc44bce4d
    //                    0xa5d07c65531befcf  0x7fc81c189776118e
    const Golden goldens[] = {
        {"order-and-size", ModeConfig::orderAndSize(),
         0xef57f285e05d4170ull, 0xb98fb59099956117ull,
         0x0a3daa3efeb33b56ull},
        {"order-only", ModeConfig::orderOnly(), 0x0a2779e9cfc7291full,
         0xad0e671ebeb8908eull, 0x373e81d039616691ull},
        {"order-only-strat", strat, 0x16ba170f3cb655b9ull,
         0x98d9b0c2c75795f4ull, 0xa6c5b8efa325161cull},
        {"picolog", ModeConfig::picoLog(), 0xfa7138e8b2efa6eaull,
         0x7f34d706f8d9bce8ull, 0x4d0f1b8ab97c0104ull},
    };
    const auto chainHeads = [](const RingArchiveReader &ring) {
        return std::count_if(
            ring.segments().begin(), ring.segments().end(),
            [](const ArchiveSegmentInfo &seg) { return seg.chainHead(); });
    };
    for (const Golden &g : goldens) {
        Workload w("fft", 4, 7, WorkloadScale::tiny());
        const Recording rec =
            Recorder(g.mode, machine()).record(w, 1, true, {}, 40);
        ASSERT_FALSE(rec.checkpoints.empty()) << g.label;
        EXPECT_EQ(hashBytes(serialized(rec)), g.archiveHash)
            << g.label << std::hex << " archive hash 0x"
            << hashBytes(serialized(rec));

        RingOptions opts;
        opts.budgetBytes = 50000;
        const std::string dir =
            testing::TempDir() + "golden_ring_" + g.label;
        {
            // The ring of the same run. A run that is one chain cannot
            // evict: the ring keeps every file, over budget, and
            // counts an overrun; a run of two chains or more evicts.
            std::filesystem::remove_all(dir);
            opts.checkpointPeriod = 40;
            const RingWriterStats stats = writeRing(rec, dir, opts);
            const std::size_t run_heads = static_cast<std::size_t>(
                std::count_if(rec.checkpoints.begin(),
                              rec.checkpoints.end(),
                              [](const SystemCheckpoint &ckpt) {
                                  return ckpt.memory.headsChain();
                              }));
            if (run_heads == 1) {
                EXPECT_EQ(stats.segmentsEvicted, 0u) << g.label;
                EXPECT_GT(stats.budgetOverruns, 0u) << g.label;
                EXPECT_EQ(RingArchiveReader::open(dir).checkpointCount(),
                          rec.checkpoints.size())
                    << g.label;
            } else {
                EXPECT_GT(stats.segmentsEvicted, 0u) << g.label;
            }
            EXPECT_EQ(ringHash(dir), g.ringHash)
                << g.label << std::hex << " ring hash 0x" << ringHash(dir);
            std::filesystem::remove_all(dir);
        }
        {
            // The run with a checkpoint every 20 commits holds two
            // chains or more in every mode, and the budget evicts it
            // down to the newest chain.
            const Recording twice =
                Recorder(g.mode, machine()).record(w, 1, true, {}, 20);
            opts.checkpointPeriod = 20;
            const RingWriterStats stats = writeRing(twice, dir, opts);
            EXPECT_GT(stats.segmentsEvicted, 0u) << g.label;
            EXPECT_EQ(chainHeads(RingArchiveReader::open(dir)), 1)
                << g.label;
            EXPECT_EQ(ringHash(dir), g.evictingRingHash)
                << g.label << std::hex << " evicting ring hash 0x"
                << ringHash(dir);
            std::filesystem::remove_all(dir);
        }
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

Recording
recordFft()
{
    Workload w("fft", 4, 7, WorkloadScale::tiny());
    return Recorder(ModeConfig::orderOnly(), machine()).record(w, 1);
}

/**
 * Only the current `.dla` version, 6, loads. Versions 1 to 5 (full
 * images, the two constant fields, a footer of images) and any later
 * version are rejected with the typed version error.
 */
TEST(Serialize, RejectsUnsupportedVersions)
{
    const std::string v6 = serialized(recordFft());
    ASSERT_EQ(u64At(v6, 8), 6u);
    for (const std::uint64_t version : {1, 2, 3, 4, 5, 7}) {
        std::string bad = v6;
        putU64At(bad, 8, version);
        try {
            load(bad);
            ADD_FAILURE() << "a v" << version << " recording was accepted";
        } catch (const ArchiveError &e) {
            EXPECT_EQ(e.section(), ArchiveSection::kFileHeader);
            EXPECT_NE(std::string(e.what()).find(
                          "unsupported archive version "
                          + std::to_string(version)),
                      std::string::npos)
                << e.what();
        }
    }
}

/**
 * A header naming a cache the model cannot simulate (a set count that
 * is not a power of two, or a size that is not a whole number of
 * sets) is a typed rejection when a `.dla` footer or a ring.meta is
 * loaded: the set-index mask would silently simulate another cache.
 * The forged fields sit in the machine header, past numProcs: L1
 * ways at byte 16, L2 bytes at byte 24.
 */
TEST(Serialize, RejectsCacheGeometryTheModelCannotSimulate)
{
    const Recording rec = recordFft();
    const std::string good = serialized(rec);
    const std::vector<std::uint8_t> bytes(good.begin(), good.end());
    const std::size_t footer_off = test::footerOffset(bytes);
    const std::vector<std::uint8_t> footer = test::rawFooter(bytes);
    ASSERT_EQ(test::u64At(footer, 16), rec.machine.mem.l1Ways);
    ASSERT_EQ(test::u64At(footer, 24), rec.machine.mem.l2SizeBytes);

    const std::string ring = testing::TempDir() + "ring_bad_geometry";
    std::filesystem::remove_all(ring);
    writeRing(rec, ring, RingOptions{});
    const std::vector<std::uint8_t> meta =
        test::readFile(ring + "/ring.meta");
    constexpr std::size_t kMetaBlob = 40; // ring.meta preamble bytes

    struct Forgery
    {
        std::size_t field;
        std::uint64_t value;
        const char *why;
    };
    for (const Forgery &f :
         {Forgery{24, 6u << 20, "L2 set count is not a power of two"},
          Forgery{16, 3, "L1 size is not a whole number of sets"}}) {
        std::vector<std::uint8_t> forged_footer = footer;
        test::putU64At(forged_footer, f.field, f.value);
        std::vector<std::uint8_t> dla = bytes;
        test::rewriteFooter(dla, footer_off, forged_footer);
        try {
            ArchiveReader::fromBytes(dla);
            ADD_FAILURE() << f.why << ": the .dla was accepted";
        } catch (const ArchiveError &e) {
            EXPECT_EQ(e.section(), ArchiveSection::kFooter);
            EXPECT_NE(std::string(e.what()).find(f.why), std::string::npos)
                << e.what();
        }

        std::vector<std::uint8_t> forged_meta = meta;
        test::putU64At(forged_meta, kMetaBlob + f.field, f.value);
        test::putU64At(forged_meta, 32,
                       crc32(forged_meta.data() + kMetaBlob,
                             forged_meta.size() - kMetaBlob));
        test::writeFile(ring + "/ring.meta", forged_meta);
        try {
            RingArchiveReader::open(ring);
            ADD_FAILURE() << f.why << ": the ring was accepted";
        } catch (const ArchiveError &e) {
            EXPECT_EQ(e.section(), ArchiveSection::kFileHeader);
            EXPECT_NE(std::string(e.what()).find(f.why), std::string::npos)
                << e.what();
        }
    }
    std::filesystem::remove_all(ring);
}

TEST(Serialize, RejectsTruncated)
{
    Workload w("lu", 2, 3, WorkloadScale::tiny());
    const Recording rec =
        Recorder(ModeConfig::orderOnly(), machine(2)).record(w, 1);
    const std::string full = serialized(rec);
    EXPECT_THROW(load(full.substr(0, full.size() / 2)),
                 RecordingFormatError);
}

} // namespace
} // namespace delorean
