/**
 * @file
 * Recording persistence tests: save/load round trips, replay of a
 * recording that went through disk, pinned hashes of the .dlrec and
 * .dla byte images, format v1 loading, and typed rejection of the two
 * constant v2 fields (arbiter count 1, PI has-masks flag 0).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>

#include "common/errors.hpp"
#include "common/rng.hpp"
#include "core/delorean.hpp"
#include "core/serialize.hpp"
#include "store/archive.hpp"

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

TEST(Serialize, GoldenBytesArePinned)
{
    // One small fixed run per mode configuration. The hashes pin the
    // .dlrec and .dla byte images, so any drift in the wire formats,
    // the recorder's logs or the fingerprints fails here.
    struct Golden
    {
        const char *label;
        ModeConfig mode;
        std::uint64_t recordingHash;
        std::uint64_t archiveHash;
    };
    ModeConfig strat = ModeConfig::orderOnly();
    strat.stratifyChunksPerProc = 3;
    const Golden goldens[] = {
        {"order-and-size", ModeConfig::orderAndSize(),
         0x106ed7879a1fe22cull, 0x0d36fc53a2b06f19ull},
        {"order-only", ModeConfig::orderOnly(), 0x9833376a1237a0ddull,
         0xd698ac8dc50e6208ull},
        {"order-only-strat", strat, 0xb31510eb6702f9b9ull,
         0x8422cf8225ac001dull},
        {"picolog", ModeConfig::picoLog(), 0xddc8c740d6a95a9eull,
         0x5d8df3650ad7243cull},
    };
    for (const Golden &g : goldens) {
        Workload w("fft", 4, 7, WorkloadScale::tiny());
        const Recording rec =
            Recorder(g.mode, machine()).record(w, 1, true, {}, 40);
        ASSERT_FALSE(rec.checkpoints.empty()) << g.label;
        std::ostringstream dla;
        writeArchive(rec, dla);
        EXPECT_EQ(bytesHash(serialized(rec)), g.recordingHash)
            << g.label << std::hex << " recording hash 0x"
            << bytesHash(serialized(rec));
        EXPECT_EQ(bytesHash(dla.str()), g.archiveHash)
            << g.label << std::hex << " archive hash 0x"
            << bytesHash(dla.str());
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
    const std::string v2 = serialized(rec);
    ASSERT_EQ(u64At(v2, kArbiterCountOffset), 1u);
    ASSERT_EQ(u64At(v2, hasMasksOffset(v2)), 0u);

    std::istringstream in(downgradeToV1(v2));
    const Recording loaded = loadRecording(in);
    EXPECT_EQ(loaded.pi.entryCount(), rec.pi.entryCount());
    EXPECT_TRUE(Replayer().replay(loaded, 5).deterministicExact);
    // Re-serializing writes format v2, byte-identical to the original.
    EXPECT_EQ(serialized(loaded), v2);
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
