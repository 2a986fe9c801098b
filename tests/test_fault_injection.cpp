/**
 * @file
 * Fault-injection sweep over recording files (fuzz tier).
 *
 * The acceptance gate: >= 500 mutated recording files across all
 * three modes must each either be rejected at load, replay
 * identically, or produce a structured DivergenceReport — never
 * crash, hang or return a silent wrong answer. Runs under the `fuzz`
 * ctest label with a bounded runtime (the replay event budget fences
 * every mutant).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/recorder.hpp"
#include "core/serialize.hpp"
#include "store/archive.hpp"
#include "validate/fault_injector.hpp"

namespace delorean
{
namespace
{

constexpr std::uint64_t kSeed = 20080621;
// 20 mutants x 9 kinds x 3 modes = 540 total, over the gate's 500.
constexpr unsigned kMutantsPerKind = 20;
// Checkpoint period of the swept recordings, so the file holds
// keyframe chains for the chain forgeries to forge.
constexpr std::uint64_t kCheckpointPeriod = 10;

struct ModeCase
{
    const char *name;
    ModeConfig mode;
};

class FaultSweep : public testing::TestWithParam<int>
{
  protected:
    static ModeCase
    current()
    {
        switch (GetParam()) {
          case 0:
            return {"order-and-size", ModeConfig::orderAndSize()};
          case 1:
            return {"order-only", ModeConfig::orderOnly()};
          default:
            return {"picolog", ModeConfig::picoLog()};
        }
    }

    static Recording
    record(const ModeConfig &mode)
    {
        MachineConfig machine;
        machine.numProcs = 4;
        const Workload workload("fft", machine.numProcs, kSeed,
                                WorkloadScale{10});
        return Recorder(mode, machine)
            .record(workload, /*env_seed=*/1, true, {}, kCheckpointPeriod);
    }
};

TEST_P(FaultSweep, MutantsNeverCrashHangOrLie)
{
    const ModeCase mc = current();
    const Recording rec = record(mc.mode);
    const FaultSweepSummary sweep =
        runFaultSweep(rec, kMutantsPerKind, /*seed0=*/kSeed);
    EXPECT_EQ(sweep.total, kMutantsPerKind * kMutationKinds);
    EXPECT_TRUE(sweep.ok()) << mc.name << ": " << sweep.describe();
    // The sweep must actually exercise both sides of the contract:
    // some mutants rejected, some surviving to a verdict.
    EXPECT_GT(sweep.rejectedAtLoad, 0u) << mc.name;
    EXPECT_GT(sweep.replayedIdentically + sweep.divergenceDetected
                  + sweep.replayErrorReported,
              0u)
        << mc.name;
}

INSTANTIATE_TEST_SUITE_P(Modes, FaultSweep, testing::Range(0, 3));

std::vector<std::uint8_t>
fileOf(const Recording &rec)
{
    std::ostringstream out;
    saveRecording(rec, out);
    const std::string bytes = std::move(out).str();
    return std::vector<std::uint8_t>(bytes.begin(), bytes.end());
}

/**
 * Every chain forgery of a recording file — a keyframe's word count
 * changed, a delta's base GCC or memory hash forged, checkpoint 0
 * stored as a delta with no chain head before it, an address gap's
 * varint padded to a non-minimal encoding, each in a resealed record —
 * is a typed ArchiveError at load naming a segment, in every mode, and
 * the buffered and the mmap load paths agree on it.
 */
TEST(ChainFaults, ChainMutantsAreTypedRejections)
{
    constexpr MutationKind kChainKinds[] = {
        MutationKind::kKeyframeWordCount, MutationKind::kDeltaBaseGcc,
        MutationKind::kDeltaMemoryHash, MutationKind::kOrphanDelta,
        MutationKind::kNonMinimalVarint};
    ModeConfig strat = ModeConfig::orderOnly();
    strat.stratifyChunksPerProc = 4;
    for (const ModeConfig &mode :
         {ModeConfig::orderAndSize(), ModeConfig::orderOnly(), strat,
          ModeConfig::picoLog()}) {
        MachineConfig machine;
        machine.numProcs = 4;
        const Workload workload("fft", machine.numProcs, kSeed,
                                WorkloadScale{10});
        const Recording rec = Recorder(mode, machine)
                                  .record(workload, 1, true, {},
                                          kCheckpointPeriod);
        ASSERT_GE(rec.checkpoints.size(), 3u);
        const std::vector<std::uint8_t> bytes = fileOf(rec);
        for (const MutationKind kind : kChainKinds) {
            for (std::uint64_t seed = 0; seed < 12; ++seed) {
                const std::string what =
                    std::string(modeConfigName(mode)) + " "
                    + mutationKindName(kind) + " seed "
                    + std::to_string(seed);
                ASSERT_NE(mutateRecording(bytes, kind, seed), bytes)
                    << what;
                const MutantResult r = runMutant(bytes, kind, seed);
                EXPECT_EQ(r.outcome, MutantOutcome::kRejectedAtLoad)
                    << what << ": " << r.message;
                EXPECT_TRUE(r.typedArchiveError) << what << ": " << r.message;
                EXPECT_NE(r.segment, ArchiveError::kNoSegment)
                    << what << ": " << r.message;
                const MutantResult mapped = runMutant(
                    bytes, kind, seed, {}, ArchiveLoadPath::kMmapFile);
                EXPECT_EQ(mapped.outcome, r.outcome) << what;
                EXPECT_EQ(mapped.segment, r.segment) << what;
                EXPECT_EQ(mapped.message, r.message) << what;
            }
        }
    }
}

TEST(FaultSweepDetector, DetectorLegNeverCrashesHangsOrLies)
{
    // Detector leg of the sweep: the same no-crash/no-hang contract
    // with the happens-before race detector attached to every replay.
    // The base recording seeds races (fft~r2), so the detector is live
    // on every surviving mutant.
    MachineConfig machine;
    machine.numProcs = 4;
    const Workload workload("fft~r2", machine.numProcs, kSeed,
                            WorkloadScale{10});
    const Recording rec = Recorder(ModeConfig::orderOnly(), machine)
                              .record(workload, 1, true, {},
                                      kCheckpointPeriod);

    ReplayCheckOptions opts;
    opts.detectRaces = true;
    const FaultSweepSummary sweep =
        runFaultSweep(rec, kMutantsPerKind, /*seed0=*/kSeed, opts);
    EXPECT_EQ(sweep.total, kMutantsPerKind * kMutationKinds);
    EXPECT_TRUE(sweep.ok()) << sweep.describe();
    EXPECT_GT(sweep.rejectedAtLoad, 0u);
    EXPECT_GT(sweep.replayedIdentically + sweep.divergenceDetected
                  + sweep.replayErrorReported,
              0u);
}

TEST(FaultInjector, MutationsAreDeterministic)
{
    // Bytes that do not open: every kind degrades to a plain flip (a
    // truncation stays one), and the same seed gives the same mutant.
    const std::vector<std::uint8_t> bytes(1024, 0x5A);
    for (unsigned k = 0; k < kMutationKinds; ++k) {
        const auto kind = static_cast<MutationKind>(k);
        EXPECT_EQ(mutateRecording(bytes, kind, 7),
                  mutateRecording(bytes, kind, 7));
        EXPECT_NE(mutateRecording(bytes, kind, 8), bytes);
    }
    EXPECT_TRUE(mutateRecording({}, MutationKind::kRecordBitFlip, 1).empty());
}

TEST(FaultInjector, TruncationShortensBitFlipPreservesLength)
{
    const std::vector<std::uint8_t> bytes(512, 0x11);
    EXPECT_LT(mutateRecording(bytes, MutationKind::kTruncate, 3).size(),
              bytes.size());
    for (unsigned k = 0; k < kMutationKinds; ++k) {
        const auto kind = static_cast<MutationKind>(k);
        if (kind != MutationKind::kTruncate) {
            EXPECT_EQ(mutateRecording(bytes, kind, 3).size(), bytes.size())
                << mutationKindName(kind);
        }
    }
}

TEST(FaultInjector, GarbageInputIsRejectedAtLoad)
{
    // A file that is not a recording at all must classify as
    // rejected-at-load, not as unexpected.
    const std::vector<std::uint8_t> garbage(256, 0x00);
    const MutantResult r =
        runMutant(garbage, MutationKind::kRecordBitFlip, /*seed=*/1);
    EXPECT_EQ(r.outcome, MutantOutcome::kRejectedAtLoad);
}

TEST(FaultInjector, SummaryAccountingAddsUp)
{
    const Recording rec = []() {
        MachineConfig machine;
        machine.numProcs = 2;
        const Workload workload("radix", 2, kSeed, WorkloadScale{5});
        return Recorder(ModeConfig::orderOnly(), machine)
            .record(workload, 1);
    }();
    const FaultSweepSummary sweep = runFaultSweep(rec, 4, 99);
    EXPECT_EQ(sweep.total, 4u * kMutationKinds);
    EXPECT_EQ(sweep.total,
              sweep.rejectedAtLoad + sweep.replayedIdentically
                  + sweep.divergenceDetected + sweep.replayErrorReported
                  + sweep.unexpected);
    EXPECT_EQ(sweep.unexpectedResults.size(), sweep.unexpected);
    EXPECT_FALSE(sweep.describe().empty());
}

} // namespace
} // namespace delorean
