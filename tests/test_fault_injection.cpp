/**
 * @file
 * Fault-injection sweep over serialized recordings (fuzz tier).
 *
 * The PR acceptance gate: >= 500 mutated recordings across all three
 * modes must each either be rejected at load, replay identically, or
 * produce a structured DivergenceReport — never crash, hang or return
 * a silent wrong answer. Runs under the `fuzz` ctest label with a
 * bounded runtime (the replay event budget fences every mutant).
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/recorder.hpp"
#include "core/serialize.hpp"
#include "validate/fault_injector.hpp"

namespace delorean
{
namespace
{

constexpr std::uint64_t kSeed = 20080621;
// 35 mutants x 5 kinds x 3 modes = 525 total, over the gate's 500.
constexpr unsigned kMutantsPerKind = 35;

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
        return Recorder(mode, machine).record(workload, /*env_seed=*/1);
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
    const Recording rec =
        Recorder(ModeConfig::orderOnly(), machine).record(workload, 1);

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
    const std::string bytes(1024, '\x5A');
    for (unsigned k = 0; k < kMutationKinds; ++k) {
        const auto kind = static_cast<MutationKind>(k);
        EXPECT_EQ(mutateSerialized(bytes, kind, 7),
                  mutateSerialized(bytes, kind, 7));
        // Different seeds must (for this input) give different bytes
        // for at least one kind; weaker per-kind: output stays valid.
        const std::string m = mutateSerialized(bytes, kind, 8);
        EXPECT_LE(m.size(), bytes.size() + 8);
    }
    EXPECT_TRUE(mutateSerialized("", MutationKind::kBitFlip, 1).empty());
}

TEST(FaultInjector, TruncationShortensBitFlipPreservesLength)
{
    const std::string bytes(512, '\x11');
    EXPECT_LT(
        mutateSerialized(bytes, MutationKind::kTruncate, 3).size(),
        bytes.size());
    EXPECT_EQ(
        mutateSerialized(bytes, MutationKind::kBitFlip, 3).size(),
        bytes.size());
    EXPECT_EQ(
        mutateSerialized(bytes, MutationKind::kDuplicateWord, 3).size(),
        bytes.size() + 8);
    EXPECT_EQ(
        mutateSerialized(bytes, MutationKind::kReorderWords, 3).size(),
        bytes.size());
    EXPECT_EQ(
        mutateSerialized(bytes, MutationKind::kHeaderCorrupt, 3).size(),
        bytes.size());
}

TEST(FaultInjector, GarbageInputIsRejectedAtLoad)
{
    // A stream that is not a recording at all must classify as
    // rejected-at-load, not as unexpected.
    const std::string garbage(256, '\x00');
    const MutantResult r =
        runMutant(garbage, MutationKind::kBitFlip, /*seed=*/1);
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
