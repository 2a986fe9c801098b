/**
 * @file
 * Unit tests for the validation subsystem (src/validate/): interval
 * fingerprints, the divergence localizer, checked replay and the
 * cross-mode differential checker.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/fingerprint.hpp"
#include "core/pi_log.hpp"
#include "core/recorder.hpp"
#include "validate/differential.hpp"
#include "validate/localizer.hpp"
#include "validate/replay_check.hpp"

namespace delorean
{
namespace
{

constexpr std::uint64_t kSeed = 20080621;

/** Synthetic commit stream: n commits round-robin over 4 procs. */
ExecutionFingerprint
syntheticStream(std::size_t n)
{
    ExecutionFingerprint fp;
    fp.perProcAcc.assign(4, 0);
    fp.perProcRetired.assign(4, 0);
    for (std::size_t i = 0; i < n; ++i) {
        CommitRecord c;
        c.proc = static_cast<ProcId>(i % 4);
        c.seq = static_cast<ChunkSeq>(i / 4);
        c.size = 100 + static_cast<InstrCount>(i);
        c.accAfter = mix64(i + 1);
        fp.commits.push_back(c);
        fp.perProcAcc[c.proc] = c.accAfter;
        fp.perProcRetired[c.proc] += c.size;
    }
    fp.finalMemHash = mix64(n);
    return fp;
}

Recording
recordApp(const std::string &app, const ModeConfig &mode,
          unsigned scale = 5)
{
    MachineConfig machine;
    machine.numProcs = 4;
    const Workload workload(app, machine.numProcs, kSeed,
                            WorkloadScale{scale});
    return Recorder(mode, machine).record(workload, /*env_seed=*/1);
}

TEST(IntervalFingerprints, BoundaryCountAndCoverage)
{
    const ExecutionFingerprint fp = syntheticStream(10);
    const IntervalFingerprints iv = IntervalFingerprints::build(fp, 4);
    // ceil(10/4) = 3 boundaries + the seed entry.
    EXPECT_EQ(iv.boundaryCount(), 4u);
    EXPECT_EQ(iv.coveredAt(0), 0u);
    EXPECT_EQ(iv.coveredAt(1), 4u);
    EXPECT_EQ(iv.coveredAt(2), 8u);
    EXPECT_EQ(iv.coveredAt(3), 10u); // clamped
    EXPECT_EQ(iv.coveredAt(100), 10u);
    // Past-the-end boundaries clamp to the final hash.
    EXPECT_EQ(iv.prefixAt(100), iv.prefixes.back());
}

TEST(IntervalFingerprints, ZeroPeriodTreatedAsOne)
{
    const ExecutionFingerprint fp = syntheticStream(3);
    const IntervalFingerprints iv = IntervalFingerprints::build(fp, 0);
    EXPECT_EQ(iv.period, 1u);
    EXPECT_EQ(iv.boundaryCount(), 4u);
}

TEST(IntervalFingerprints, PrefixEqualityIsMonotone)
{
    const ExecutionFingerprint a = syntheticStream(64);
    ExecutionFingerprint b = a;
    b.commits[29].accAfter ^= 1; // diverge inside interval 3 (period 8)

    const IntervalFingerprints fa = IntervalFingerprints::build(a, 8);
    const IntervalFingerprints fb = IntervalFingerprints::build(b, 8);
    bool agreed_so_far = true;
    for (std::uint64_t k = 0; k < fa.boundaryCount(); ++k) {
        const bool agree = fa.prefixAt(k) == fb.prefixAt(k);
        // Once disagreement starts it must never flip back.
        EXPECT_TRUE(agreed_so_far || !agree) << "k=" << k;
        agreed_so_far = agree;
        if (fa.coveredAt(k) <= 29)
            EXPECT_TRUE(agree) << "k=" << k;
        else
            EXPECT_FALSE(agree) << "k=" << k;
    }
}

TEST(Localizer, EqualFingerprintsReportNone)
{
    const ExecutionFingerprint fp = syntheticStream(40);
    const DivergenceReport r = localizeDivergence(fp, fp, nullptr);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.kind, DivergenceKind::kNone);
}

TEST(Localizer, NamesTheFirstTamperedCommit)
{
    const ExecutionFingerprint a = syntheticStream(200);
    for (const std::size_t victim : {std::size_t{0}, std::size_t{97},
                                     std::size_t{199}}) {
        ExecutionFingerprint b = a;
        b.commits[victim].accAfter ^= 0xBEEF;

        LocalizerOptions opts;
        opts.period = 16;
        const DivergenceReport r = localizeDivergence(a, b, nullptr, opts);
        EXPECT_EQ(r.kind, DivergenceKind::kCommitDivergence);
        EXPECT_TRUE(r.haveCommits);
        EXPECT_EQ(r.commitIndex, victim);
        EXPECT_EQ(r.expected, a.commits[victim]);
        EXPECT_EQ(r.actual, b.commits[victim]);
        EXPECT_EQ(r.proc, a.commits[victim].proc);
        EXPECT_EQ(r.seq, a.commits[victim].seq);
        // Binary search: far fewer probes than a linear scan of the
        // 13 interval boundaries would need, but at least one.
        EXPECT_GE(r.probes, 1u);
        EXPECT_LE(r.probes, 8u);
        EXPECT_FALSE(r.describe().empty());
    }
}

TEST(Localizer, SecondDivergenceDoesNotMaskTheFirst)
{
    const ExecutionFingerprint a = syntheticStream(100);
    ExecutionFingerprint b = a;
    b.commits[40].size += 1;
    b.commits[77].accAfter ^= 2;
    const DivergenceReport r = localizeDivergence(a, b, nullptr);
    EXPECT_EQ(r.kind, DivergenceKind::kCommitDivergence);
    EXPECT_EQ(r.commitIndex, 40u);
}

TEST(Localizer, MissingAndExtraCommits)
{
    const ExecutionFingerprint a = syntheticStream(50);
    ExecutionFingerprint truncated = a;
    truncated.commits.resize(47);
    DivergenceReport r = localizeDivergence(a, truncated, nullptr);
    EXPECT_EQ(r.kind, DivergenceKind::kMissingCommits);
    EXPECT_EQ(r.commitIndex, 47u);
    EXPECT_EQ(r.expected, a.commits[47]);

    r = localizeDivergence(truncated, a, nullptr);
    EXPECT_EQ(r.kind, DivergenceKind::kExtraCommits);
    EXPECT_EQ(r.commitIndex, 47u);
    EXPECT_EQ(r.actual, a.commits[47]);
}

TEST(Localizer, StateDivergenceNamesTheProc)
{
    const ExecutionFingerprint a = syntheticStream(20);
    ExecutionFingerprint b = a;
    b.perProcAcc[2] ^= 5;
    const DivergenceReport r = localizeDivergence(a, b, nullptr);
    EXPECT_EQ(r.kind, DivergenceKind::kStateDivergence);
    EXPECT_EQ(r.proc, 2u);

    b = a;
    b.finalMemHash ^= 1;
    const DivergenceReport rm = localizeDivergence(a, b, nullptr);
    EXPECT_EQ(rm.kind, DivergenceKind::kStateDivergence);
    EXPECT_NE(rm.message.find("memory hash"), std::string::npos);
}

TEST(Localizer, AttributesFlatPiLogRecord)
{
    const Recording rec = recordApp("fft", ModeConfig::orderOnly());
    ASSERT_GT(rec.fingerprint.commits.size(), 4u);
    const std::size_t victim = rec.fingerprint.commits.size() / 2;
    ExecutionFingerprint tampered = rec.fingerprint;
    tampered.commits[victim].accAfter ^= 0xF00D;

    const DivergenceReport r =
        localizeDivergence(rec.fingerprint, tampered, &rec);
    EXPECT_EQ(r.kind, DivergenceKind::kCommitDivergence);
    EXPECT_EQ(r.commitIndex, victim);
    EXPECT_EQ(r.logName, "pi");
    ASSERT_GE(r.logIndex, 0);
    // The named PI entry must be the divergent chunk's processor.
    EXPECT_EQ(rec.pi.entryAt(static_cast<std::size_t>(r.logIndex)),
              rec.fingerprint.commits[victim].proc);
}

TEST(Localizer, AttributesStratifiedLogRecord)
{
    ModeConfig mode = ModeConfig::orderOnly();
    mode.stratifyChunksPerProc = 3;
    const Recording rec = recordApp("fft", mode);
    ASSERT_TRUE(rec.stratified());
    ASSERT_GT(rec.fingerprint.commits.size(), 4u);
    const std::size_t victim = rec.fingerprint.commits.size() / 2;
    ExecutionFingerprint tampered = rec.fingerprint;
    tampered.commits[victim].accAfter ^= 0xF00D;

    const DivergenceReport r =
        localizeDivergence(rec.fingerprint, tampered, &rec);
    EXPECT_EQ(r.kind, DivergenceKind::kCommitDivergence);
    EXPECT_EQ(r.proc, rec.fingerprint.commits[victim].proc);
    EXPECT_EQ(r.logName, "strata");
    ASSERT_GE(r.logIndex, 0);
    ASSERT_LT(static_cast<std::size_t>(r.logIndex), rec.strata.size());
    // The named stratum must give the processor budget to commit.
    EXPECT_GT(rec.strata[static_cast<std::size_t>(r.logIndex)]
                  .counts[r.proc],
              0u);
}

TEST(Localizer, AttributesPicoLogRecord)
{
    const Recording rec = recordApp("radix", ModeConfig::picoLog());
    ASSERT_GT(rec.fingerprint.commits.size(), 4u);
    const std::size_t victim = rec.fingerprint.commits.size() / 2;
    ExecutionFingerprint tampered = rec.fingerprint;
    tampered.commits[victim].size += 1;

    const DivergenceReport r =
        localizeDivergence(rec.fingerprint, tampered, &rec);
    EXPECT_EQ(r.kind, DivergenceKind::kCommitDivergence);
    // PicoLog has no PI log: attribution is either a CS truncation
    // record for that chunk or the predefined order itself.
    const std::string cs_name =
        "cs[" + std::to_string(r.proc) + "]";
    EXPECT_TRUE(r.logName == cs_name
                || r.logName == "(predefined order)")
        << r.logName;
}

/**
 * fft at scale 5 on the default 8-processor machine, OrderOnly-style
 * modes, a checkpoint every 10 commits: checkpoint 2 sits at GCC 30,
 * checkpoint 3 at GCC 40.
 */
Recording
recordCheckpointed(const ModeConfig &mode)
{
    const MachineConfig machine;
    const Workload workload("fft", machine.numProcs, kSeed,
                            WorkloadScale{5});
    return Recorder(mode, machine).record(workload, /*env_seed=*/1, true,
                                          {}, /*checkpoint_period=*/10);
}

/** The same divergence, reported by a full-run and an interval check. */
void
expectSameRecordNamed(const Recording &rec, const std::string &label)
{
    const ReplayCheckResult full = checkedReplay(rec);
    ReplayCheckOptions opts;
    opts.startCheckpoint = 2;
    opts.stopCheckpoint = 3;
    const ReplayCheckResult interval = checkedReplay(rec, opts);
    ASSERT_FALSE(full.ok) << label;
    ASSERT_FALSE(interval.ok) << label;
    EXPECT_EQ(full.report.kind, interval.report.kind) << label;
    EXPECT_EQ(full.report.logName, interval.report.logName) << label;
    EXPECT_EQ(full.report.logIndex, interval.report.logIndex) << label;
    EXPECT_EQ(full.report.commitIndex, interval.report.commitIndex)
        << label;
    EXPECT_EQ(full.report.proc, interval.report.proc) << label;
    EXPECT_EQ(full.report.seq, interval.report.seq) << label;
    EXPECT_EQ(full.report.message, interval.report.message) << label;
}

TEST(Localizer, IntervalReportNamesTheFullRunPiRecord)
{
    // Swap PI entries 33 and 34, which lie after checkpoint 2 (GCC
    // 30): the interval check from checkpoint 2 must name pi[33] like
    // the full run, not count PI entries from the checkpoint.
    Recording rec = recordCheckpointed(ModeConfig::orderOnly());
    ASSERT_GE(rec.checkpoints.size(), 4u);
    ASSERT_EQ(rec.checkpoints[2].gcc, 30u);
    ASSERT_EQ(rec.checkpoints[3].gcc, 40u);
    ASSERT_NE(rec.pi.entryAt(33), rec.pi.entryAt(34));
    PiLog swapped(rec.machine.numProcs);
    for (std::size_t i = 0; i < rec.pi.entryCount(); ++i)
        swapped.append(rec.pi.entryAt(i == 33 ? 34 : i == 34 ? 33 : i));
    rec.pi = swapped;

    expectSameRecordNamed(rec, "order-only");
    const ReplayCheckResult full = checkedReplay(rec);
    EXPECT_EQ(full.report.logName, "pi");
    EXPECT_EQ(full.report.logIndex, 33);
}

TEST(Localizer, IntervalAndFullRunReportsNameTheSameRecord)
{
    ModeConfig strat = ModeConfig::orderOnly();
    strat.stratifyChunksPerProc = 3;
    for (const auto &[label, mode] :
         {std::pair{"order-only", ModeConfig::orderOnly()},
          std::pair{"order-only-strat", strat},
          std::pair{"picolog", ModeConfig::picoLog()}}) {
        Recording rec = recordCheckpointed(mode);
        ASSERT_GE(rec.checkpoints.size(), 4u) << label;
        // Tamper with a recorded commit two into I(ckpt 2, ckpt 3).
        std::uint64_t before = 0;
        for (const ChunkSeq c : rec.checkpoints[2].committedChunks)
            before += c;
        const std::size_t victim = static_cast<std::size_t>(before) + 2;
        ASSERT_LT(victim, rec.fingerprint.commits.size()) << label;
        rec.fingerprint.commits[victim].accAfter ^= 0xF00D;
        expectSameRecordNamed(rec, label);
    }
}

TEST(CheckedReplay, GoodRecordingPasses)
{
    const Recording rec = recordApp("fft", ModeConfig::orderOnly());
    const ReplayCheckResult result = checkedReplay(rec);
    EXPECT_TRUE(result.ok);
    EXPECT_TRUE(result.replayRan);
    EXPECT_TRUE(result.report.ok());
}

TEST(CheckedReplay, TinyEventBudgetReportsReplayError)
{
    const Recording rec = recordApp("fft", ModeConfig::orderOnly());
    ReplayCheckOptions opts;
    opts.maxEvents = 10;
    const ReplayCheckResult result = checkedReplay(rec, opts);
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.report.kind, DivergenceKind::kReplayError);
    EXPECT_NE(result.report.message.find("budget"), std::string::npos);
}

TEST(CheckedReplay, MalformedRecordingRejectedUpFront)
{
    Recording rec = recordApp("fft", ModeConfig::orderOnly());
    rec.machine.numProcs = 0;
    const ReplayCheckResult result = checkedReplay(rec);
    EXPECT_FALSE(result.ok);
    EXPECT_FALSE(result.replayRan);
    EXPECT_EQ(result.report.kind, DivergenceKind::kFormatError);
}

TEST(CheckedReplay, UnknownAppIsAWorkloadError)
{
    Recording rec = recordApp("fft", ModeConfig::orderOnly());
    rec.appName = "no-such-app";
    const ReplayCheckResult result = checkedReplay(rec);
    EXPECT_FALSE(result.ok);
    EXPECT_EQ(result.report.kind, DivergenceKind::kFormatError);
}

TEST(CheckedReplay, BudgetScalesWithContentNotStats)
{
    Recording rec = recordApp("fft", ModeConfig::orderOnly());
    const std::uint64_t budget = defaultReplayEventBudget(rec);
    // A corrupted stats block must not inflate the budget.
    rec.stats.retiredInstrs = ~0ull;
    rec.stats.totalCycles = ~0ull;
    EXPECT_EQ(defaultReplayEventBudget(rec), budget);
}

TEST(Checkpoint, PeriodicGccs)
{
    EXPECT_EQ(periodicCheckpointGccs(10, 4),
              (std::vector<std::uint64_t>{4, 8}));
    EXPECT_EQ(periodicCheckpointGccs(12, 4),
              (std::vector<std::uint64_t>{4, 8, 12}));
    EXPECT_TRUE(periodicCheckpointGccs(3, 4).empty());
    EXPECT_TRUE(periodicCheckpointGccs(100, 0).empty());
}

TEST(Differential, PassesOnRealWorkloads)
{
    const DifferentialChecker checker;
    for (const char *app : {"fft", "radix"}) {
        DifferentialJob job;
        job.app = app;
        const DifferentialResult result = checker.check(job);
        EXPECT_TRUE(result.ok()) << result.describe();
        ASSERT_EQ(result.runs.size(), 4u);
        EXPECT_NE(result.findRun("order-and-size"), nullptr);
        EXPECT_NE(result.findRun("order-only"), nullptr);
        EXPECT_NE(result.findRun("order-only-strat"), nullptr);
        EXPECT_NE(result.findRun("picolog"), nullptr);
        for (const DifferentialRun &run : result.runs) {
            EXPECT_TRUE(run.roundTripIdentical) << run.label;
            EXPECT_TRUE(run.replayOk) << run.label;
            EXPECT_TRUE(run.intervalsMatch) << run.label;
        }
        // PicoLog writes no PI bits; stratified PI <= flat PI.
        EXPECT_EQ(result.findRun("picolog")->sizes.pi.rawBits, 0u);
        EXPECT_LE(result.findRun("order-only-strat")->sizes.pi.rawBits,
                  result.findRun("order-only")->sizes.pi.rawBits);
    }
}

TEST(Differential, DescribeMentionsEveryRun)
{
    const DifferentialChecker checker;
    DifferentialJob job;
    job.app = "water-sp";
    const DifferentialResult result = checker.check(job);
    const std::string text = result.describe();
    for (const char *label : {"order-and-size", "order-only",
                              "order-only-strat", "picolog"})
        EXPECT_NE(text.find(label), std::string::npos) << label;
}

} // namespace
} // namespace delorean
