/**
 * @file
 * Chunk-parallel replay tests: the WorkerPool substrate, serial vs.
 * host-parallel chunk-body replay fingerprint equality across all
 * modes, window sizes and worker counts, interval-fingerprint
 * byte-identity, fault-report parity, the livelock budgets, and
 * interval replay (Appendix B) from checkpoints: functional vs. DES
 * fingerprints, both checked entry points, typed errors for
 * checkpoints the recording cannot back.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/errors.hpp"
#include "core/delorean.hpp"
#include "core/serialize.hpp"
#include "sim/campaign.hpp"
#include "sim/parallel_replay.hpp"
#include "store/archive.hpp"
#include "validate/replay_check.hpp"

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

/** The four (mode, PI-flavor) configurations under test. */
std::vector<std::pair<std::string, ModeConfig>>
allConfigs()
{
    ModeConfig strat = ModeConfig::orderOnly();
    strat.stratifyChunksPerProc = 3;
    return {
        {"order-and-size", ModeConfig::orderAndSize()},
        {"order-only", ModeConfig::orderOnly()},
        {"order-only-strat", strat},
        {"picolog", ModeConfig::picoLog()},
    };
}

Recording
recordOne(const ModeConfig &mode, const char *app = "fft",
          unsigned procs = 4)
{
    Workload w(app, procs, 7, WorkloadScale::tiny());
    return Recorder(mode, machine(procs)).record(w, 1);
}

/// Fingerprint comparison rule: exact for flat logs, per-processor
/// streams for stratified ones (global interleaving legally relaxed).
bool
fingerprintsAgree(const Recording &rec, const ExecutionFingerprint &a,
                  const ExecutionFingerprint &b)
{
    return rec.stratified() ? a.matchesPerProc(b) : a.matchesExact(b);
}

/// Per-boundary interval fingerprints are byte-identical (prefix
/// hashes equal at every period boundary), per-proc when stratified.
bool
intervalsAgree(const Recording &rec, const ExecutionFingerprint &a,
               const ExecutionFingerprint &b, std::uint64_t period = 16)
{
    const auto prefixes = [period](const ExecutionFingerprint &fp) {
        return IntervalFingerprints::build(fp, period).prefixes;
    };
    if (!rec.stratified())
        return prefixes(a) == prefixes(b);
    for (ProcId p = 0; p < rec.machine.numProcs; ++p) {
        ExecutionFingerprint pa, pb;
        pa.commits = a.procStream(p);
        pb.commits = b.procStream(p);
        if (prefixes(pa) != prefixes(pb))
            return false;
    }
    return true;
}

// ---------------------------------------------------------------------
// WorkerPool substrate
// ---------------------------------------------------------------------

TEST(WorkerPool, RunsEveryTaskExactlyOnce)
{
    WorkerPool pool(4);
    std::vector<std::atomic<int>> hits(100);
    std::vector<std::function<void()>> tasks;
    for (std::size_t i = 0; i < hits.size(); ++i)
        tasks.push_back([&hits, i] { ++hits[i]; });
    pool.runBatch(tasks);
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "task " << i;
}

TEST(WorkerPool, ReusableAcrossManyBatches)
{
    WorkerPool pool(4);
    std::atomic<int> total{0};
    for (int batch = 0; batch < 50; ++batch) {
        std::vector<std::function<void()>> tasks;
        for (int i = 0; i < 7; ++i)
            tasks.push_back([&total] { ++total; });
        pool.runBatch(tasks);
    }
    EXPECT_EQ(total.load(), 50 * 7);
}

TEST(WorkerPool, RethrowsTaskException)
{
    WorkerPool pool(4);
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 16; ++i)
        tasks.push_back([i] {
            if (i == 9)
                throw std::runtime_error("task 9 failed");
        });
    EXPECT_THROW(pool.runBatch(tasks), std::runtime_error);

    // The pool survives a failed batch.
    std::atomic<int> ran{0};
    std::vector<std::function<void()>> next;
    next.push_back([&ran] { ++ran; });
    pool.runBatch(next);
    EXPECT_EQ(ran.load(), 1);
}

TEST(WorkerPool, SingleJobRunsInline)
{
    WorkerPool pool(1);
    EXPECT_EQ(pool.jobs(), 1u);
    int ran = 0;
    std::vector<std::function<void()>> tasks;
    tasks.push_back([&ran] { ++ran; });
    pool.runBatch(tasks);
    EXPECT_EQ(ran, 1);
}

// ---------------------------------------------------------------------
// Serial engine replay
// ---------------------------------------------------------------------

TEST(ParallelReplay, StratifiedReplayCountsRelaxedRetires)
{
    ModeConfig strat = ModeConfig::orderOnly();
    strat.stratifyChunksPerProc = 3;
    const Recording rec = recordOne(strat);
    const ReplayCheckResult out = checkedReplay(rec);
    ASSERT_TRUE(out.ok);
    // Every strata-relaxed retire is a retire; the counter can never
    // exceed the number of committed chunks.
    EXPECT_LE(out.outcome.stats.strataRelaxedRetires,
              out.outcome.stats.committedChunks);
}

// ---------------------------------------------------------------------
// Host-parallel chunk-body replayer
// ---------------------------------------------------------------------

TEST(ParallelReplay, ChunkParallelMatchesSerialAcrossJobsAndWindows)
{
    for (const auto &[label, mode] : allConfigs()) {
        const Recording rec = recordOne(mode);

        const ReplayCheckResult serial = checkedReplay(rec, {});
        ASSERT_TRUE(serial.ok) << label;

        for (const unsigned jobs : {1u, 2u, 4u}) {
            for (const unsigned window : {1u, 2u, 8u}) {
                ParallelReplayOptions popts;
                popts.jobs = jobs;
                popts.window = window;
                const ReplayCheckResult par =
                    checkedParallelReplay(rec, popts);
                ASSERT_TRUE(par.ok)
                    << label << " jobs " << jobs << " window " << window
                    << ": " << par.report.describe();
                EXPECT_TRUE(fingerprintsAgree(
                    rec, par.outcome.fingerprint,
                    serial.outcome.fingerprint))
                    << label << " jobs " << jobs << " window " << window;
                EXPECT_TRUE(intervalsAgree(rec, par.outcome.fingerprint,
                                           serial.outcome.fingerprint))
                    << label << " jobs " << jobs << " window " << window;
            }
        }
    }
}

TEST(ParallelReplay, SixteenCoreReplayMatchesSerial)
{
    // 16 simulated cores: record, then verify both replay paths
    // reproduce the execution byte-identically.
    const Recording rec = recordOne(ModeConfig::orderOnly(), "lu", 16);
    const ReplayCheckResult serial = checkedReplay(rec, {});
    ASSERT_TRUE(serial.ok) << serial.report.describe();

    ParallelReplayOptions popts;
    popts.window = 16;
    popts.jobs = 4;
    const ReplayCheckResult par = checkedParallelReplay(rec, popts);
    ASSERT_TRUE(par.ok) << par.report.describe();
    EXPECT_TRUE(serial.outcome.fingerprint.matchesExact(
        par.outcome.fingerprint));
}

TEST(ParallelReplay, ChunkParallelReplaysIoHeavyApp)
{
    // sweb2005 exercises the I/O log; replaying with a different
    // worker count must not change which logged value each load sees.
    Workload w("sweb2005", 4, 7, WorkloadScale{30});
    const Recording rec =
        Recorder(ModeConfig::orderOnly(), machine()).record(w, 1);
    ASSERT_GT(rec.io.totalEntries(), 0u);

    ParallelReplayOptions popts;
    popts.jobs = 4;
    popts.window = 8;
    const ReplayCheckResult par = checkedParallelReplay(rec, popts);
    EXPECT_TRUE(par.ok) << par.report.describe();
}

TEST(ParallelReplay, ChunkParallelStatsAccountForAllRetiredWork)
{
    const Recording rec = recordOne(ModeConfig::orderAndSize());
    ParallelReplayOptions popts;
    popts.jobs = 4;
    popts.window = 8;
    const ReplayCheckResult par = checkedParallelReplay(rec, popts);
    ASSERT_TRUE(par.ok);
    const EngineStats &stats = par.outcome.stats;
    EXPECT_EQ(stats.committedChunks, rec.fingerprint.commits.size());
    // Speculative execution may run more instructions than retire
    // (squash re-executions), never fewer.
    EXPECT_GE(stats.executedInstrs, stats.retiredInstrs);
    EXPECT_GT(stats.replayWindowOccupancy.count(), 0u);
    EXPECT_LE(stats.replayWindowOccupancy.max(), 8.0);
}

// ---------------------------------------------------------------------
// Fault parity: a corrupted recording produces the same structured
// divergence report from serial and parallel replay.
// ---------------------------------------------------------------------

TEST(ParallelReplay, FaultInjectedReplayReportsSameChunkAsSerial)
{
    Workload w("sweb2005", 4, 7, WorkloadScale{30});
    Recording rec =
        Recorder(ModeConfig::orderOnly(), machine()).record(w, 1);
    ProcId victim = kDmaProcId;
    for (ProcId p = 0; p < rec.machine.numProcs; ++p) {
        if (rec.io.countFor(p) > 0) {
            victim = p;
            break;
        }
    }
    ASSERT_NE(victim, kDmaProcId) << "no proc logged any I/O";

    // Flip one logged I/O value: replay still runs to completion but
    // the architectural execution diverges from the recorded one.
    const std::uint64_t idx = rec.io.countFor(victim) / 2;
    rec.io.append(victim, idx, rec.io.valueAt(victim, idx) ^ 0xBEEF);

    const ReplayCheckResult serial = checkedReplay(rec, {});
    ASSERT_FALSE(serial.ok);
    ASSERT_TRUE(serial.replayRan);

    ParallelReplayOptions popts;
    popts.jobs = 4;
    popts.window = 8;
    const ReplayCheckResult par = checkedParallelReplay(rec, popts);
    ASSERT_FALSE(par.ok);
    ASSERT_TRUE(par.replayRan);

    // Same structured report: kind, first divergent chunk, processor.
    EXPECT_EQ(par.report.kind, serial.report.kind);
    EXPECT_EQ(par.report.commitIndex, serial.report.commitIndex);
    EXPECT_EQ(par.report.proc, serial.report.proc);
    // And both replayed the same (divergent) execution.
    EXPECT_TRUE(par.outcome.fingerprint.matchesExact(
        serial.outcome.fingerprint));
}

// ---------------------------------------------------------------------
// Livelock budgets
// ---------------------------------------------------------------------

TEST(ParallelReplay, StalledReplayFailsPromptly)
{
    // A replay that cannot finish within its budget must fail with a
    // typed report, not run on to the global safety valve.
    const Recording rec = recordOne(ModeConfig::orderOnly());
    ReplayCheckOptions opts;
    opts.maxEvents = 50; // far below any healthy replay
    const ReplayCheckResult out = checkedReplay(rec, opts);
    EXPECT_FALSE(out.ok);
    EXPECT_FALSE(out.replayRan);
    EXPECT_EQ(out.report.kind, DivergenceKind::kReplayError);
}

TEST(ParallelReplay, ChunkParallelInstrBudgetFences)
{
    const Recording rec = recordOne(ModeConfig::orderOnly());
    ParallelReplayOptions popts;
    popts.jobs = 2;
    popts.window = 8;
    popts.maxInstrs = 10; // far below the recorded instruction count
    const ReplayCheckResult out = checkedParallelReplay(rec, popts);
    EXPECT_FALSE(out.ok);
    EXPECT_FALSE(out.replayRan);
    EXPECT_EQ(out.report.kind, DivergenceKind::kReplayError);

    // Spin-heavy: most of ocean's instructions are barrier spins,
    // retired in runs by the fast-forward, and every one of them is
    // charged. A budget one below the recorded work cannot suffice.
    const Recording ocean = recordOne(ModeConfig::orderOnly(), "ocean");
    std::uint64_t recorded = 0;
    for (const CommitRecord &c : ocean.fingerprint.commits)
        recorded += c.size;
    popts.maxInstrs = recorded - 1;
    const ReplayCheckResult spin = checkedParallelReplay(ocean, popts);
    EXPECT_FALSE(spin.ok);
    EXPECT_FALSE(spin.replayRan);
    EXPECT_EQ(spin.report.kind, DivergenceKind::kReplayError);

    // ... and a budget of exactly the instructions a clean replay
    // executes suffices: the charge counts each instruction once.
    popts.maxInstrs = 0;
    const ReplayCheckResult clean = checkedParallelReplay(ocean, popts);
    ASSERT_TRUE(clean.ok) << clean.report.describe();
    popts.maxInstrs = clean.outcome.stats.executedInstrs;
    EXPECT_TRUE(checkedParallelReplay(ocean, popts).ok);
    popts.maxInstrs = clean.outcome.stats.executedInstrs - 1;
    EXPECT_EQ(checkedParallelReplay(ocean, popts).report.kind,
              DivergenceKind::kReplayError);
}

TEST(ParallelReplay, DefaultInstrBudgetCoversRecordedWork)
{
    const Recording rec = recordOne(ModeConfig::orderOnly());
    std::uint64_t recorded = 0;
    for (const CommitRecord &c : rec.fingerprint.commits)
        recorded += c.size;
    const std::uint64_t budget = defaultParallelReplayInstrBudget(rec);
    EXPECT_GE(budget, 4 * recorded);
    EXPECT_GT(budget, 0u);
}

// ---------------------------------------------------------------------
// Interval replay from checkpoints
// ---------------------------------------------------------------------

constexpr std::uint64_t kIntervalSeed = 20080621;

/// 4 processors at scale 10, a checkpoint every @p period commits.
Recording
recordCheckpointed(const ModeConfig &mode, const std::string &app = "fft",
                   std::uint64_t period = 10)
{
    const Workload w(app, 4, kIntervalSeed, WorkloadScale{10});
    return Recorder(mode, machine(4)).record(w, 1, true, {}, period);
}

Workload
workloadOf(const Recording &rec)
{
    return Workload(rec.appName, rec.machine.numProcs, rec.workloadSeed,
                    WorkloadScale{rec.iterationsPercent});
}

ReplayOutcome
functionalInterval(const Recording &rec, const Workload &w,
                   const SystemCheckpoint *start,
                   const SystemCheckpoint *stop, unsigned jobs = 1)
{
    ParallelReplayOptions popts;
    popts.jobs = jobs;
    popts.startCheckpoint = start;
    popts.stopCheckpoint = stop;
    return ParallelReplayer(popts).replay(rec, w);
}

TEST(IntervalReplay, FunctionalMatchesDesOnEveryCheckpointInterval)
{
    // Every bounded interval I(ckpt i, ckpt i+1) and the open one
    // from the last checkpoint, on the DES under perturbation and on
    // the functional replayer: both reproduce the recording, and
    // their fingerprints agree (per processor when stratified).
    std::size_t intervals = 0;
    for (const char *app :
         {"fft", "radix", "ocean", "sjbb2k", "barnes", "fft~r2"}) {
        for (const auto &[label, mode] : allConfigs()) {
            const Recording rec = recordCheckpointed(mode, app);
            ASSERT_GT(rec.checkpoints.size(), 1u) << app << " " << label;
            const Workload w = workloadOf(rec);
            for (std::size_t i = 0; i < rec.checkpoints.size(); ++i) {
                const SystemCheckpoint *stop =
                    i + 1 < rec.checkpoints.size()
                        ? &rec.checkpoints[i + 1]
                        : nullptr;
                ReplayPerturbation perturb;
                perturb.enabled = true;
                perturb.seed = 31 * i + 7;
                const ReplayOutcome des = Replayer().replayInterval(
                    rec, i, w, 99 + i, perturb, stop);
                const ReplayOutcome fn = functionalInterval(
                    rec, w, &rec.checkpoints[i], stop);
                const bool des_ok = rec.stratified()
                                        ? des.deterministicPerProc
                                        : des.deterministicExact;
                const bool fn_ok = rec.stratified()
                                       ? fn.deterministicPerProc
                                       : fn.deterministicExact;
                EXPECT_TRUE(des_ok) << app << " " << label << " @" << i;
                EXPECT_TRUE(fn_ok) << app << " " << label << " @" << i;
                EXPECT_TRUE(fingerprintsAgree(rec, fn.fingerprint,
                                              des.fingerprint))
                    << app << " " << label << " @" << i;
                ++intervals;
            }
        }
    }
    EXPECT_GE(intervals, 150u);
}

/**
 * Squash and executed-instruction counts of the functional replayer,
 * per (app, configuration): the full run at window 1 and 8, then the
 * sum over every checkpoint interval at window 1 and 8, each as
 * {squashes, executed}. They were computed while chunk bodies still
 * logged every committed-memory load, so a body's footprint (one
 * entry per word) must keep every squash decision and every executed
 * instruction where the per-access read log had them.
 */
struct WorkPin
{
    const char *app;
    const char *config;
    std::array<std::uint64_t, 8> counts;
};

const WorkPin kWorkPins[] = {
    // clang-format off
    {"fft", "order-and-size", {0, 261321, 3, 267321, 0, 244331, 1, 246331}},
    {"fft", "order-only", {0, 268190, 1, 270190, 0, 248190, 0, 248190}},
    {"fft", "order-only-strat", {0, 268190, 3, 274190, 0, 248190, 2, 252190}},
    {"fft", "picolog", {0, 180277, 2, 182277, 0, 170277, 2, 172277}},
    {"radix", "order-and-size", {0, 143499, 0, 143499, 0, 127823, 0, 127823}},
    {"radix", "order-only", {0, 143499, 0, 143499, 0, 126806, 0, 126806}},
    {"radix", "order-only-strat", {0, 143499, 0, 143499, 0, 126806, 0, 126806}},
    {"radix", "picolog", {0, 143499, 0, 143499, 0, 134153, 0, 134153}},
    {"ocean", "order-and-size", {0, 272382, 5, 282377, 0, 257686, 2, 261681}},
    {"ocean", "order-only", {0, 287895, 5, 297895, 0, 271437, 4, 279437}},
    {"ocean", "order-only-strat", {0, 287895, 5, 297895, 0, 271437, 5, 281437}},
    {"ocean", "picolog", {0, 197943, 4, 201943, 0, 188111, 3, 191111}},
    {"sjbb2k", "order-and-size", {0, 128326, 0, 128326, 0, 113234, 0, 113234}},
    {"sjbb2k", "order-only", {0, 128326, 0, 128326, 0, 112149, 0, 112149}},
    {"sjbb2k", "order-only-strat", {0, 128326, 0, 128326, 0, 112149, 0, 112149}},
    {"sjbb2k", "picolog", {0, 128326, 0, 128326, 0, 118326, 0, 118326}},
    {"fft~r2", "order-and-size", {0, 197955, 3, 203955, 0, 181422, 0, 181422}},
    {"fft~r2", "order-only", {0, 198076, 3, 204076, 0, 178076, 0, 178076}},
    {"fft~r2", "order-only-strat", {0, 198076, 1, 200076, 0, 178076, 0, 178076}},
    {"fft~r2", "picolog", {0, 180076, 2, 182076, 0, 170076, 0, 170076}},
    // clang-format on
};

TEST(ParallelReplay, SquashAndWorkCountsArePinned)
{
    // Full and interval replays at jobs 1/4 and window 1/8 reproduce
    // the DES fingerprint, and their squash and work counts equal the
    // pins (worker count never moves them). At least one pinned cell
    // squashes, so stale-body detection stays exercised.
    std::size_t cell = 0;
    bool any_squash = false;
    for (const char *app : {"fft", "radix", "ocean", "sjbb2k", "fft~r2"}) {
        for (const auto &[label, mode] : allConfigs()) {
            const Recording rec = recordCheckpointed(mode, app);
            const Workload w = workloadOf(rec);
            const std::string what = std::string(app) + " " + label;
            const ReplayCheckResult des_full = checkedReplay(rec);
            ASSERT_TRUE(des_full.ok) << what;
            std::vector<ExecutionFingerprint> des_intervals;
            for (std::size_t i = 0; i < rec.checkpoints.size(); ++i) {
                const SystemCheckpoint *stop =
                    i + 1 < rec.checkpoints.size()
                        ? &rec.checkpoints[i + 1]
                        : nullptr;
                des_intervals.push_back(
                    Replayer()
                        .replayInterval(rec, i, w, 99 + i, {}, stop)
                        .fingerprint);
            }

            for (const unsigned jobs : {1u, 4u}) {
                std::array<std::uint64_t, 8> counts{};
                for (const unsigned window : {1u, 8u}) {
                    const std::size_t col = window == 1 ? 0 : 2;
                    ParallelReplayOptions popts;
                    popts.jobs = jobs;
                    popts.window = window;
                    const ReplayOutcome full =
                        ParallelReplayer(popts).replay(rec, w);
                    EXPECT_TRUE(fingerprintsAgree(
                        rec, full.fingerprint,
                        des_full.outcome.fingerprint))
                        << what << " jobs " << jobs << " window "
                        << window;
                    counts[col] = full.stats.squashes;
                    counts[col + 1] = full.stats.executedInstrs;
                    for (std::size_t i = 0; i < rec.checkpoints.size();
                         ++i) {
                        popts.startCheckpoint = &rec.checkpoints[i];
                        popts.stopCheckpoint =
                            i + 1 < rec.checkpoints.size()
                                ? &rec.checkpoints[i + 1]
                                : nullptr;
                        const ReplayOutcome fn =
                            ParallelReplayer(popts).replay(rec, w);
                        EXPECT_TRUE(fingerprintsAgree(rec, fn.fingerprint,
                                                      des_intervals[i]))
                            << what << " jobs " << jobs << " window "
                            << window << " @" << i;
                        counts[4 + col] += fn.stats.squashes;
                        counts[5 + col] += fn.stats.executedInstrs;
                    }
                }
                any_squash = any_squash || counts[2] > 0 || counts[6] > 0;
                std::ostringstream row;
                row << "{\"" << app << "\", \"" << label << "\", {";
                for (std::size_t k = 0; k < counts.size(); ++k)
                    row << (k ? ", " : "") << counts[k];
                row << "}},";
                ASSERT_LT(cell, std::size(kWorkPins)) << row.str();
                const WorkPin &pin = kWorkPins[cell];
                ASSERT_EQ(std::string(pin.app) + " " + pin.config, what);
                EXPECT_EQ(counts, pin.counts)
                    << what << " jobs " << jobs << ": " << row.str();
            }
            ++cell;
        }
    }
    EXPECT_EQ(cell, std::size(kWorkPins));
    EXPECT_TRUE(any_squash);
}

TEST(IntervalReplay, CheckedEntryPointsAgreeOnIntervalViews)
{
    // Every bounded interval view off the archive (start at
    // checkpoint 0, stop at 1) and the same interval named by index on
    // the whole recording: both entry points accept it at any worker
    // count. sjbb2k reads I/O, whose log a view holds only up to the
    // stop checkpoint.
    for (const char *app : {"fft", "sjbb2k"}) {
        for (const auto &[label, mode] : allConfigs()) {
            const Recording rec = recordCheckpointed(mode, app);
            ASSERT_GE(rec.checkpoints.size(), 4u) << app << " " << label;
            std::ostringstream buf;
            saveRecording(rec, buf);
            const std::string bytes = std::move(buf).str();
            const ArchiveReader reader =
                ArchiveReader::fromBytes({bytes.begin(), bytes.end()});
            for (std::size_t i = 0; i + 1 < rec.checkpoints.size(); ++i) {
                const Recording view = reader.readInterval(i, i + 1);
                ReplayCheckOptions on_view;
                on_view.startCheckpoint = 0;
                on_view.stopCheckpoint = 1;
                ReplayCheckOptions on_rec;
                on_rec.startCheckpoint = i;
                on_rec.stopCheckpoint = i + 1;
                for (const auto &[r, opts] :
                     {std::pair{&view, on_view}, std::pair{&rec, on_rec}}) {
                    const std::string what = std::string(app) + " "
                                             + label + " @"
                                             + std::to_string(i);
                    const ReplayCheckResult serial =
                        checkedReplay(*r, opts);
                    ASSERT_TRUE(serial.ok)
                        << what << ": " << serial.report.describe();
                    for (const unsigned jobs : {1u, 4u}) {
                        ParallelReplayOptions popts;
                        popts.jobs = jobs;
                        const ReplayCheckResult par =
                            checkedParallelReplay(*r, popts, opts);
                        EXPECT_TRUE(par.ok)
                            << what << " jobs " << jobs << ": "
                            << par.report.describe();
                        EXPECT_TRUE(fingerprintsAgree(
                            rec, par.outcome.fingerprint,
                            serial.outcome.fingerprint))
                            << what << " jobs " << jobs;
                    }
                }
            }
        }
    }
}

TEST(IntervalReplay, RejectsIntervalWithObserverOrRaceDetection)
{
    const Recording rec = recordCheckpointed(ModeConfig::orderOnly());
    ReplayCheckOptions opts;
    opts.startCheckpoint = 1;
    opts.detectRaces = true;
    const ReplayCheckResult par = checkedParallelReplay(rec, {}, opts);
    EXPECT_FALSE(par.ok);
    EXPECT_EQ(par.report.kind, DivergenceKind::kFormatError);

    // Both replayers refuse an observer on an interval replay, with
    // the same message.
    const auto configErrorOf = [](const auto &replay) -> std::string {
        try {
            replay();
        } catch (const ConfigError &e) {
            return e.what();
        }
        return "no ConfigError";
    };
    const std::string want =
        std::string("config error: ") + kObserverNeedsFullRun;
    RaceDetector detector;
    ParallelReplayOptions popts;
    popts.jobs = 1;
    popts.observer = &detector;
    popts.startCheckpoint = &rec.checkpoints[1];
    EXPECT_EQ(configErrorOf([&] { ParallelReplayer(popts).replay(rec); }),
              want);

    const Workload w = workloadOf(rec);
    EngineOptions eopts;
    eopts.replay = true;
    eopts.observer = &detector;
    eopts.startCheckpoint = &rec.checkpoints[1];
    EXPECT_EQ(configErrorOf([&] {
                  ChunkEngine(w, rec.machine, rec.mode, eopts).replay(rec);
              }),
              want);
}

TEST(IntervalReplay, MalformedCheckpointsRaiseTypedReplayErrors)
{
    const Recording rec = recordCheckpointed(ModeConfig::orderOnly());
    ASSERT_GE(rec.checkpoints.size(), 3u);
    const Workload w = workloadOf(rec);
    const SystemCheckpoint &good = rec.checkpoints[1];
    const auto expectTyped = [&](const Recording &r,
                                 const SystemCheckpoint &start,
                                 const SystemCheckpoint *stop,
                                 const char *what) {
        EXPECT_THROW(functionalInterval(r, w, &start, stop), ReplayError)
            << what;
    };

    SystemCheckpoint c = good;
    c.contexts.pop_back();
    expectTyped(rec, c, nullptr, "short contexts");
    c = good;
    c.committedChunks.push_back(0);
    expectTyped(rec, c, nullptr, "long chunk counters");
    expectTyped(rec, rec.checkpoints[2], &good, "stop before start");
    expectTyped(rec, good, &good, "stop at start");
    c = good;
    c.committedChunks.clear();
    expectTyped(rec, rec.checkpoints[0], &c, "stop without counters");
    c = good;
    c.gcc = rec.pi.entryCount() + 1;
    expectTyped(rec, c, nullptr, "start beyond the PI log");
    c = good;
    c.dmaConsumed = rec.dma.count() + 1;
    expectTyped(rec, c, nullptr, "DMA index beyond the DMA log");

    const Recording pico = recordCheckpointed(ModeConfig::picoLog());
    ASSERT_FALSE(pico.checkpoints.empty());
    c = pico.checkpoints[0];
    c.rrNext = pico.machine.numProcs;
    expectTyped(pico, c, nullptr, "commit turn past the last processor");

    // Through the checked entry point the faults validateRecording()
    // cannot see (it checks each checkpoint alone) become reports.
    ReplayCheckOptions opts;
    opts.startCheckpoint = 1;
    opts.stopCheckpoint = 2;
    Recording bad = rec;
    bad.checkpoints[1].gcc = rec.pi.entryCount() + 1;
    ReplayCheckResult out = checkedReplay(bad, opts);
    EXPECT_EQ(out.report.kind, DivergenceKind::kReplayError)
        << out.report.describe();
    bad = rec;
    bad.checkpoints[2].gcc = bad.checkpoints[1].gcc;
    out = checkedReplay(bad, opts);
    EXPECT_EQ(out.report.kind, DivergenceKind::kReplayError)
        << out.report.describe();
}

} // namespace
} // namespace delorean
