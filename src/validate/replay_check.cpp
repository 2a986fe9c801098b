#include "validate/replay_check.hpp"

#include <algorithm>
#include <exception>
#include <optional>
#include <stdexcept>

#include "common/errors.hpp"
#include "core/serialize.hpp"
#include "trace/workload.hpp"
#include "validate/localizer.hpp"

namespace delorean
{

namespace
{

/** The checkpoints a check starts and stops at (null: GCC 0 / end). */
struct Interval
{
    const SystemCheckpoint *start = nullptr;
    const SystemCheckpoint *stop = nullptr;
};

/**
 * Shared head of both checked entry points: reject malformed
 * recordings, resolve the interval's checkpoint indices and rebuild
 * the workload. Returns nullopt with @p result.report filled on
 * failure.
 */
std::optional<Workload>
prepare(const Recording &rec, const ReplayCheckOptions &opts,
        Interval &interval, ReplayCheckResult &result)
{
    const auto reject = [&result](DivergenceKind kind,
                                  std::string message) {
        result.report.kind = kind;
        result.report.message = std::move(message);
    };
    constexpr std::size_t kFullRun = ReplayCheckOptions::kFullRun;

    if (opts.detectRaces
        && (opts.startCheckpoint != kFullRun
            || opts.stopCheckpoint != kFullRun)) {
        reject(DivergenceKind::kFormatError,
               "race detection requires a full-run replay, not an "
               "interval replay");
        return std::nullopt;
    }

    try {
        validateRecording(rec);
    } catch (const RecordingFormatError &e) {
        reject(DivergenceKind::kFormatError, e.what());
        return std::nullopt;
    }

    std::optional<Workload> workload;
    try {
        workload.emplace(rec.appName, rec.machine.numProcs,
                         rec.workloadSeed,
                         WorkloadScale{rec.iterationsPercent});
    } catch (const std::exception &e) {
        reject(DivergenceKind::kWorkloadError, e.what());
        return std::nullopt;
    }

    if (opts.startCheckpoint != kFullRun) {
        if (opts.startCheckpoint >= rec.checkpoints.size()) {
            reject(DivergenceKind::kFormatError,
                   "start checkpoint index "
                       + std::to_string(opts.startCheckpoint)
                       + " out of range (recording has "
                       + std::to_string(rec.checkpoints.size())
                       + " checkpoints)");
            return std::nullopt;
        }
        interval.start = &rec.checkpoints[opts.startCheckpoint];
    }
    if (opts.stopCheckpoint != kFullRun) {
        if (opts.stopCheckpoint >= rec.checkpoints.size()
            || opts.startCheckpoint == kFullRun
            || opts.stopCheckpoint <= opts.startCheckpoint) {
            reject(DivergenceKind::kFormatError,
                   "stop checkpoint index "
                       + std::to_string(opts.stopCheckpoint)
                       + " is not a later checkpoint than the start");
            return std::nullopt;
        }
        interval.stop = &rec.checkpoints[opts.stopCheckpoint];
    }
    return workload;
}

/**
 * Shared tail: run @p replay with every failure fenced into a typed
 * report, then classify a replay that ran to completion — success on
 * a matched fingerprint, otherwise localize the divergence. For
 * interval replays the reference is the expected fingerprint of
 * I(start, stop), not the full recording's — the replayed stream only
 * covers the commits inside the interval.
 */
template <typename Replay>
void
runFenced(const Recording &rec, const ReplayCheckOptions &opts,
          const Interval &interval, Replay &&replay,
          ReplayCheckResult &result)
{
    try {
        result.outcome = replay();
        result.replayRan = true;
    } catch (const ReplayError &e) {
        result.report.kind = DivergenceKind::kReplayError;
        result.report.message = e.what();
        return;
    } catch (const RecordingFormatError &e) {
        // A checkpoint the log cannot resume at (e.g. a stratum
        // straddling its boundary) is a malformed recording.
        result.report.kind = DivergenceKind::kFormatError;
        result.report.message = e.what();
        return;
    } catch (const std::exception &e) {
        // Anything untyped coming out of a replayer is still reported
        // (not rethrown) so sweeps keep their no-crash guarantee, but
        // the message flags it as unexpected for triage.
        result.report.kind = DivergenceKind::kReplayError;
        result.report.message =
            std::string("unexpected replay exception: ") + e.what();
        return;
    }

    const bool matched = rec.stratified()
                             ? result.outcome.deterministicPerProc
                             : result.outcome.deterministicExact;
    if (matched) {
        result.ok = true;
        return;
    }

    LocalizerOptions lopts;
    lopts.period = opts.localizerPeriod;
    lopts.start = interval.start;
    result.report = localizeDivergence(
        rec.expectedFingerprint(interval.start, interval.stop),
        result.outcome.fingerprint, &rec, lopts);
    if (result.report.ok()) {
        // The replayer judged the replay non-deterministic but the
        // localizer found fingerprints equal — only possible for an
        // interval-replay expectation mismatch; surface it rather
        // than claim success.
        result.report.kind = DivergenceKind::kStateDivergence;
        result.report.message = "engine reported non-determinism the "
                                "localizer could not attribute";
    }
}

/** Functional (architectural) replay of @p rec over @p interval. */
void
runParallel(const Recording &rec, const Workload &workload,
            ParallelReplayOptions popts, const ReplayCheckOptions &opts,
            const Interval &interval, ReplayCheckResult &result)
{
    RaceDetector detector;
    if (opts.detectRaces)
        popts.observer = &detector;
    popts.startCheckpoint = interval.start;
    popts.stopCheckpoint = interval.stop;
    runFenced(rec, opts, interval,
              [&] { return ParallelReplayer(popts).replay(rec, workload); },
              result);
    if (result.replayRan && opts.detectRaces)
        result.races = detector.report();
}

} // namespace

std::uint64_t
defaultReplayEventBudget(const Recording &rec)
{
    // Size the budget from parsed log content, not from the headline
    // stats (a corrupted stats field must not inflate the budget).
    const std::uint64_t commits =
        rec.fingerprint.commits.size() + rec.dma.count()
        + rec.machine.numProcs;
    return std::min<std::uint64_t>(5000 * commits + 1'000'000,
                                   2'000'000'000ull);
}

ReplayCheckResult
checkedReplay(const Recording &rec, const ReplayCheckOptions &opts)
{
    ReplayCheckResult result;
    Interval interval;
    const std::optional<Workload> workload =
        prepare(rec, opts, interval, result);
    if (!workload)
        return result;

    if (interval.start) {
        // Seek path: an interval needs only the architectural state,
        // not the cycle-level machine, and one interval is too short
        // to pay for a worker pool — replay it on this thread.
        ParallelReplayOptions popts;
        popts.jobs = 1;
        runParallel(rec, *workload, popts, opts, interval, result);
        return result;
    }

    EngineOptions eopts;
    eopts.replay = true;
    eopts.envSeed = opts.envSeed;
    eopts.perturb = opts.perturb;
    eopts.maxEvents =
        opts.maxEvents ? opts.maxEvents : defaultReplayEventBudget(rec);
    RaceDetector detector;
    if (opts.detectRaces)
        eopts.observer = &detector;
    runFenced(rec, opts, interval,
              [&] {
                  return ChunkEngine(*workload, rec.machine, rec.mode,
                                     eopts)
                      .replay(rec);
              },
              result);
    if (result.replayRan && opts.detectRaces)
        result.races = detector.report();
    return result;
}

ReplayCheckResult
checkedParallelReplay(const Recording &rec,
                      const ParallelReplayOptions &popts,
                      const ReplayCheckOptions &opts)
{
    ReplayCheckResult result;
    Interval interval;
    const std::optional<Workload> workload =
        prepare(rec, opts, interval, result);
    if (workload)
        runParallel(rec, *workload, popts, opts, interval, result);
    return result;
}

} // namespace delorean
