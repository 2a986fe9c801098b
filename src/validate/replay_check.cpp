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

/**
 * Shared head of both checked entry points: reject malformed
 * recordings and rebuild the workload, reporting either failure.
 * Returns nullopt with @p result.report filled on failure.
 */
std::optional<Workload>
prepareWorkload(const Recording &rec, ReplayCheckResult &result)
{
    try {
        validateRecording(rec);
    } catch (const RecordingFormatError &e) {
        result.report.kind = DivergenceKind::kFormatError;
        result.report.message = e.what();
        return std::nullopt;
    }

    try {
        return Workload(rec.appName, rec.machine.numProcs,
                        rec.workloadSeed,
                        WorkloadScale{rec.iterationsPercent});
    } catch (const std::exception &e) {
        result.report.kind = DivergenceKind::kWorkloadError;
        result.report.message = e.what();
        return std::nullopt;
    }
}

/**
 * Shared tail: classify a replay that ran to completion — success on
 * a matched fingerprint, otherwise localize the divergence. For
 * interval replays the reference is the expected fingerprint of
 * I(start, stop), not the full recording's — the replayed stream only
 * covers the commits inside the interval.
 */
void
classifyOutcome(const Recording &rec, const ReplayCheckOptions &opts,
                ReplayCheckResult &result)
{
    const bool matched = rec.stratified()
                             ? result.outcome.deterministicPerProc
                             : result.outcome.deterministicExact;
    if (matched) {
        result.ok = true;
        return;
    }

    ExecutionFingerprint expected = rec.fingerprint;
    if (opts.startCheckpoint != ReplayCheckOptions::kFullRun) {
        const SystemCheckpoint &start =
            rec.checkpoints[opts.startCheckpoint];
        expected =
            opts.stopCheckpoint != ReplayCheckOptions::kFullRun
                ? rec.fingerprintBetween(
                      &start, rec.checkpoints[opts.stopCheckpoint])
                : rec.fingerprintFromCheckpoint(start);
    }

    LocalizerOptions lopts;
    lopts.period = opts.localizerPeriod;
    result.report = localizeDivergence(expected,
                                       result.outcome.fingerprint, &rec,
                                       lopts);
    if (result.report.ok()) {
        // The engine judged the replay non-deterministic but the
        // localizer found fingerprints equal — only possible for an
        // interval-replay expectation mismatch; surface it rather
        // than claim success.
        result.report.kind = DivergenceKind::kStateDivergence;
        result.report.message = "engine reported non-determinism the "
                                "localizer could not attribute";
    }
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

    if (opts.detectRaces
        && (opts.startCheckpoint != ReplayCheckOptions::kFullRun
            || opts.stopCheckpoint != ReplayCheckOptions::kFullRun)) {
        result.report.kind = DivergenceKind::kFormatError;
        result.report.message = "race detection requires a full-run "
                                "replay, not an interval replay";
        return result;
    }

    const std::optional<Workload> workload = prepareWorkload(rec, result);
    if (!workload)
        return result;

    EngineOptions eopts;
    eopts.replay = true;
    eopts.envSeed = opts.envSeed;
    eopts.perturb = opts.perturb;
    eopts.maxEvents =
        opts.maxEvents ? opts.maxEvents : defaultReplayEventBudget(rec);
    if (opts.startCheckpoint != ReplayCheckOptions::kFullRun) {
        if (opts.startCheckpoint >= rec.checkpoints.size()) {
            result.report.kind = DivergenceKind::kFormatError;
            result.report.message =
                "start checkpoint index "
                + std::to_string(opts.startCheckpoint)
                + " out of range (recording has "
                + std::to_string(rec.checkpoints.size())
                + " checkpoints)";
            return result;
        }
        eopts.startCheckpoint = &rec.checkpoints[opts.startCheckpoint];
    }
    if (opts.stopCheckpoint != ReplayCheckOptions::kFullRun) {
        if (opts.stopCheckpoint >= rec.checkpoints.size()
            || opts.startCheckpoint == ReplayCheckOptions::kFullRun
            || opts.stopCheckpoint <= opts.startCheckpoint) {
            result.report.kind = DivergenceKind::kFormatError;
            result.report.message =
                "stop checkpoint index "
                + std::to_string(opts.stopCheckpoint)
                + " is not a later checkpoint than the start";
            return result;
        }
        eopts.stopCheckpoint = &rec.checkpoints[opts.stopCheckpoint];
    }

    RaceDetector detector;
    if (opts.detectRaces)
        eopts.observer = &detector;

    try {
        ChunkEngine engine(*workload, rec.machine, rec.mode, eopts);
        result.outcome = engine.replay(rec);
        result.replayRan = true;
        if (opts.detectRaces)
            result.races = detector.report();
    } catch (const ReplayError &e) {
        result.report.kind = DivergenceKind::kReplayError;
        result.report.message = e.what();
        return result;
    } catch (const std::exception &e) {
        // Anything untyped coming out of the engine is still reported
        // (not rethrown) so sweeps keep their no-crash guarantee, but
        // the message flags it as unexpected for triage.
        result.report.kind = DivergenceKind::kReplayError;
        result.report.message =
            std::string("unexpected replay exception: ") + e.what();
        return result;
    }

    classifyOutcome(rec, opts, result);
    return result;
}

ReplayCheckResult
checkedParallelReplay(const Recording &rec,
                      const ParallelReplayOptions &popts,
                      const ReplayCheckOptions &opts)
{
    ReplayCheckResult result;

    const std::optional<Workload> workload = prepareWorkload(rec, result);
    if (!workload)
        return result;

    RaceDetector detector;
    ParallelReplayOptions eff = popts;
    if (opts.detectRaces)
        eff.observer = &detector;

    try {
        ParallelReplayer replayer(eff);
        result.outcome = replayer.replay(rec, *workload);
        result.replayRan = true;
        if (opts.detectRaces)
            result.races = detector.report();
    } catch (const ReplayError &e) {
        result.report.kind = DivergenceKind::kReplayError;
        result.report.message = e.what();
        return result;
    } catch (const std::exception &e) {
        result.report.kind = DivergenceKind::kReplayError;
        result.report.message =
            std::string("unexpected parallel-replay exception: ")
            + e.what();
        return result;
    }

    classifyOutcome(rec, opts, result);
    return result;
}

} // namespace delorean
