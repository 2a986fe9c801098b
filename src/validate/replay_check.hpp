/**
 * @file
 * Checked replay: replay a Recording with every failure mode fenced.
 *
 * The contract the fault injector and the replay_check CLI rely on:
 * for ANY byte string that parses as a Recording, checkedReplay()
 * terminates in bounded time and returns either success or a
 * structured DivergenceReport — never a crash, a hang, or a silent
 * wrong answer. Malformed recordings are rejected by
 * validateRecording(); replays that cannot follow the log raise
 * typed ReplayErrors (converted to reports); replays that run but
 * produce a different execution are localized to the first divergent
 * chunk; and a shrunken event budget converts any livelock a corrupt
 * log could cause into a prompt ReplayBudgetExceeded.
 */

#ifndef DELOREAN_VALIDATE_REPLAY_CHECK_HPP_
#define DELOREAN_VALIDATE_REPLAY_CHECK_HPP_

#include <cstdint>

#include "analysis/race_detector.hpp"
#include "core/engine.hpp"
#include "core/recording.hpp"
#include "sim/parallel_replay.hpp"
#include "validate/divergence.hpp"

namespace delorean
{

/** Knobs for a checked replay. */
struct ReplayCheckOptions
{
    /// Environment (device/noise) seed — deliberately different from
    /// typical record seeds so determinism is not timing luck.
    std::uint64_t envSeed = 99;
    /// Replay event budget; 0 derives one from the recording's size
    /// (defaultReplayEventBudget).
    std::uint64_t maxEvents = 0;
    /// Commits per localizer interval fingerprint.
    std::uint64_t localizerPeriod = 64;
    /// Timing perturbation (Section 6.2.1) applied to the replay.
    ReplayPerturbation perturb{};
    /// Lookahead window for the replay arbiter
    /// (EngineOptions::replayWindow); 1 fully serializes replay. The
    /// derived event budget scales with this so a stalled parallel
    /// replay still fails in milliseconds.
    unsigned replayWindow = 1;

    static constexpr std::size_t kFullRun =
        static_cast<std::size_t>(-1);
    /// Replay only I(checkpoints[startCheckpoint].gcc, ...) instead
    /// of the whole run (interval replay, Appendix B). Index into
    /// Recording::checkpoints; kFullRun replays from the start. The
    /// divergence classification then compares against the expected
    /// interval fingerprint, not the full recording's.
    std::size_t startCheckpoint = kFullRun;
    /// Bound the interval at checkpoints[stopCheckpoint].gcc (must be
    /// greater than startCheckpoint). kFullRun runs to program end.
    /// Only meaningful for the serial engine (checkedReplay).
    std::size_t stopCheckpoint = kFullRun;
    /// Attach the happens-before race detector (analysis/) to the
    /// replay and fill ReplayCheckResult::races. Requires a full-run
    /// replay: combining with startCheckpoint/stopCheckpoint is
    /// rejected as a kFormatError report before the replay starts.
    bool detectRaces = false;
};

/** Outcome of a checked replay. */
struct ReplayCheckResult
{
    /// True iff the replay ran and reproduced the recording's
    /// fingerprint (exactly; per-processor for stratified logs).
    bool ok = false;
    /// kNone when ok; otherwise the classified failure.
    DivergenceReport report;
    /// Engine outcome; meaningful only when replayRan.
    ReplayOutcome outcome;
    /// True when the engine ran to completion (even if divergent).
    bool replayRan = false;
    /// Race-detector output; meaningful only when the options asked
    /// for detection and the replay ran to completion.
    RaceReport races;
};

/**
 * Event budget scaled to the recording's actual size: generous per
 * commit (a healthy replay uses a few dozen events per commit, this
 * allows thousands) yet small enough that a corrupted log failing to
 * make progress dies in milliseconds instead of the global 2e9-event
 * safety valve. A lookahead window keeps up to @p replay_window
 * chunks in flight, each generating its own slot-occupancy and retry
 * events while the log head stalls, so the budget grows linearly with
 * the window — a livelocked W=8 replay dies as promptly as a serial
 * one instead of taking 8x the events to hit the fence.
 */
std::uint64_t defaultReplayEventBudget(const Recording &rec,
                                       unsigned replay_window = 1);

/** Replay @p rec under the contract described in the file header. */
ReplayCheckResult checkedReplay(const Recording &rec,
                                const ReplayCheckOptions &opts = {});

/**
 * Chunk-parallel (host-parallel, architectural) replay of @p rec
 * under the same contract as checkedReplay(): bounded time, typed
 * failures converted to structured reports, divergences localized.
 * The instruction budget fences livelock the way maxEvents does for
 * the engine. @p opts contributes the localizer period (envSeed and
 * perturbation do not apply — the architectural replayer has no
 * timing to perturb).
 */
ReplayCheckResult
checkedParallelReplay(const Recording &rec,
                      const ParallelReplayOptions &popts = {},
                      const ReplayCheckOptions &opts = {});

} // namespace delorean

#endif // DELOREAN_VALIDATE_REPLAY_CHECK_HPP_
