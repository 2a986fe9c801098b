/**
 * @file
 * DifferentialChecker: one workload, every mode, cross-checked.
 *
 * Records a single workload under all three DeLorean modes —
 * Order&Size, OrderOnly and PicoLog — plus both PI-log flavors of
 * OrderOnly (flat per-commit PI and stratified per-interval counters),
 * replays each recording under perturbed timing, and cross-checks the
 * four runs against each other:
 *
 *   - every run must serialize/load/re-serialize byte-identically and
 *     replay deterministically (checkedReplay);
 *   - within every run, the periodic interval fingerprints of the
 *     recorded and replayed commit streams must agree at every
 *     boundary (per-processor streams for stratified logs, whose
 *     global interleaving is not canonical);
 *   - serial and parallel replay describe the same execution: both
 *     the lookahead-window arbiter (replayWindow > 1) and the
 *     host-parallel chunk-body replayer must reproduce the serial
 *     replay's fingerprint and interval fingerprints byte-identically
 *     (per-processor streams for stratified logs);
 *   - flat and stratified OrderOnly recordings describe the *same*
 *     execution (identical fingerprints — commits, per-processor
 *     state and final memory hash), because stratification only
 *     re-encodes the PI log;
 *   - log-size ordering invariants from the paper: PicoLog writes no
 *     PI bits at all (predefined commit order), the stratified PI log
 *     is no larger than the flat OrderOnly PI log, and the combined
 *     OrderOnly log (PI+CS) is no larger than Order&Size's (which
 *     logs a size for every chunk rather than only truncated ones).
 *
 * Note the last invariant is deliberately stated over PI+CS, not PI
 * alone: chunking differs slightly across modes, so the raw PI bit
 * count alone is not ordered (empirically, ocean at 4 processors
 * records 675 OrderOnly PI bits vs 624 Order&Size PI bits while the
 * combined logs are 1027 vs 1470).
 *
 * Final states are NOT compared across modes: the SPLASH-2 workload
 * models contain data races whose outcome legitimately depends on the
 * commit interleaving, and the mode determines where chunks are cut.
 * Different modes therefore record different (all valid) executions;
 * what DeLorean guarantees — and what this checker verifies — is
 * that each recorded execution replays deterministically.
 */

#ifndef DELOREAN_VALIDATE_DIFFERENTIAL_HPP_
#define DELOREAN_VALIDATE_DIFFERENTIAL_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "core/recording.hpp"
#include "sim/campaign.hpp"
#include "validate/divergence.hpp"

namespace delorean
{

/** One differential job: the workload and knobs shared by all runs. */
struct DifferentialJob
{
    std::string app = "fft";
    unsigned numProcs = 4;
    std::uint64_t workloadSeed = 20080621;
    unsigned scalePercent = 10;
    std::uint64_t recordEnvSeed = 1;
    /// Replay environment seed — different from recordEnvSeed so
    /// determinism is demonstrated, not inherited from timing luck.
    std::uint64_t replayEnvSeed = 99;
    /// Chunks per processor per stratum for the stratified PI run.
    unsigned stratifyChunksPerProc = 3;
    /// Apply Section 6.2.1 timing perturbation to the replays.
    bool perturbReplay = true;
    /// Commits per localizer interval fingerprint.
    std::uint64_t localizerPeriod = 32;
    /// Lookahead window used for the windowed-arbiter and the
    /// chunk-parallel replay legs.
    unsigned parallelWindow = 8;
    /// WorkerPool width for the chunk-parallel leg; 0 = DELOREAN_JOBS.
    unsigned parallelJobs = 0;
    /// Take a system checkpoint every this many global commits during
    /// the record run, then archive the recording (src/store) and
    /// replay the interval from every checkpoint straight off the
    /// archive. Also drives the ring legs: a full-budget and a
    /// tight-budget (evicting) ring archive whose interval views must
    /// byte-match the batch archive's. 0 disables both container leg
    /// families.
    std::uint64_t checkpointPeriod = 40;
};

/** One (mode, PI-flavor) recording + checked replay. */
struct DifferentialRun
{
    std::string label;       ///< "order-and-size", "order-only",
                             ///< "order-only-strat", "picolog"
    ModeConfig mode;
    bool stratified = false;
    bool recorded = false;   ///< record + serialize round trip ran
    bool roundTripIdentical = false; ///< save/load/save byte-equal
    bool replayOk = false;   ///< checkedReplay succeeded (serial)
    /// Recorded vs replayed periodic interval fingerprints agree at
    /// every boundary (localizerPeriod commits apart).
    bool intervalsMatch = false;
    /// Replay with the lookahead-window arbiter (replayWindow =
    /// job.parallelWindow) succeeded.
    bool windowedReplayOk = false;
    /// Windowed replay's fingerprint AND interval fingerprints agree
    /// with the serial replay's (exactly; per-processor streams for
    /// stratified logs, whose global retire order is legally relaxed).
    bool windowedMatchesSerial = false;
    /// checkedParallelReplay (host-parallel chunk bodies) succeeded.
    bool parallelReplayOk = false;
    /// Chunk-parallel replay's fingerprint AND interval fingerprints
    /// agree with the serial replay's (same comparison rule).
    bool parallelMatchesSerial = false;
    /// Archive legs (job.checkpointPeriod != 0): the archived
    /// recording read back whole is byte-identical under
    /// saveRecording().
    bool archiveRoundTripIdentical = false;
    /// Interval replay straight off the archive reproduced the
    /// recording from *every* checkpoint (per-processor comparison
    /// for stratified logs).
    bool archiveIntervalsOk = false;
    /// The container written with a multi-thread segment codec is
    /// byte-identical to the one written serially (ioThreads = 1) —
    /// the parallel data plane must never change the bytes.
    bool archiveParallelWriteIdentical = false;
    /// Checkpoints the record run took (archive segments minus one).
    std::size_t archiveCheckpoints = 0;
    /// Ring legs (job.checkpointPeriod != 0): a full-budget ring of
    /// the recording reads back whole byte-identically AND every
    /// per-checkpoint interval view off the ring is byte-identical to
    /// the batch archive's view of the same interval.
    bool ringRoundTripIdentical = false;
    /// A bounded interval replay straight off the ring reproduced the
    /// recording (per-processor comparison for stratified logs).
    bool ringIntervalsOk = false;
    /// A tight-budget ring (eviction exercised) still serves interval
    /// views byte-identical to the archive's over the GCC window it
    /// retained, and its worst replay-start lag stayed within the
    /// configured bound.
    bool ringEvictedWindowOk = false;
    /// Segments the tight-budget ring evicted.
    std::uint64_t ringEvicted = 0;
    DivergenceReport report; ///< failure detail when !replayOk
    DivergenceReport parallelReport; ///< ditto for the parallel legs
    LogSizeReport sizes;
    ExecutionFingerprint fingerprint;
    std::string error;       ///< exception text when !recorded

    /** Combined memory-ordering log size (PI + CS), raw bits. */
    std::uint64_t
    totalLogBits() const
    {
        return sizes.pi.rawBits + sizes.cs.rawBits;
    }
};

/** Outcome of one differential job: the runs plus the cross-checks. */
struct DifferentialResult
{
    DifferentialJob job;
    std::vector<DifferentialRun> runs;
    /// Human-readable cross-check violations; empty when ok().
    std::vector<std::string> failures;

    bool ok() const { return failures.empty(); }

    const DifferentialRun *findRun(const std::string &label) const;

    /** Multi-line human-readable rendering. */
    std::string describe() const;
};

/**
 * Runs differential jobs, fanning the per-mode record/replay tasks
 * across a CampaignRunner worker pool.
 */
class DifferentialChecker
{
  public:
    /** @param jobs worker count; 0 uses campaignJobs(). */
    explicit DifferentialChecker(unsigned jobs = 0) : runner_(jobs) {}

    /** Run the four mode configurations of @p job and cross-check. */
    DifferentialResult check(const DifferentialJob &job) const;

    /**
     * Run one job per SPLASH-2 application (AppTable::splash2Names),
     * with @p base providing every non-app knob.
     */
    std::vector<DifferentialResult>
    checkAllApps(const DifferentialJob &base = {}) const;

  private:
    CampaignRunner runner_;
};

} // namespace delorean

#endif // DELOREAN_VALIDATE_DIFFERENTIAL_HPP_
