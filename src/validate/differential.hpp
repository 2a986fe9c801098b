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
 *   - every run must save/load/re-save byte-identically through its
 *     one file (a `.dla`) and replay deterministically (checkedReplay);
 *   - within every run, the periodic interval fingerprints of the
 *     recorded and replayed commit streams must agree at every
 *     boundary (per-processor streams for stratified logs, whose
 *     global interleaving is not canonical);
 *   - serial and parallel replay describe the same execution: the
 *     host-parallel chunk-body replayer must reproduce the serial
 *     replay's fingerprint and interval fingerprints byte-identically
 *     (per-processor streams for stratified logs);
 *   - every checkpoint interval the archive and ring legs replay on
 *     the DES replays to the same fingerprint on the functional
 *     ParallelReplayer, the seek path of checkedReplay (exactly;
 *     per-processor streams for stratified logs);
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
#include "validate/divergence.hpp"

namespace delorean
{

/**
 * One differential job: the workload shared by all runs. Everything
 * else (seeds, perturbation, localizer period, checkpoint period,
 * parallel window) is fixed in differential.cpp.
 */
struct DifferentialJob
{
    std::string app = "fft";
    unsigned numProcs = 4;
    unsigned scalePercent = 10;
};

/** One (mode, PI-flavor) recording + checked replay. */
struct DifferentialRun
{
    std::string label;       ///< "order-and-size", "order-only",
                             ///< "order-only-strat", "picolog"
    ModeConfig mode;
    bool stratified = false;
    bool recorded = false;   ///< record + serialize round trip ran
    /// saveRecording, ArchiveReader::readAll, saveRecording: byte-equal.
    bool roundTripIdentical = false;
    bool replayOk = false;   ///< checkedReplay succeeded (serial)
    /// Recorded vs replayed periodic interval fingerprints agree at
    /// every boundary.
    bool intervalsMatch = false;
    /// checkedParallelReplay (host-parallel chunk bodies) succeeded.
    bool parallelReplayOk = false;
    /// Chunk-parallel replay's fingerprint AND interval fingerprints
    /// agree with the serial replay's (same comparison rule).
    bool parallelMatchesSerial = false;
    /// Interval replay straight off the archive reproduced the
    /// recording from *every* checkpoint (per-processor comparison
    /// for stratified logs).
    bool archiveIntervalsOk = false;
    /// The file written with a multi-thread segment codec is
    /// byte-identical to the one written serially (ioThreads = 1) —
    /// the parallel data plane must never change the bytes.
    bool archiveParallelWriteIdentical = false;
    /// Checkpoints the record run took (archive segments minus one).
    std::size_t archiveCheckpoints = 0;
    /// Ring legs: a full-budget ring of the recording reads back
    /// whole byte-identically AND every
    /// per-checkpoint interval view off the ring is byte-identical to
    /// the `.dla` archive's view of the same interval.
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
    /// Every interval the archive and ring legs replay on the DES,
    /// replayed again on the functional ParallelReplayer (the seek
    /// path of checkedReplay), gave the same fingerprint: exactly for
    /// flat logs, per processor for stratified ones.
    bool functionalIntervalsMatch = false;
    /// Intervals compared for functionalIntervalsMatch.
    std::size_t functionalIntervals = 0;
    DivergenceReport report; ///< failure detail when !replayOk
    DivergenceReport parallelReport; ///< ditto for the parallel leg
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
 * across a worker pool (mapTasks).
 */
class DifferentialChecker
{
  public:
    /** @param jobs worker count; 0 uses campaignJobs(). */
    explicit DifferentialChecker(unsigned jobs = 0) : jobs_(jobs) {}

    /** Run the four mode configurations of @p job and cross-check. */
    DifferentialResult check(const DifferentialJob &job) const;

    /**
     * Run one job per SPLASH-2 application (AppTable::splash2Names),
     * with @p base providing every non-app knob.
     */
    std::vector<DifferentialResult>
    checkAllApps(const DifferentialJob &base = {}) const;

  private:
    unsigned jobs_;
};

} // namespace delorean

#endif // DELOREAN_VALIDATE_DIFFERENTIAL_HPP_
