/**
 * @file
 * Chunk-parallel replay engine (Section 3.3's observation made
 * concrete): the PI log constrains only the *commit order* of chunks,
 * so chunk bodies from different processors can execute concurrently
 * during replay — only their retirement must follow the log.
 *
 * ParallelReplayer is the host-parallel counterpart of
 * ChunkEngine::replay(). It drops the cycle-accurate memory system
 * (caches, directory, arbiter timing) and replays architecturally: a
 * lookahead window dispatches the next W chunk bodies — one per
 * processor, respecting per-processor program order — onto the
 * campaign WorkerPool, where they execute optimistically against the
 * committed memory image. A serial retire pass then commits them
 * strictly in logged order (PI log for Order&Size/OrderOnly, the
 * predefined round-robin for PicoLog, per-stratum budgets for
 * stratified logs), value-validating each body's read set first; a
 * body that observed since-overwritten values is re-executed inline
 * at its retire turn, exactly like a hardware squash-and-replay.
 *
 * Determinism: retire order is a pure function of the recording (for
 * stratified logs the canonical lowest-processor order within each
 * stratum), and every retired body is validated against — or
 * re-executed on — the committed memory at its turn, so the replayed
 * fingerprint is byte-identical at any worker count and any window
 * width: exact for flat logs, per-processor-stream for stratified
 * ones (whose global interleaving is legally relaxed).
 */

#ifndef DELOREAN_SIM_PARALLEL_REPLAY_HPP_
#define DELOREAN_SIM_PARALLEL_REPLAY_HPP_

#include <cstdint>

#include "core/engine.hpp"
#include "core/recording.hpp"
#include "trace/workload.hpp"

namespace delorean
{

/** Knobs of a chunk-parallel replay. */
struct ParallelReplayOptions
{
    /// Lookahead window: maximum chunk bodies in flight per wave (one
    /// per processor). 1 executes bodies one at a time.
    unsigned window = 8;
    /// WorkerPool width; 0 uses campaignJobs() (DELOREAN_JOBS).
    unsigned jobs = 0;
    /// Executed-instruction budget; 0 derives one from the recording
    /// so a corrupted log fails with ReplayBudgetExceeded promptly.
    std::uint64_t maxInstrs = 0;
    /// Replay-time analysis plugin (see core/replay_observer.hpp).
    /// Borrowed, never owned; callbacks are re-sequenced into
    /// canonical commit order on the coordinator thread, so the event
    /// stream is byte-identical at any jobs/window setting.
    ReplayObserver *observer = nullptr;
};

/**
 * Instruction budget for a chunk-parallel replay of @p rec, derived
 * from parsed log content (never the headline stats): speculative
 * execution plus squash re-execution stay well under 4x the recorded
 * work, so anything past that is a corrupt log spinning.
 */
std::uint64_t defaultParallelReplayInstrBudget(const Recording &rec);

/** Replays recordings with chunk bodies executing in parallel. */
class ParallelReplayer
{
  public:
    explicit ParallelReplayer(const ParallelReplayOptions &opts = {})
        : opts_(opts)
    {
    }

    /**
     * Replay @p rec; the workload is rebuilt from its metadata. The
     * recording should already have passed validateRecording() (the
     * checked entry points do this); inconsistencies encountered
     * mid-replay raise typed ReplayErrors.
     */
    ReplayOutcome replay(const Recording &rec) const;

    /** Replay with an explicitly provided (matching) workload. */
    ReplayOutcome replay(const Recording &rec,
                         const Workload &workload) const;

  private:
    ParallelReplayOptions opts_;
};

} // namespace delorean

#endif // DELOREAN_SIM_PARALLEL_REPLAY_HPP_
