/**
 * @file
 * Happens-before data race detector — the first consumer of the
 * replay-observer plugin API (core/replay_observer.hpp).
 *
 * The detector derives a happens-before relation from the recorded
 * chunk-commit order and the workload's synchronization accesses, then
 * flags pairs of conflicting data accesses (same word, at least one a
 * write, different processors) that no happens-before path orders:
 *
 *  - Each processor carries a vector clock, ticked once per committed
 *    chunk, so every chunk has a distinct epoch (proc, clock). Chunk
 *    atomicity makes this the natural granularity: sync edges inside a
 *    chunk still apply access-by-access (the trace is program-ordered),
 *    coarser epochs only ever *add* order, so granularity can hide a
 *    same-chunk race but never invent one.
 *  - Lock and barrier words (AddressLayout::isLock / isBarrier) are
 *    synchronization, not data: a value-observing access (load, AMO)
 *    acquires the word's sync clock into the processor's clock, a
 *    memory-writing access releases the processor's clock into it.
 *    This models test-and-set locks, fetch&add barrier arrival chains
 *    and generation-word spin loops without workload-specific cases.
 *  - Private-region and DMA-buffer words are skipped: private words are
 *    per-processor by construction, DMA words are device-ordered by
 *    the memory arbiter.
 *  - Everything else (shared data, kernel words, seeded raceWord()s)
 *    is race-checked FastTrack-style: per word, a last-write epoch and
 *    per-processor read epochs, each with full provenance.
 *
 * Determinism: the detector consumes the canonical commit-order event
 * stream the observer hub guarantees, keeps findings in discovery
 * order, and reports at most one finding per word (the first in
 * canonical order). RaceReport::describe() is therefore byte-identical
 * across the serial DES replayer and the chunk-parallel replayer at
 * any DELOREAN_JOBS and window setting — which the detector
 * tests assert literally.
 */

#ifndef DELOREAN_ANALYSIS_RACE_DETECTOR_HPP_
#define DELOREAN_ANALYSIS_RACE_DETECTOR_HPP_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/types.hpp"
#include "core/replay_observer.hpp"

namespace delorean
{

/**
 * Fixed-width vector clock over processor components. Components
 * saturate nowhere: an increment past the 64-bit ceiling raises a
 * typed ReplayError (a genuine recording would need 2^64 chunks, so
 * wraparound can only mean corrupted analysis state — and silently
 * wrapping would erase happens-before edges and fabricate races).
 */
class VectorClock
{
  public:
    VectorClock() = default;
    explicit VectorClock(unsigned procs) : c_(procs, 0) {}

    unsigned size() const { return static_cast<unsigned>(c_.size()); }

    /** Component @p p; components past size() read as 0. */
    std::uint64_t
    at(unsigned p) const
    {
        return p < c_.size() ? c_[p] : 0;
    }

    /** Set component @p p (grows the clock; used by tests). */
    void set(unsigned p, std::uint64_t value);

    /** Increment component @p p; throws ReplayError on wraparound. */
    void tick(unsigned p);

    /** Component-wise maximum (grows to the larger size). */
    void join(const VectorClock &other);

    /** True iff the epoch (@p p, @p clock) happened before this clock. */
    bool
    covers(unsigned p, std::uint64_t clock) const
    {
        return at(p) >= clock;
    }

  private:
    std::vector<std::uint64_t> c_;
};

/** Provenance of one side of a racy access pair. */
struct RaceAccess
{
    ProcId proc = 0;
    ChunkSeq seq = 0;            ///< processor-local logical chunk
    std::uint64_t commitPos = 0; ///< canonical global commit position
    AccessKind kind = AccessKind::kLoad;
};

/** One detected data race (the first on its word, canonical order). */
struct RaceFinding
{
    Addr word = 0;     ///< word-granular address (8-byte aligned)
    RaceAccess prior;  ///< the earlier access in canonical order
    RaceAccess racing; ///< the unordered later access

    /** One-line deterministic rendering. */
    std::string describe() const;
};

/** Full detector output for one replay. */
struct RaceReport
{
    std::vector<RaceFinding> findings; ///< canonical discovery order
    std::uint64_t chunksObserved = 0;
    std::uint64_t accessesChecked = 0; ///< data accesses race-checked
    std::uint64_t wordsTracked = 0;    ///< distinct data words seen

    bool clean() const { return findings.empty(); }

    /**
     * Multi-line rendering, one finding per line plus a summary
     * footer. Byte-identical for byte-identical event streams — the
     * determinism tests compare these strings directly.
     */
    std::string describe() const;
};

/**
 * ReplayObserver that performs happens-before race detection. Attach
 * via EngineOptions::observer or ParallelReplayOptions::observer; one
 * instance per replay (onReplayBegin resets all state). The report is
 * valid after onReplayEnd().
 */
class RaceDetector : public ReplayObserver
{
  public:
    RaceDetector() = default;

    void onReplayBegin(const Recording &rec) override;
    void onChunkRetire(const ChunkObservation &obs) override;
    void onDmaRetire(const DmaObservation &obs) override;
    void onReplayEnd() override;

    const RaceReport &report() const { return report_; }

  private:
    /** Per-word FastTrack-style metadata. */
    struct WordState
    {
        std::uint64_t writeClock = 0; ///< 0 = never written
        RaceAccess write;
        /// Per-processor read epochs; clock 0 = no outstanding read.
        std::vector<std::uint64_t> readClock;
        std::vector<RaceAccess> read;
    };

    void checkData(Addr word, const RaceAccess &cur,
                   const VectorClock &vc);
    void handleSync(Addr word, AccessKind kind, VectorClock &vc);

    unsigned procs_ = 0;
    std::vector<VectorClock> clocks_;
    std::unordered_map<Addr, VectorClock> syncClocks_;
    std::unordered_map<Addr, WordState> words_;
    std::unordered_set<Addr> reportedWords_;
    std::uint64_t lastPos_ = 0;
    bool sawEvent_ = false;
    RaceReport report_;
};

} // namespace delorean

#endif // DELOREAN_ANALYSIS_RACE_DETECTOR_HPP_
