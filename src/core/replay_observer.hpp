/**
 * @file
 * Replay-observer plugin API (DESIGN.md Section 15).
 *
 * Deterministic replay is the substrate for heavyweight dynamic
 * analysis (race detection, lock-order checking, taint tracking) that
 * is too expensive to run at record time. An analysis implements
 * ReplayObserver and attaches it to a replay via
 * EngineOptions::observer (serial DES replay) or
 * ParallelReplayOptions::observer (chunk-parallel replay).
 *
 * The contract both replayers honor:
 *
 *  - Every committed chunk produces exactly one onChunkRetire() with
 *    the chunk's ordered program-order memory-access trace (split
 *    replay chunks are merged back into their logical chunk first);
 *    every DMA transfer produces exactly one onDmaRetire().
 *  - Callbacks arrive in ascending *canonical commit position* — a
 *    dense 0-based global sequence over chunk and DMA commits that is
 *    a pure function of the recording (PI/strata log linearization),
 *    never of replay timing. Out-of-order retirement (the parallel
 *    replayer's OCC pipeline, strata reordering) is buffered and
 *    re-sequenced by ObserverHub, so an observer sees a byte-identical
 *    event stream at any DELOREAN_JOBS and commit-window size.
 *  - Callbacks run on the replay coordinator thread; observers need no
 *    locking of their own.
 *  - The observer is borrowed, never owned: it must outlive the
 *    replay, and one observer instance must not be attached to two
 *    concurrent replays.
 *  - Observers require a full-run replay: combining an observer with
 *    interval replay (checkpoint start/stop) is rejected with a
 *    ConfigError, since analyses like happens-before need the complete
 *    commit history.
 */

#ifndef DELOREAN_CORE_REPLAY_OBSERVER_HPP_
#define DELOREAN_CORE_REPLAY_OBSERVER_HPP_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "core/stratifier.hpp"
#include "trace/instr.hpp"

namespace delorean
{

struct Recording;
struct DmaTransfer;

/** ConfigError text for an observer attached to an interval replay. */
inline constexpr char kObserverNeedsFullRun[] =
    "replay observers require a full-run replay; they cannot be "
    "attached to an interval replay";

/** One committed chunk, delivered in canonical commit order. */
struct ChunkObservation
{
    ProcId proc = 0;
    ChunkSeq seq = 0;            ///< processor-local logical chunk number
    std::uint64_t commitPos = 0; ///< canonical global commit position
    InstrCount size = 0;         ///< retired instructions (all pieces)
    /// Ordered program-order trace of the chunk's cached accesses.
    /// Borrowed: valid only for the duration of the callback.
    const std::vector<MemAccess> *accesses = nullptr;
};

/** One committed DMA transfer, delivered in canonical commit order. */
struct DmaObservation
{
    std::uint64_t commitPos = 0; ///< canonical global commit position
    /// Borrowed from the recording's DMA log; valid for the callback.
    const DmaTransfer *transfer = nullptr;
};

/** Base class for replay-time analyses. */
class ReplayObserver
{
  public:
    virtual ~ReplayObserver() = default;

    /** Called once before the first retirement. */
    virtual void onReplayBegin(const Recording &rec) { (void)rec; }

    /** Called once per committed logical chunk, in canonical order. */
    virtual void onChunkRetire(const ChunkObservation &obs) = 0;

    /** Called once per DMA transfer, in canonical order. */
    virtual void onDmaRetire(const DmaObservation &obs) { (void)obs; }

    /** Called once after the last retirement of a completed replay. */
    virtual void onReplayEnd() {}
};

/**
 * Re-sequencing buffer between a replayer and its observer. Retires
 * may arrive in any order tagged with their canonical commit position;
 * the hub holds them until every predecessor has been delivered, then
 * dispatches in strictly ascending position. Single-threaded: both
 * replayers retire on their coordinator thread.
 */
class ObserverHub
{
  public:
    explicit ObserverHub(ReplayObserver *observer) : observer_(observer) {}

    bool enabled() const { return observer_ != nullptr; }

    void
    begin(const Recording &rec)
    {
        if (observer_)
            observer_->onReplayBegin(rec);
    }

    /** Buffer a chunk retirement at canonical position @p pos. */
    void
    chunkRetired(std::uint64_t pos, ProcId proc, ChunkSeq seq,
                 InstrCount size, std::vector<MemAccess> trace)
    {
        if (!observer_)
            return;
        Event e;
        e.proc = proc;
        e.seq = seq;
        e.size = size;
        e.trace = std::move(trace);
        pending_.emplace(pos, std::move(e));
        drain();
    }

    /** Buffer a DMA retirement at canonical position @p pos. */
    void
    dmaRetired(std::uint64_t pos, const DmaTransfer &xfer)
    {
        if (!observer_)
            return;
        Event e;
        e.isDma = true;
        e.transfer = &xfer;
        pending_.emplace(pos, std::move(e));
        drain();
    }

    /**
     * Finish a completed replay: a full run's positions are dense, so
     * everything buffered has been delivered; dispatch onReplayEnd.
     */
    void
    end()
    {
        if (!observer_)
            return;
        // Belt and braces: a gap here would mean a replayer bug, but
        // never silently drop events — deliver the remainder in order.
        for (auto &[pos, e] : pending_)
            dispatch(pos, e);
        pending_.clear();
        observer_->onReplayEnd();
    }

  private:
    struct Event
    {
        bool isDma = false;
        ProcId proc = 0;
        ChunkSeq seq = 0;
        InstrCount size = 0;
        std::vector<MemAccess> trace;
        const DmaTransfer *transfer = nullptr;
    };

    void
    dispatch(std::uint64_t pos, const Event &e)
    {
        if (e.isDma) {
            DmaObservation obs;
            obs.commitPos = pos;
            obs.transfer = e.transfer;
            observer_->onDmaRetire(obs);
        } else {
            ChunkObservation obs;
            obs.proc = e.proc;
            obs.seq = e.seq;
            obs.commitPos = pos;
            obs.size = e.size;
            obs.accesses = &e.trace;
            observer_->onChunkRetire(obs);
        }
    }

    void
    drain()
    {
        for (auto it = pending_.begin();
             it != pending_.end() && it->first == next_;
             it = pending_.erase(it), ++next_)
            dispatch(it->first, it->second);
    }

    ReplayObserver *observer_;
    std::map<std::uint64_t, Event> pending_;
    std::uint64_t next_ = 0;
};

/**
 * Canonical commit positions of a stratified recording. A stratified
 * replay's retirement order is timing-dependent *within* a stratum
 * (any processor with remaining budget may go), so the canonical
 * linearization is fixed by the log alone: strata in order, and within
 * a non-DMA stratum processors in ascending ID, each contributing its
 * full chunk budget; a DMA stratum is one DMA commit slot. This is
 * exactly the order a replay that always picks the lowest-ID budgeted
 * processor retires in.
 */
struct StrataCanonicalOrder
{
    /// chunkPos[p][k]: canonical position of processor p's k-th chunk.
    std::vector<std::vector<std::uint64_t>> chunkPos;
    /// dmaPos[d]: canonical position of the d-th DMA transfer.
    std::vector<std::uint64_t> dmaPos;
};

inline StrataCanonicalOrder
computeStrataCanonicalOrder(const std::vector<Stratum> &strata,
                            unsigned num_procs)
{
    StrataCanonicalOrder order;
    order.chunkPos.resize(num_procs);
    std::uint64_t pos = 0;
    for (const Stratum &s : strata) {
        if (s.isDma) {
            order.dmaPos.push_back(pos++);
            continue;
        }
        for (unsigned p = 0; p < num_procs && p < s.counts.size(); ++p)
            for (std::uint8_t k = 0; k < s.counts[p]; ++k)
                order.chunkPos[p].push_back(pos++);
    }
    return order;
}

} // namespace delorean

#endif // DELOREAN_CORE_REPLAY_OBSERVER_HPP_
