/**
 * @file
 * ChunkEngine: the DeLorean execution substrate (Sections 3-4).
 *
 * A discrete-event simulation of a BulkSC-style CMP in which every
 * processor continuously executes chunks of instructions atomically
 * and in isolation. One engine instance performs one run — either an
 * initial execution (record) or a replay of a prior Recording.
 *
 * Record:  the arbiter appends committing procIDs to the PI log (or
 *          feeds the Stratifier), processors append CS entries for
 *          non-deterministic truncations (or every chunk size in
 *          Order&Size), and the input logs capture interrupts, I/O
 *          load values and DMA data.
 * Replay:  the arbiter enforces the recorded commit order (PI log,
 *          strata, or the predefined round-robin in PicoLog);
 *          processors truncate chunks according to their CS logs and
 *          take interrupt/I/O/DMA inputs from the logs. Timing
 *          perturbations (Section 6.2.1) are injected to demonstrate
 *          that determinism does not depend on timing.
 */

#ifndef DELOREAN_CORE_ENGINE_HPP_
#define DELOREAN_CORE_ENGINE_HPP_

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "chunk/chunk.hpp"
#include "chunk/spec_tracker.hpp"
#include "common/config.hpp"
#include "common/line_set.hpp"
#include "core/checkpoint.hpp"
#include "core/recording.hpp"
#include "core/replay_observer.hpp"
#include "memory/cache.hpp"
#include "memory/directory.hpp"
#include "memory/memory_state.hpp"
#include "sim/timing_model.hpp"
#include "trace/devices.hpp"
#include "trace/workload.hpp"

namespace delorean
{

/** Replay timing-perturbation knobs (Section 6.2.1). */
struct ReplayPerturbation
{
    bool enabled = false;
    std::uint64_t seed = 0;
    /// Add a random stall before this fraction of commit requests.
    unsigned commitStallPerMille = 300;
    Cycle stallMinCycles = 10;
    Cycle stallMaxCycles = 300;
    /// Swap the latency of this fraction of cache hits/misses.
    unsigned hitMissSwapPerMille = 15;
};

/** Engine role and environment. */
struct EngineOptions
{
    bool replay = false;
    /// Record only: false disables all log writes (the plain BulkSC
    /// machine of Figure 10).
    bool logging = true;
    /// Environment randomness (devices, wrong-path noise); never
    /// architectural.
    std::uint64_t envSeed = 1;
    /// Replay only: virtualization penalty — this arbitration latency
    /// (30 -> 50 cycles in the paper) on every replayed commit.
    Cycle replayArbitrationLatency = 50;
    ReplayPerturbation perturb;
    /// Event-budget override; 0 keeps the default safety valve. The
    /// validation layer shrinks this so a corrupted log that parks
    /// the replay in a livelock fails in milliseconds, not hours.
    std::uint64_t maxEvents = 0;
    /// Record only: take a SystemCheckpoint when the global commit
    /// count reaches each of these values (ascending).
    std::vector<std::uint64_t> checkpointGccs;
    /// Record only: additionally take a checkpoint every this many
    /// global commits (0 = disabled). Combines with checkpointGccs;
    /// a GCC named by both yields one checkpoint. This is the knob
    /// the archive writer (src/store) uses to define segment cuts.
    std::uint64_t checkpointPeriod = 0;
    /// Replay only: start from this checkpoint instead of the initial
    /// state (interval replay, Appendix B). Works for all modes,
    /// including stratified recordings (checkpoints land on stratum
    /// boundaries by construction).
    const SystemCheckpoint *startCheckpoint = nullptr;
    /// Replay only: stop once the global commit count reaches this
    /// checkpoint's GCC instead of running to program end — the upper
    /// bound of interval replay I(n, m). The outcome fingerprint then
    /// covers exactly the commits in [start, stop) and the
    /// architectural state at the stop checkpoint.
    const SystemCheckpoint *stopCheckpoint = nullptr;
    /// Replay only: analysis plugin receiving every chunk/DMA
    /// retirement in canonical commit order (see replay_observer.hpp).
    /// Borrowed — must outlive the replay. Incompatible with interval
    /// replay (ConfigError): analyses need the full commit history.
    ReplayObserver *observer = nullptr;
    /// Record only: segment-flush hook, invoked on the simulation
    /// thread at the end of every checkpoint, after the checkpoint has
    /// been pushed onto the recording. At that point every log is
    /// complete up to the checkpoint GCC (PI/CS/input appends happen
    /// before the commit's checkpoint test, and for stratified modes
    /// rec.strata is synced to the stratifier before the call), so a
    /// streaming consumer — the archive's StreamingArchiveWriter — can
    /// cut the segment ending at rec.checkpoints.back() while the
    /// simulation continues. The callee must not retain references
    /// into the recording across calls: logs keep growing.
    std::function<void(const Recording &)> onCheckpoint;
};

/** Outcome of a replay run. */
struct ReplayOutcome
{
    ExecutionFingerprint fingerprint;
    EngineStats stats;
    bool deterministicExact = false;
    bool deterministicPerProc = false;
};

/** One chunked-execution run. Single use. */
class ChunkEngine
{
  public:
    ChunkEngine(const Workload &workload, const MachineConfig &machine,
                const ModeConfig &mode, const EngineOptions &options);
    ~ChunkEngine();

    /** Run an initial execution and return its recording. */
    Recording record();

    /** Replay @p prior and check determinism against its fingerprint. */
    ReplayOutcome replay(const Recording &prior);

  private:
    // ----- event machinery ---------------------------------------------
    enum class EvKind : std::uint8_t
    {
        kChunkDone,
        kRequestArrive,
        kCommitFinish,
        kTokenArrive,
        kProcResume,
    };

    struct Event
    {
        Cycle time;
        std::uint64_t order;
        EvKind kind;
        ProcId proc;
        std::uint64_t uid;

        bool
        operator>(const Event &o) const
        {
            return time != o.time ? time > o.time : order > o.order;
        }
    };

    /**
     * Saved parameters for re-executing a squashed chunk. The start
     * context is NOT stored here: squashFrom restores it directly
     * into ProcState::ctx, which nothing mutates until the rebuild
     * (tryStartChunk bails out while a restart is pending), so the
     * squash/restart path performs a single context copy instead of
     * four.
     */
    struct RestartInfo
    {
        ChunkSeq seq = 0;
        bool continuation = false;
        InstrCount pieceTarget = 0;
        unsigned squashCount = 0;
        bool collisionReduced = false;
    };

    /** Extra chunk bookkeeping not in the plain Chunk struct. */
    struct ChunkExtra
    {
        std::uint64_t uid = 0;
        bool continuation = false;
        InstrCount pieceTarget = 0;
        bool collisionReduced = false;
        bool requestArrived = false;
        Cycle requestTime = kNoCycle;
        bool remainderAfter = false; ///< replay split: pieces follow
        /// Lines read: exact disambiguation and the exact stratifier
        /// (the written lines are Chunk::writtenLines).
        LineSet linesRead;
        /// Cache fills this chunk performed (miss level per line), in
        /// access order. On a mid-execution squash the unreached tail
        /// is rolled back so eager chunk generation cannot act as a
        /// free prefetcher (see squashFrom).
        std::vector<std::pair<Addr, HitLevel>> fills;
        /// Program-order cached-access trace for the replay observer.
        /// Collected only when an observer is attached; wrong-path
        /// noise never enters (it is signature-only).
        std::vector<MemAccess> trace;
    };

    struct EngineChunk : Chunk
    {
        ChunkExtra extra;

        void
        reset()
        {
            Chunk::reset();
            extra.uid = 0;
            extra.continuation = false;
            extra.pieceTarget = 0;
            extra.collisionReduced = false;
            extra.requestArrived = false;
            extra.requestTime = kNoCycle;
            extra.remainderAfter = false;
            extra.linesRead.clear();
            extra.fills.clear();
            extra.trace.clear();
        }
    };

    struct ProcState
    {
        ThreadContext ctx; ///< speculative frontier
        std::deque<std::unique_ptr<EngineChunk>> inflight; ///< oldest first
        ChunkSeq nextSeq = 0;       ///< next logical chunk number
        ChunkSeq irqCheckedSeq = static_cast<ChunkSeq>(-1);
        InstrCount pendingRemainder = 0; ///< replay split leftover
        InstrCount partialSize = 0; ///< committed pieces of current logical
        bool mustContinue = false;  ///< arbiter must finish split chunk
        std::optional<RestartInfo> restart;
        /// Context at the boundary of the last committed chunk and the
        /// number of chunks committed — the ingredients of a
        /// SystemCheckpoint.
        ThreadContext lastCommittedCtx;
        ChunkSeq committedCount = 0;
        bool stalled = false;
        Cycle stallStart = 0;
        bool blockedOnOverflow = false;
        bool finished = false;
        std::uint64_t stallCycles = 0;
        /// Highest logical chunk seq whose boundary has been polled
        /// for interrupts (record side). kNoCycle-like sentinel below.
        /// Interrupts delivered at a seq are remembered in irqBySeq so
        /// that a cascade squash past that boundary re-delivers the
        /// SAME interrupt on rebuild instead of losing it.
        std::unordered_map<ChunkSeq, InterruptRecord> irqBySeq;
        /// Observer replay: accumulated access trace of the committed
        /// pieces of the current logical chunk (split chunks deliver
        /// one merged observation at the final piece).
        std::vector<MemAccess> pendingTrace;
        /// Observer replay: canonical commit position of the logical
        /// chunk being committed, captured when its PI entry is
        /// consumed (first piece) for the flat cursor.
        std::uint64_t obsPos = 0;
    };

    // ----- run ----------------------------------------------------------
    void runLoop();
    void schedule(Cycle time, EvKind kind, ProcId proc, std::uint64_t uid);
    void handleEvent(const Event &ev);

    // ----- chunk lifecycle ----------------------------------------------
    void tryStartChunk(ProcId p, Cycle now);
    void buildChunk(ProcId p, Cycle now);
    void onChunkDone(ProcId p, std::uint64_t uid, Cycle now);
    void squashFrom(ProcId p, std::size_t idx, Cycle now);
    EngineChunk *findChunk(ProcId p, std::uint64_t uid);

    /// Chunk freelist: squashed and committed chunks are recycled so
    /// the build loop stops hitting the allocator (and the recycled
    /// buffers keep their grown capacity).
    std::unique_ptr<EngineChunk> acquireChunk();
    void recycleChunk(std::unique_ptr<EngineChunk> chunk);
    std::vector<std::unique_ptr<EngineChunk>> chunk_pool_;

    /// The DES policy of the chunk-body runner (chunk/body_runner.hpp).
    struct BodyPolicy;

    /** Does a committing write set conflict with @p running? */
    bool conflictsWith(const EngineChunk &running,
                       const std::vector<Addr> &write_lines,
                       const Signature &write_sig);

    // ----- commit fast path ----------------------------------------------
    /// Summary-filtered signature intersection with stats accounting.
    bool sigConflict(const SignaturePair &running,
                     const Signature &write_sig);
    /// Squash every running chunk conflicting with a committed write
    /// set; processors whose in-flight union provably misses the
    /// write signature are skipped without walking their chunks.
    void sweepConflicts(ProcId committing, const std::vector<Addr> &wlines,
                        const Signature &wsig, Cycle now);
    void noteChunkInflight(ProcId p, const EngineChunk &chunk);
    void rebuildProcUnion(ProcId p);

    /// Per-processor OR of that processor's in-flight chunk R and W
    /// signatures. Exact over the live window: rebuilt whenever
    /// chunks leave it (commit pop or squash), which is cheap because
    /// a processor holds at most a handful of simultaneous chunks and
    /// clear() is an epoch bump.
    std::vector<Signature> proc_unions_;

    // ----- arbiter -------------------------------------------------------
    void arbiterProcess(Cycle now);
    EngineChunk *oldestReady(ProcId p);
    EngineChunk *pickCandidate(ProcId &out_proc);
    void grantChunk(ProcId p, Cycle now);
    void grantDma(Cycle now);
    bool dmaDueForReplay() const;
    void checkDma(Cycle now);
    unsigned freeSlots(Cycle now) const;
    unsigned busySlots(Cycle now) const;
    /// Occupy a free commit slot for @p occupancy cycles.
    void occupySlot(Cycle now, Cycle occupancy);
    void onTokenArrive(ProcId p, Cycle now);
    void tokenTry(Cycle now);
    void passToken(ProcId p, Cycle now);
    bool dmaIsNext(Cycle now) const;
    bool anyMustContinue() const;
    unsigned countReadyProcs() const;
    bool allFinished() const;

    // ----- configuration / state ----------------------------------------
    const Workload &workload_;
    MachineConfig machine_;
    ModeConfig mode_;
    EngineOptions opts_;
    unsigned n_;

    MemoryState mem_;
    CacheHierarchy caches_;
    Directory dir_;
    TimingModel timing_;
    Xoshiro256ss env_rng_;
    Xoshiro256ss perturb_rng_;

    InterruptSource irq_;
    DmaEngine dma_dev_;
    IoDevice io_dev_;

    std::vector<ProcState> procs_;
    std::vector<SpecTracker> spec_; ///< one per processor

    std::priority_queue<Event, std::vector<Event>, std::greater<Event>>
        events_;
    std::uint64_t event_order_ = 0;
    std::uint64_t next_uid_ = 1;
    Cycle last_time_ = 0;

    // arbiter
    std::vector<Cycle> slot_busy_until_;
    std::uint64_t gcc_ = 0; ///< global (logical) chunk commit count
    /// Replay: set when gcc_ reaches opts_.stopCheckpoint->gcc; the
    /// event loop exits instead of draining to program end.
    bool stopped_ = false;
    /// Replay: cycle at which the arbiter last found a completed chunk
    /// it could not grant because the log head names another processor
    /// (kNoCycle = not stalled). Accumulated into
    /// EngineStats::replayHeadStallCycles at the next grant.
    Cycle head_stall_since_ = kNoCycle;
    // PicoLog record token
    ProcId token_proc_ = 0;
    Cycle token_arrive_time_ = 0;
    bool token_in_transit_ = true;
    bool token_waiting_for_chunk_ = false;
    bool token_waiting_for_slot_ = false;
    Cycle token_round_start_ = kNoCycle;
    // PicoLog replay round-robin pointer
    ProcId rr_next_ = 0;
    // record: pending DMA transfers awaiting a commit slot
    std::deque<DmaTransfer> dma_pending_;
    std::size_t dma_granted_ = 0; ///< transfers committed so far
    std::size_t next_checkpoint_ = 0; ///< index into checkpointGccs
    /// Record with checkpoints: the images taken so far (a keyframe
    /// chain builder) and, after the first, the undo journal of the
    /// words committed since the last one. Both commit sites (chunk
    /// write-back and DMA) log a word before storing it.
    ImageChainBuilder images_;
    UndoJournal journal_;
    bool journaling_ = false;
    std::uint64_t image_hash_ = 0; ///< mem_.hash() at the last checkpoint
    void maybeCheckpoint();
    InstrCount generated_instrs_ = 0; ///< device-clock proxy

    // record outputs / replay inputs
    Recording *rec_ = nullptr;
    const Recording *prior_ = nullptr;
    std::unique_ptr<Stratifier> stratifier_;
    std::unique_ptr<PiLogCursor> pi_cursor_;
    std::unique_ptr<StrataCursor> strata_cursor_;
    std::size_t dma_replay_idx_ = 0;
    /// Replay observer plumbing: re-sequencing hub plus, for
    /// stratified replays (whose intra-stratum retire order is
    /// timing-dependent), the precomputed canonical positions.
    std::unique_ptr<ObserverHub> obs_hub_;
    std::unique_ptr<StrataCanonicalOrder> strata_order_;
    /// Replay: per-processor CS entries keyed by logical chunk number.
    /// Chunks are built ahead of commits, so a sequential cursor would
    /// misalign; lookup by seq is also squash-rebuild safe.
    std::vector<CsBySeq> cs_lookup_;

    ExecutionFingerprint fp_;
    EngineStats stats_;
    bool ran_ = false;

    Cycle arbLatency() const;
    Cycle commitLatency() const { return 30; }
    static constexpr Cycle kTokenHop = 25;
    static constexpr Cycle kSquashPenalty = 20;
    static constexpr double kSpecialSysCost = 50.0;
};

} // namespace delorean

#endif // DELOREAN_CORE_ENGINE_HPP_
