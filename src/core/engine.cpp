#include "core/engine.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstddef>
#include <cstring>
#include <stdexcept>
#include <type_traits>

#include "chunk/body_runner.hpp"
#include "common/errors.hpp"
#include "trace/layout.hpp"

namespace delorean
{

namespace
{

/// Safety valve against structural deadlock / runaway simulations.
constexpr std::uint64_t kMaxEvents = 2'000'000'000ull;

/// Per-instruction rollback snapshots copy every ThreadContext field
/// before mappedSegs (which generate() can only set one bit of, undone
/// separately). mappedSegs must therefore stay the last member.
static_assert(std::is_trivially_copyable_v<ThreadContext>);
constexpr std::size_t kCtxRollbackBytes =
    offsetof(ThreadContext, mappedSegs);
static_assert(kCtxRollbackBytes + sizeof(std::bitset<2048>)
              == sizeof(ThreadContext));

/// Cache ways hold 32-bit line tags. Every cached access lies below
/// the uncached I/O region, the layout's highest, so its line fits.
static_assert(lineOf(AddressLayout::kIoBase - 1) <= kMaxCachedLine);

} // namespace

ChunkEngine::ChunkEngine(const Workload &workload,
                         const MachineConfig &machine,
                         const ModeConfig &mode,
                         const EngineOptions &options)
    : workload_(workload),
      machine_(machine),
      mode_(mode),
      opts_(options),
      n_(machine.numProcs),
      caches_(machine),
      timing_(machine, ConsistencyModel::kChunked),
      env_rng_(options.envSeed),
      perturb_rng_(options.perturb.seed),
      irq_(workload.profile(), n_, options.envSeed),
      dma_dev_(workload.profile(), options.envSeed),
      io_dev_(options.envSeed),
      procs_(n_)
{
    assert(workload.numProcs() == n_);
    if (n_ < 1 || n_ > 64)
        throw ConfigError("numProcs must be in [1, 64], got "
                          + std::to_string(n_));
    proc_unions_.resize(n_);
    workload_.initializeMemory(mem_);
    const unsigned l1_sets =
        machine_.mem.l1SizeBytes / kLineBytes / machine_.mem.l1Ways;
    for (ProcId p = 0; p < n_; ++p) {
        workload_.program().initContext(procs_[p].ctx, p);
        procs_[p].lastCommittedCtx = procs_[p].ctx;
        procs_[p].finished = workload_.program().done(procs_[p].ctx);
        spec_.emplace_back(l1_sets, machine_.mem.l1Ways);
    }
    stats_.perProcStallCycles.assign(n_, 0);
}

ChunkEngine::~ChunkEngine() = default;

Cycle
ChunkEngine::arbLatency() const
{
    return opts_.replay ? opts_.replayArbitrationLatency
                        : machine_.bulk.commitArbitration;
}

// ---------------------------------------------------------------------------
// Run entry points
// ---------------------------------------------------------------------------

Recording
ChunkEngine::record()
{
    assert(!ran_ && !opts_.replay);
    ran_ = true;
    const auto wall_start = std::chrono::steady_clock::now();

    Recording rec;
    rec.machine = machine_;
    rec.mode = mode_;
    rec.appName = workload_.name();
    rec.workloadSeed = workload_.seed();
    // Stamped up front, not post-hoc: streaming consumers (the ring
    // writer's one-time meta) see the in-flight recording mid-run.
    rec.iterationsPercent = workload_.iterationsPercent();
    rec.pi = PiLog(n_);
    rec.cs.assign(n_, CsLog(mode_));
    rec.interrupts = InterruptLog(n_);
    rec.io = IoLog(n_);
    rec_ = &rec;

    if (mode_.stratifyChunksPerProc != 0
        && mode_.mode != ExecMode::kPicoLog) {
        stratifier_ = std::make_unique<Stratifier>(
            n_, mode_.stratifyChunksPerProc);
    }

    slot_busy_until_.assign(machine_.bulk.maxConcurrentCommits, 0);

    for (ProcId p = 0; p < n_; ++p)
        tryStartChunk(p, 0);
    if (mode_.mode == ExecMode::kPicoLog)
        schedule(kTokenHop, EvKind::kTokenArrive, 0, 0);

    runLoop();

    if (stratifier_) {
        stratifier_->finish();
        rec.strata = stratifier_->strata();
    }

    for (ProcId p = 0; p < n_; ++p) {
        fp_.perProcAcc.push_back(procs_[p].ctx.acc);
        fp_.perProcRetired.push_back(procs_[p].ctx.retired);
    }
    fp_.finalMemHash = mem_.hash();
    rec.fingerprint = fp_;

    stats_.totalCycles = last_time_;
    stats_.generatedInstrs = generated_instrs_;
    for (ProcId p = 0; p < n_; ++p)
        stats_.perProcStallCycles[p] = procs_[p].stallCycles;
    stats_.traffic = dir_.traffic();
    stats_.logWordFlushes = rec.pi.wordFlushes();
    for (const CsLog &log : rec.cs)
        stats_.logWordFlushes += log.wordFlushes();
    stats_.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now()
                                      - wall_start)
            .count();
    rec.stats = stats_;
    return rec;
}

ReplayOutcome
ChunkEngine::replay(const Recording &prior)
{
    assert(!ran_ && opts_.replay);
    assert(prior.machine.numProcs == n_);
    ran_ = true;
    const auto wall_start = std::chrono::steady_clock::now();
    prior_ = &prior;

    if (opts_.observer
        && (opts_.startCheckpoint || opts_.stopCheckpoint))
        throw ConfigError(kObserverNeedsFullRun);
    obs_hub_ = std::make_unique<ObserverHub>(opts_.observer);
    if (obs_hub_->enabled() && prior.stratified())
        strata_order_ = std::make_unique<StrataCanonicalOrder>(
            computeStrataCanonicalOrder(prior.strata, n_));

    if (mode_.mode != ExecMode::kPicoLog) {
        if (prior.stratified())
            strata_cursor_ = std::make_unique<StrataCursor>(prior.strata, n_);
        else
            pi_cursor_ = std::make_unique<PiLogCursor>(prior.pi);
    }

    cs_lookup_.resize(n_);
    for (ProcId p = 0; p < n_; ++p) {
        for (const CsEntry &e : prior.cs[p].entries())
            cs_lookup_[p].emplace(e.seq, e);
        for (const InterruptRecord &e : prior.interrupts.entries(p))
            procs_[p].irqBySeq.emplace(e.chunkSeq, e);
    }

    // The virtualized replay arbiter has one commit slot: grants
    // follow the log order, so overlapping slots would buy nothing.
    slot_busy_until_.assign(1, 0);

    if (const SystemCheckpoint *ckpt = opts_.startCheckpoint) {
        // Interval replay (Appendix B): restore the architectural
        // state at GCC = n and resume consuming the logs there.
        assert(ckpt->valid() && ckpt->contexts.size() == n_);
        mem_ = ckpt->memory.materialize();
        gcc_ = ckpt->gcc;
        dma_replay_idx_ = ckpt->dmaConsumed;
        rr_next_ = ckpt->rrNext;
        if (pi_cursor_)
            pi_cursor_->seek(ckpt->gcc);
        if (strata_cursor_)
            strata_cursor_->advanceTo(ckpt->committedChunks,
                                      ckpt->dmaConsumed);
        for (ProcId p = 0; p < n_; ++p) {
            procs_[p].ctx = ckpt->contexts[p];
            procs_[p].lastCommittedCtx = ckpt->contexts[p];
            procs_[p].nextSeq = ckpt->committedChunks[p];
            procs_[p].committedCount = ckpt->committedChunks[p];
            procs_[p].finished =
                workload_.program().done(procs_[p].ctx);
        }
    }

    obs_hub_->begin(prior);

    for (ProcId p = 0; p < n_; ++p)
        tryStartChunk(p, 0);

    runLoop();

    obs_hub_->end();

    for (ProcId p = 0; p < n_; ++p) {
        // A bounded replay stops at a commit boundary with chunks
        // still speculatively in flight, so the architectural thread
        // state is the last *committed* context, not the frontier.
        const ThreadContext &ctx = opts_.stopCheckpoint
                                       ? procs_[p].lastCommittedCtx
                                       : procs_[p].ctx;
        fp_.perProcAcc.push_back(ctx.acc);
        fp_.perProcRetired.push_back(ctx.retired);
    }
    fp_.finalMemHash = mem_.hash();

    stats_.totalCycles = last_time_;
    stats_.generatedInstrs = generated_instrs_;
    for (ProcId p = 0; p < n_; ++p)
        stats_.perProcStallCycles[p] = procs_[p].stallCycles;
    stats_.traffic = dir_.traffic();
    stats_.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now()
                                      - wall_start)
            .count();

    ReplayOutcome outcome;
    outcome.fingerprint = fp_;
    outcome.stats = stats_;
    const ExecutionFingerprint expected = prior.expectedFingerprint(
        opts_.startCheckpoint, opts_.stopCheckpoint);
    outcome.deterministicExact = fp_.matchesExact(expected);
    outcome.deterministicPerProc = fp_.matchesPerProc(expected);
    return outcome;
}

void
ChunkEngine::maybeCheckpoint()
{
    if (opts_.replay || !rec_)
        return;
    bool due = false;
    if (next_checkpoint_ < opts_.checkpointGccs.size()
        && gcc_ == opts_.checkpointGccs[next_checkpoint_]) {
        ++next_checkpoint_;
        due = true;
    }
    if (opts_.checkpointPeriod != 0
        && gcc_ % opts_.checkpointPeriod == 0)
        due = true;
    if (!due)
        return;

    // Align the strata log with the checkpoint: cutting the pending
    // partial stratum here means no stratum ever straddles a
    // checkpoint GCC, which is what lets the archive (src/store)
    // slice the strata log at segment boundaries and StrataCursor
    // seek to one with whole-stratum consumption.
    if (stratifier_)
        stratifier_->cutAtCheckpoint();

    // The memory image: the first checkpoint hashes memory in full;
    // after it, the journal yields each interval's sorted delta and
    // carries the hash, so no checkpoint copies or rescans memory.
    SystemCheckpoint ckpt;
    ckpt.gcc = gcc_;
    ckpt.dmaConsumed = dma_granted_;
    for (const ProcState &ps : procs_) {
        ckpt.contexts.push_back(ps.lastCommittedCtx);
        ckpt.committedChunks.push_back(ps.committedCount);
    }
    // PicoLog: the turn after the last committing processor.
    if (!fp_.commits.empty())
        ckpt.rrNext = (fp_.commits.back().proc + 1)
                      % static_cast<ProcId>(n_);
    if (journaling_) {
        MemoryDelta delta = journal_.cut(mem_, image_hash_);
        ckpt.memory =
            images_.next(ckpt, mem_, std::move(delta), image_hash_);
    } else {
        image_hash_ = mem_.hash();
        ckpt.memory = images_.next(ckpt, mem_, MemoryDelta{}, image_hash_);
        journaling_ = true;
    }
    rec_->checkpoints.push_back(std::move(ckpt));

    if (opts_.onCheckpoint) {
        // Streaming consumers slice the strata and fingerprint logs
        // at checkpoint boundaries, but both live in the engine until
        // the run ends: sync the strata cut above and the append-only
        // commit-record tail. The final assignments at the end of
        // record() overwrite these with the finished logs.
        if (stratifier_)
            rec_->strata = stratifier_->strata();
        std::vector<CommitRecord> &commits =
            rec_->fingerprint.commits;
        commits.insert(commits.end(),
                       fp_.commits.begin()
                           + static_cast<std::ptrdiff_t>(
                               commits.size()),
                       fp_.commits.end());
        opts_.onCheckpoint(*rec_);
    }
}

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

void
ChunkEngine::schedule(Cycle time, EvKind kind, ProcId proc,
                      std::uint64_t uid)
{
    events_.push(Event{time, event_order_++, kind, proc, uid});
}

void
ChunkEngine::runLoop()
{
    const std::uint64_t budget =
        opts_.maxEvents ? opts_.maxEvents : kMaxEvents;
    std::uint64_t handled = 0;
    while (!events_.empty() && !stopped_) {
        const Event ev = events_.top();
        events_.pop();
        // Commit-finish events only wake the arbiter, and the arbiter
        // drains every grantable request per wakeup — so adjacent
        // wakeups at the same cycle are one drain pass. (Request
        // arrivals are NOT coalescible: their order is the FCFS queue
        // order and thus architectural.)
        if (ev.kind == EvKind::kCommitFinish) {
            while (!events_.empty()
                   && events_.top().kind == EvKind::kCommitFinish
                   && events_.top().time == ev.time) {
                events_.pop();
                ++stats_.arbiterWakeupsCoalesced;
            }
        }
        last_time_ = std::max(last_time_, ev.time);
        handleEvent(ev);
        if (++handled > budget) {
            if (opts_.replay)
                throw ReplayBudgetExceeded(
                    "no forward progress after "
                    + std::to_string(budget) + " events");
            throw std::runtime_error("ChunkEngine: event budget exceeded "
                                     "(possible deadlock/divergence)");
        }
    }
    if (stopped_)
        return; // bounded replay: the interval ends mid-program
    if (!allFinished()) {
        if (opts_.replay)
            throw ReplayStalled("event queue drained with threads "
                                "still unfinished");
        throw std::runtime_error("ChunkEngine: simulation stalled before "
                                 "all threads finished (replay divergence?)");
    }
}

void
ChunkEngine::handleEvent(const Event &ev)
{
    switch (ev.kind) {
      case EvKind::kChunkDone:
        onChunkDone(ev.proc, ev.uid, ev.time);
        break;
      case EvKind::kRequestArrive: {
        EngineChunk *c = findChunk(ev.proc, ev.uid);
        if (c) {
            c->extra.requestArrived = true;
            arbiterProcess(ev.time);
        }
        break;
      }
      case EvKind::kCommitFinish:
        arbiterProcess(ev.time);
        break;
      case EvKind::kTokenArrive:
        onTokenArrive(ev.proc, ev.time);
        break;
      case EvKind::kProcResume: {
        ProcState &ps = procs_[ev.proc];
        if (ps.restart.has_value())
            buildChunk(ev.proc, ev.time);
        else
            tryStartChunk(ev.proc, ev.time);
        break;
      }
    }
}

// ---------------------------------------------------------------------------
// Chunk lifecycle
// ---------------------------------------------------------------------------

ChunkEngine::EngineChunk *
ChunkEngine::findChunk(ProcId p, std::uint64_t uid)
{
    for (auto &c : procs_[p].inflight)
        if (c->extra.uid == uid)
            return c.get();
    return nullptr;
}

std::unique_ptr<ChunkEngine::EngineChunk>
ChunkEngine::acquireChunk()
{
    if (chunk_pool_.empty())
        return std::make_unique<EngineChunk>();
    auto chunk = std::move(chunk_pool_.back());
    chunk_pool_.pop_back();
    chunk->reset();
    return chunk;
}

void
ChunkEngine::recycleChunk(std::unique_ptr<EngineChunk> chunk)
{
    chunk_pool_.push_back(std::move(chunk));
}

void
ChunkEngine::tryStartChunk(ProcId p, Cycle now)
{
    ProcState &ps = procs_[p];
    if (ps.finished || ps.restart.has_value() || ps.blockedOnOverflow)
        return;
    // The finish test comes before the stop cap below: a processor
    // whose program ends inside a bounded interval must still be
    // marked finished, or PicoLog's round-robin waits on it forever.
    if (workload_.program().done(ps.ctx) && ps.pendingRemainder == 0) {
        if (ps.inflight.empty())
            ps.finished = true;
        return;
    }
    // Bounded replay: never build a chunk that commits at or after
    // the stop checkpoint — its CS/interrupt/IO records may lie in
    // segments the archive reader deliberately did not decode.
    if (opts_.replay && opts_.stopCheckpoint
        && ps.pendingRemainder == 0
        && ps.nextSeq >= opts_.stopCheckpoint->committedChunks[p])
        return;
    if (!ps.inflight.empty()
        && ps.inflight.back()->state == ChunkState::kExecuting)
        return;
    if (ps.inflight.size() >= machine_.bulk.simultaneousChunks) {
        if (!ps.stalled) {
            ps.stalled = true;
            ps.stallStart = now;
        }
        return;
    }
    buildChunk(p, now);
}

/**
 * What the DES adds to a chunk body: the cache model and its cost, the
 * store buffer, signatures, line sets and speculative lines, the I/O
 * device (record) or log (replay), and the undo of a store whose line
 * would overflow the cache.
 */
struct ChunkEngine::BodyPolicy
{
    ChunkEngine &e;
    ProcId p;
    EngineChunk &c;
    double cost = 0.0; ///< the body's cycles, added in program order
    // Lines of this build's previous load and previous store. As in
    // Bulk, a repeated access to a line adds nothing to the chunk's
    // signatures, line sets, speculative lines or directory sharers,
    // and cannot overflow the cache, so that work is done once.
    Addr lastRead = ~Addr{0};
    Addr lastWritten = ~Addr{0};
    /// Pre-instruction rollback snapshot. generate() can touch any
    /// small field but at most SETS one mappedSegs bit (first-touch
    /// trap), so the snapshot covers only the prefix before
    /// mappedSegs and the rollback clears that single bit — not a
    /// 256-byte bitset copy per instruction.
    ThreadContext pre;

    void
    beforeGenerate(const ThreadContext &ctx)
    {
        std::memcpy(static_cast<void *>(&pre),
                    static_cast<const void *>(&ctx), kCtxRollbackBytes);
    }

    bool
    access(ThreadContext &ctx, Op op, Addr line)
    {
        if (writesMemory(op) && line != lastWritten
            && !c.writtenLines.contains(line)
            && e.spec_[p].wouldOverflow(line)) {
            // Undo this generate() call: restore the small fields,
            // and if it fired the first-touch trap (the only path
            // that writes mappedSegs), clear the one bit it set.
            const bool trap_fired =
                pre.trapRemaining == 0 && ctx.trapRemaining > 0;
            const Addr trap_addr = ctx.pendingAccess.addr;
            std::memcpy(static_cast<void *>(&ctx),
                        static_cast<const void *>(&pre), kCtxRollbackBytes);
            if (trap_fired)
                ctx.mappedSegs.reset(AddressLayout::privateSegment(trap_addr));
            return false;
        }
        HitLevel level = e.caches_.access(p, line);
        if (level != HitLevel::kL1) {
            e.dir_.countLineTransfer();
            c.extra.fills.emplace_back(line, level);
        }
        if (e.opts_.perturb.enabled
            && e.perturb_rng_.chancePerMille(
                   e.opts_.perturb.hitMissSwapPerMille)) {
            level = (level == HitLevel::kL1) ? HitLevel::kL2 : HitLevel::kL1;
        }
        cost += e.timing_.memCost(op, level);
        return true;
    }

    std::uint64_t
    load(Addr word, Addr line)
    {
        // The signature insert and the sharer bit are idempotent
        // within a build, so they run once per line, when the line is
        // new to the chunk.
        if (line != lastRead) {
            lastRead = line;
            if (c.extra.linesRead.insert(line)) {
                c.sigs.read.insert(line);
                e.dir_.addSharer(p, line);
            }
        }
        std::uint64_t value = 0;
        if (c.forward(word, value))
            return value;
        // Older in-flight chunks of the same processor, youngest first.
        const auto &inflight = e.procs_[p].inflight;
        for (auto it = inflight.rbegin(); it != inflight.rend(); ++it) {
            if ((*it)->forward(word, value))
                return value;
        }
        return e.mem_.load(word);
    }

    void
    store(Addr word, Addr line, std::uint64_t value)
    {
        c.writes.emplace_back(word, value);
        c.writeMap[word] = value;
        if (line != lastWritten) {
            lastWritten = line;
            c.sigs.write.insert(line);
            if (c.writtenLines.insert(line))
                e.spec_[p].insert(line);
        }
    }

    std::uint64_t
    ioLoad(Addr addr, const ThreadContext &ctx)
    {
        cost += e.timing_.memCost(Op::kIoLoad, HitLevel::kMemory);
        const std::uint64_t value =
            e.opts_.replay ? loggedIoValue(e.prior_->io, p, ctx)
                           : e.io_dev_.read(addr);
        c.ioValues.push_back(value);
        return value;
    }

    void
    nonMemory(Op op)
    {
        cost += op == Op::kIoStore ? e.timing_.memCost(op, HitLevel::kMemory)
                : op == Op::kSpecialSys
                    ? e.timing_.computeCost() + kSpecialSysCost
                    : e.timing_.computeCost();
    }

    InstrCount spinCap(InstrCount left) const { return left; }

    /// Each repeat re-reads the line the spin load just brought into
    /// the L1: an L1 hit on the last way, no fill, nothing new for the
    /// L2, the directory, the signatures or the line sets. It still
    /// draws the perturbation RNG and adds its cost, one add at a
    /// time: k * cost, or a separate sum, would round differently.
    void
    repeatLoads(InstrCount k)
    {
        e.caches_.l1(p).repeatLast(k);
        for (InstrCount r = 0; r < k; ++r) {
            HitLevel level = HitLevel::kL1;
            if (e.opts_.perturb.enabled
                && e.perturb_rng_.chancePerMille(
                       e.opts_.perturb.hitMissSwapPerMille))
                level = HitLevel::kL2;
            cost += e.timing_.memCost(Op::kLoad, level);
        }
    }

    void retired(InstrCount n) { e.generated_instrs_ += n; }
};

void
ChunkEngine::buildChunk(ProcId p, Cycle now)
{
    ProcState &ps = procs_[p];
    const ThreadProgram &prog = workload_.program();

    ChunkSeq seq;
    bool continuation;
    InstrCount target;
    unsigned squash_count = 0;
    bool collision_reduced = false;

    if (ps.restart.has_value()) {
        // ps.ctx already holds the restart start context (restored by
        // squashFrom; nothing touches it while a restart is pending).
        const RestartInfo r = *ps.restart;
        ps.restart.reset();
        seq = r.seq;
        continuation = r.continuation;
        target = r.pieceTarget;
        squash_count = r.squashCount;
        collision_reduced = r.collisionReduced;
    } else {
        continuation = ps.pendingRemainder > 0;
        seq = ps.nextSeq;
        if (continuation) {
            target = ps.pendingRemainder;
        } else {
            // Interrupt delivery happens at the logical chunk
            // boundary, before the start-context snapshot is taken.
            // irqBySeq makes delivery a pure function of the chunk
            // seq, so a cascade squash that rolls the context back
            // past an already-delivered boundary re-delivers the same
            // interrupt when the chunk is rebuilt.
            const auto it = ps.irqBySeq.find(seq);
            if (it != ps.irqBySeq.end()) {
                prog.deliverInterrupt(ps.ctx, it->second.type,
                                      it->second.data);
            } else if (!opts_.replay
                       && (ps.irqCheckedSeq
                               == static_cast<ChunkSeq>(-1)
                           || seq > ps.irqCheckedSeq)) {
                ps.irqCheckedSeq = seq;
                InterruptEvent ie;
                if (irq_.poll(p, ps.ctx.retired, ie)) {
                    prog.deliverInterrupt(ps.ctx, ie.type, ie.data);
                    const InterruptRecord record{seq, ie.type, ie.data};
                    ps.irqBySeq.emplace(seq, record);
                    if (opts_.logging)
                        rec_->interrupts.append(p, record);
                }
            }

            // Target size.
            if (opts_.replay) {
                target = replayChunkTarget(mode_, cs_lookup_[p], seq);
            } else {
                target = mode_.chunkSize;
                if (mode_.mode == ExecMode::kOrderAndSize
                    && env_rng_.chancePerMille(
                           mode_.varSizeTruncatePercent * 10)) {
                    target = 1 + env_rng_.below(mode_.chunkSize);
                }
            }
        }
    }

    if (prog.done(ps.ctx) && !continuation) {
        if (ps.inflight.empty())
            ps.finished = true;
        return;
    }

    auto chunk = acquireChunk();
    EngineChunk &c = *chunk;
    c.proc = p;
    c.seq = seq;
    c.startCtx = ps.ctx;
    c.targetSize = target;
    c.squashCount = squash_count;
    c.startTime = now;
    c.extra.uid = next_uid_++;
    c.extra.continuation = continuation;
    c.extra.pieceTarget = target;
    c.extra.collisionReduced = collision_reduced;

    BodyPolicy body{*this, p, c};
    const auto [i, reason] = runChunkBody(
        prog, ps.ctx, target,
        obs_hub_ && obs_hub_->enabled() ? &c.extra.trace : nullptr, body);

    if (i == 0) {
        // Either the first store's line would overflow the cache (no
        // spec lines inserted by this chunk yet; wait until one of
        // this processor's chunks commits and frees ways), or the
        // program ended exactly at a chunk boundary.
        if (reason == ChunkEnd::kCacheOverflow)
            ps.blockedOnOverflow = true;
        else if (ps.inflight.empty())
            ps.finished = true;
        recycleChunk(std::move(chunk));
        return;
    }

    c.size = i;
    c.endReason = reason;
    c.endCtx = ps.ctx;
    stats_.executedInstrs += i;

    if (opts_.replay && reason == ChunkEnd::kCacheOverflow) {
        // Unexpected overflow during replay: commit this piece, then
        // the rest of the logical chunk immediately after (4.2.3).
        ps.pendingRemainder = target - i;
        c.extra.remainderAfter = true;
        ++stats_.replaySplitChunks;
    } else {
        ps.pendingRemainder = 0;
        ps.nextSeq = seq + 1;
    }

    // Environment timing jitter (DRAM refresh, bank conflicts, ...):
    // non-architectural, so two recordings of the same workload have
    // genuinely different timing — which determinism must survive.
    body.cost *= 0.98 + 0.04 * env_rng_.uniform();

    // Wrong-path noise: cache pollution and spurious signature bits,
    // driven by the (non-architectural) environment RNG.
    if (env_rng_.chancePerMille(5)) {
        caches_.pollute(
            p, lineOf(AddressLayout::sharedWord(env_rng_.below(1 << 16))));
    }
    if (env_rng_.chancePerMille(2)) {
        // Spurious wrong-path load: enters the read set like real
        // Bulk hardware's wrong-path speculative loads do.
        const Addr noise_line =
            lineOf(AddressLayout::sharedWord(env_rng_.below(256)));
        c.sigs.read.insert(noise_line);
        c.extra.linesRead.insert(noise_line);
    }

    const Cycle duration =
        std::max<Cycle>(1, static_cast<Cycle>(body.cost + 0.5));
    c.finishTime = now + duration;
    schedule(now + duration, EvKind::kChunkDone, p, c.extra.uid);
    noteChunkInflight(p, c);
    ps.inflight.push_back(std::move(chunk));
}

void
ChunkEngine::onChunkDone(ProcId p, std::uint64_t uid, Cycle now)
{
    EngineChunk *c = findChunk(p, uid);
    if (!c || c->state != ChunkState::kExecuting)
        return; // stale event (chunk was squashed)
    c->state = ChunkState::kCompleted;
    c->finishTime = now;

    Cycle delay = arbLatency() / 2;
    if (opts_.perturb.enabled
        && perturb_rng_.chancePerMille(opts_.perturb.commitStallPerMille)) {
        delay += opts_.perturb.stallMinCycles
                 + perturb_rng_.below(opts_.perturb.stallMaxCycles
                                      - opts_.perturb.stallMinCycles + 1);
    }
    c->extra.requestTime = now + delay;
    schedule(now + delay, EvKind::kRequestArrive, p, uid);

    // PicoLog record: the token was parked here waiting for this chunk.
    if (!opts_.replay && mode_.mode == ExecMode::kPicoLog
        && !token_in_transit_ && token_proc_ == p
        && token_waiting_for_chunk_) {
        stats_.waitForCompleteCycles.add(
            static_cast<double>(now - token_arrive_time_));
        token_waiting_for_chunk_ = false;
    }

    tryStartChunk(p, now);
    if (!opts_.replay)
        checkDma(now);
}

void
ChunkEngine::squashFrom(ProcId p, std::size_t idx, Cycle now)
{
    ProcState &ps = procs_[p];
    assert(idx < ps.inflight.size());
    EngineChunk &oldest = *ps.inflight[idx];

    RestartInfo r;
    r.seq = oldest.seq;
    r.continuation = oldest.extra.continuation;
    r.pieceTarget = oldest.extra.pieceTarget;
    r.squashCount = oldest.squashCount + 1;
    r.collisionReduced = oldest.extra.collisionReduced;

    // Repeated-collision back-off (not in PicoLog, not during replay).
    if (!opts_.replay && mode_.mode != ExecMode::kPicoLog
        && r.squashCount >= machine_.bulk.collisionBackoffThreshold
        && r.pieceTarget > 1) {
        r.pieceTarget = std::max<InstrCount>(1, r.pieceTarget / 2);
        r.collisionReduced = true;
    }

    stats_.squashes += ps.inflight.size() - idx;

    // A chunk squashed mid-execution only really reached a fraction
    // of its accesses: roll back the cache fills of the unreached
    // tail so eager generation cannot prefetch for free.
    EngineChunk &youngest = *ps.inflight.back();
    if (youngest.state == ChunkState::kExecuting
        && youngest.finishTime > youngest.startTime) {
        const double f =
            static_cast<double>(now - youngest.startTime)
            / static_cast<double>(youngest.finishTime
                                  - youngest.startTime);
        const auto &fills = youngest.extra.fills;
        const std::size_t keep = static_cast<std::size_t>(
            static_cast<double>(fills.size()) * std::min(1.0, f));
        for (std::size_t k = keep; k < fills.size(); ++k) {
            caches_.l1(p).invalidate(fills[k].first);
            if (fills[k].second == HitLevel::kMemory)
                caches_.l2().invalidate(fills[k].first);
        }
    }

    // The only context copy of the squash/restart path: restore the
    // squashed chunk's start context straight into ps.ctx, where the
    // rebuild will find it (see RestartInfo).
    ps.ctx = oldest.startCtx;

    for (std::size_t k = idx; k < ps.inflight.size(); ++k) {
        spec_[p].removeAll(ps.inflight[k]->writtenLines.members());
        recycleChunk(std::move(ps.inflight[k]));
    }
    ps.inflight.erase(ps.inflight.begin() + static_cast<long>(idx),
                      ps.inflight.end());
    rebuildProcUnion(p);

    ps.pendingRemainder = 0;
    ps.nextSeq = r.seq;
    ps.blockedOnOverflow = false;
    if (ps.stalled) {
        ps.stallCycles += now - ps.stallStart;
        ps.stalled = false;
    }
    ps.restart = r;
    schedule(now + kSquashPenalty, EvKind::kProcResume, p, 0);
}

// ---------------------------------------------------------------------------
// Arbiter
// ---------------------------------------------------------------------------

bool
ChunkEngine::conflictsWith(const EngineChunk &running,
                           const std::vector<Addr> &write_lines,
                           const Signature &write_sig)
{
    if (machine_.bulk.exactDisambiguation) {
        for (const Addr line : write_lines) {
            if (running.extra.linesRead.contains(line)
                || running.writtenLines.contains(line))
                return true;
        }
        return false;
    }
    return sigConflict(running.sigs, write_sig);
}

bool
ChunkEngine::sigConflict(const SignaturePair &running,
                         const Signature &wsig)
{
    bool conflict = false;
    if (wsig.summaryIntersects(running.read)) {
        ++stats_.sigSummaryHits;
        conflict = wsig.intersectsWords(running.read);
    } else {
        ++stats_.sigSummaryRejects;
    }
    if (!conflict) {
        if (wsig.summaryIntersects(running.write)) {
            ++stats_.sigSummaryHits;
            conflict = wsig.intersectsWords(running.write);
        } else {
            ++stats_.sigSummaryRejects;
        }
    }
    return conflict;
}

void
ChunkEngine::sweepConflicts(ProcId committing,
                            const std::vector<Addr> &write_lines,
                            const Signature &write_sig, Cycle now)
{
    if (write_lines.empty())
        return; // an empty write set can never conflict
    bool walked = false;
    for (ProcId q = 0; q < n_; ++q) {
        if (q == committing)
            continue;
        auto &other = procs_[q].inflight;
        if (other.empty())
            continue;
        // The per-processor union over-approximates every in-flight
        // chunk's signatures, so a committing write that misses it in
        // any bank cannot conflict with any of q's chunks — even
        // under exact disambiguation, where a line conflict implies a
        // signature conflict.
        if (!write_sig.intersects(proc_unions_[q]))
            continue;
        walked = true;
        for (std::size_t k = 0; k < other.size(); ++k) {
            if (conflictsWith(*other[k], write_lines, write_sig)) {
                squashFrom(q, k, now);
                break;
            }
        }
    }
    if (!walked)
        ++stats_.unionSweepSkips;
    else
        ++stats_.conflictSweeps;
}

void
ChunkEngine::noteChunkInflight(ProcId p, const EngineChunk &chunk)
{
    proc_unions_[p].unionWith(chunk.sigs.read);
    proc_unions_[p].unionWith(chunk.sigs.write);
}

void
ChunkEngine::rebuildProcUnion(ProcId p)
{
    // The union cannot subtract, so recompute it from the processor's
    // surviving chunks whenever one leaves the window. clear() is an
    // epoch bump and the window holds only a handful of chunks, so
    // this stays cheap enough to run on every commit and squash.
    Signature &u = proc_unions_[p];
    u.clear();
    for (const auto &c : procs_[p].inflight) {
        u.unionWith(c->sigs.read);
        u.unionWith(c->sigs.write);
    }
}

unsigned
ChunkEngine::freeSlots(Cycle now) const
{
    unsigned free = 0;
    for (const Cycle busy : slot_busy_until_)
        if (busy <= now)
            ++free;
    return free;
}

unsigned
ChunkEngine::busySlots(Cycle now) const
{
    return static_cast<unsigned>(slot_busy_until_.size())
           - freeSlots(now);
}

void
ChunkEngine::occupySlot(Cycle now, Cycle occupancy)
{
    for (auto &busy : slot_busy_until_) {
        if (busy <= now) {
            busy = now + occupancy;
            schedule(busy, EvKind::kCommitFinish, 0, 0);
            break;
        }
    }
}

ChunkEngine::EngineChunk *
ChunkEngine::oldestReady(ProcId p)
{
    auto &inflight = procs_[p].inflight;
    if (inflight.empty())
        return nullptr;
    EngineChunk *c = inflight.front().get();
    if (c->state == ChunkState::kCompleted && c->extra.requestArrived)
        return c;
    return nullptr;
}

unsigned
ChunkEngine::countReadyProcs() const
{
    unsigned ready = 0;
    for (const auto &ps : procs_) {
        if (!ps.inflight.empty()
            && ps.inflight.front()->state == ChunkState::kCompleted)
            ++ready;
    }
    return ready;
}

bool
ChunkEngine::allFinished() const
{
    for (const auto &ps : procs_)
        if (!ps.finished)
            return false;
    return true;
}

bool
ChunkEngine::anyMustContinue() const
{
    for (const auto &ps : procs_)
        if (ps.mustContinue)
            return true;
    return false;
}

bool
ChunkEngine::dmaDueForReplay() const
{
    if (dma_replay_idx_ >= prior_->dma.count())
        return false;
    if (mode_.mode == ExecMode::kPicoLog)
        return gcc_ == prior_->dma.slotAt(dma_replay_idx_);
    if (strata_cursor_)
        return strata_cursor_->isDmaSlot();
    return !pi_cursor_->atEnd() && pi_cursor_->peek() == kDmaProcId;
}

bool
ChunkEngine::dmaIsNext(Cycle) const
{
    if (anyMustContinue())
        return false;
    if (opts_.replay)
        return dmaDueForReplay();
    return !dma_pending_.empty();
}

void
ChunkEngine::checkDma(Cycle)
{
    // Poll only; the next arbiter invocation drains dma_pending_.
    if (opts_.replay)
        return;
    DmaTransfer xfer;
    while (dma_dev_.poll(generated_instrs_, xfer))
        dma_pending_.push_back(xfer);
}

ChunkEngine::EngineChunk *
ChunkEngine::pickCandidate(ProcId &out_proc)
{
    // A split logical chunk must finish before anything else commits.
    for (ProcId p = 0; p < n_; ++p) {
        if (procs_[p].mustContinue) {
            EngineChunk *c = oldestReady(p);
            if (c) {
                out_proc = p;
                return c;
            }
            return nullptr; // wait for the continuation piece
        }
    }

    if (!opts_.replay) {
        // Record, Order&Size / OrderOnly: FCFS over arrived requests.
        EngineChunk *best = nullptr;
        ProcId best_p = 0;
        for (ProcId p = 0; p < n_; ++p) {
            EngineChunk *c = oldestReady(p);
            if (!c)
                continue;
            if (!best || c->extra.requestTime < best->extra.requestTime) {
                best = c;
                best_p = p;
            }
        }
        out_proc = best_p;
        return best;
    }

    if (mode_.mode == ExecMode::kPicoLog) {
        // Replay: predefined round-robin order; only finished
        // processors are skipped.
        for (unsigned guard = 0;
             guard < n_ && procs_[rr_next_].finished; ++guard) {
            rr_next_ = (rr_next_ + 1) % n_;
        }
        if (procs_[rr_next_].finished)
            return nullptr; // everyone is done
        EngineChunk *c = oldestReady(rr_next_);
        if (c)
            out_proc = rr_next_;
        return c; // null: wait for rr_next_'s chunk to complete
    }

    if (strata_cursor_) {
        // Stratified replay: anyone with budget in the current stratum.
        if (strata_cursor_->atEnd() || strata_cursor_->isDmaSlot())
            return nullptr;
        EngineChunk *best = nullptr;
        ProcId best_p = 0;
        for (ProcId p = 0; p < n_; ++p) {
            if (strata_cursor_->remainingFor(p) == 0)
                continue;
            EngineChunk *c = oldestReady(p);
            if (c && (!best || c->extra.requestTime < best->extra.requestTime)) {
                best = c;
                best_p = p;
            }
        }
        out_proc = best_p;
        return best;
    }

    // Replay with a plain PI log: strictly the recorded order.
    if (pi_cursor_->atEnd())
        return nullptr;
    const ProcId p = pi_cursor_->peek();
    if (p == kDmaProcId)
        return nullptr; // handled by dmaIsNext
    EngineChunk *c = oldestReady(p);
    if (c)
        out_proc = p;
    return c;
}

void
ChunkEngine::arbiterProcess(Cycle now)
{
    checkDma(now);

    if (!opts_.replay && mode_.mode == ExecMode::kPicoLog) {
        // Record-PicoLog: DMA grabs free slots; chunks follow the token.
        while (!dma_pending_.empty() && freeSlots(now) > 0)
            grantDma(now);
        tokenTry(now);
        return;
    }

    while (freeSlots(now) > 0 && !stopped_) {
        if (dmaIsNext(now)) {
            grantDma(now);
            continue;
        }
        ProcId p = 0;
        EngineChunk *c = pickCandidate(p);
        if (!c)
            break;
        grantChunk(p, now);
    }

    // Replay head-stall accounting: a slot is free and some completed
    // chunk is waiting, but the log head names a processor whose chunk
    // has not arrived — the serialization logged-order replay cannot
    // hide. The stall is charged when the head finally commits.
    if (opts_.replay && head_stall_since_ == kNoCycle
        && freeSlots(now) > 0) {
        for (ProcId p = 0; p < n_; ++p) {
            if (oldestReady(p)) {
                head_stall_since_ = now;
                break;
            }
        }
    }
}

void
ChunkEngine::grantChunk(ProcId p, Cycle now)
{
    ProcState &ps = procs_[p];
    assert(!ps.inflight.empty());
    EngineChunk &c = *ps.inflight.front();
    assert(c.state == ChunkState::kCompleted && c.extra.requestArrived);

    // Occupy a commit slot. During replay the (virtualized) arbiter
    // serializes commits and each occupies it for the full raised
    // arbitration latency (Section 6.2.1).
    occupySlot(now, opts_.replay ? arbLatency() + commitLatency()
                                 : commitLatency());
    stats_.readyProcsAtCommit.add(static_cast<double>(countReadyProcs()));
    stats_.parallelCommits.add(static_cast<double>(busySlots(now)));
    if (opts_.replay) {
        if (head_stall_since_ != kNoCycle) {
            stats_.replayHeadStallCycles += now - head_stall_since_;
            head_stall_since_ = kNoCycle;
        }
        if (strata_cursor_) {
            for (ProcId q = 0; q < n_; ++q) {
                if (q != p && strata_cursor_->remainingFor(q) > 0) {
                    ++stats_.strataRelaxedRetires;
                    break;
                }
            }
        }
    }

    const bool final_piece = !c.extra.remainderAfter;

    // ----- logging (record) ---------------------------------------------
    if (!opts_.replay && opts_.logging) {
        if (mode_.mode != ExecMode::kPicoLog) {
            if (stratifier_) {
                if (machine_.bulk.exactDisambiguation) {
                    stratifier_->onCommitLines(p, c.extra.linesRead,
                                               c.writtenLines);
                } else {
                    Signature s = c.sigs.read;
                    s.unionWith(c.sigs.write);
                    stratifier_->onCommit(p, s);
                }
            } else {
                rec_->pi.append(p);
            }
        }
        if (mode_.mode == ExecMode::kOrderAndSize) {
            rec_->cs[p].appendCommittedSize(c.seq, c.size,
                                            c.size == mode_.chunkSize);
        } else if (c.endReason == ChunkEnd::kCacheOverflow
                   || (c.endReason == ChunkEnd::kSizeLimit
                       && c.extra.collisionReduced)) {
            rec_->cs[p].appendTruncation(c.seq, c.size);
        }
        for (std::size_t k = 0; k < c.ioValues.size(); ++k) {
            rec_->io.append(p, c.startCtx.ioLoadCount + k, c.ioValues[k]);
        }
    }

    // ----- truncation statistics ----------------------------------------
    if (c.endReason == ChunkEnd::kCacheOverflow)
        ++stats_.overflowTruncations;
    else if (c.endReason == ChunkEnd::kSizeLimit && c.extra.collisionReduced)
        ++stats_.collisionTruncations;
    else if (c.endReason == ChunkEnd::kHardInstr)
        ++stats_.hardTruncations;

    // ----- replay cursor consumption --------------------------------------
    if (opts_.replay) {
        if (!c.extra.continuation && mode_.mode != ExecMode::kPicoLog
            && !strata_cursor_) {
            // The grant was issued against peek() == p and nothing
            // else consumes the cursor in between, but a corrupted
            // log must fail loudly rather than silently desynchronize.
            if (pi_cursor_->atEnd())
                throw ReplayLogExhausted(
                    "PI log ended before all chunks committed");
            const ProcId logged = pi_cursor_->next();
            if (logged != p)
                throw ReplayError(
                    "PI log order violated at entry "
                    + std::to_string(pi_cursor_->position() - 1)
                    + ": log says proc " + std::to_string(logged)
                    + ", committing proc " + std::to_string(p));
            ps.obsPos = pi_cursor_->position() - 1;
        }
        if (final_piece) {
            if (strata_cursor_)
                strata_cursor_->consume(p);
            if (mode_.mode == ExecMode::kPicoLog)
                rr_next_ = (p + 1) % n_;
        }
    }

    // ----- make the chunk architectural ----------------------------------
    if (journaling_)
        for (const auto &write : c.writes)
            journal_.logStore(mem_, write.first);
    for (const auto &[word, value] : c.writes)
        mem_.store(word, value);
    for (const Addr line : c.writtenLines) {
        if (dir_.sharersOf(line) & ~(1ull << p)) {
            dir_.commitWrite(p, line);
            caches_.invalidateOthers(p, line);
        }
    }
    dir_.countSignatureMessage(machine_.bulk.signatureBits);
    spec_[p].removeAll(c.writtenLines.members());

    stats_.retiredInstrs += c.size;

    const bool observing = obs_hub_ && obs_hub_->enabled();
    if (observing) {
        // Split logical chunks deliver one merged observation at the
        // final piece; accumulate committed piece traces until then.
        if (ps.pendingTrace.empty())
            ps.pendingTrace = std::move(c.extra.trace);
        else
            ps.pendingTrace.insert(ps.pendingTrace.end(),
                                   c.extra.trace.begin(),
                                   c.extra.trace.end());
        c.extra.trace.clear();
    }

    if (final_piece) {
        fp_.commits.push_back(CommitRecord{
            p, c.seq, ps.partialSize + c.size, c.endCtx.acc});
        if (observing) {
            // Canonical commit position: the consumed PI entry index,
            // the current global commit count (PicoLog retires in GCC
            // order by construction), or the precomputed strata
            // linearization
            // (a stratified replay's intra-stratum order is timing-
            // dependent, so the log fixes the canonical one).
            std::uint64_t pos;
            if (strata_cursor_) {
                if (c.seq >= strata_order_->chunkPos[p].size())
                    throw ReplayError(
                        "strata log names fewer chunks for proc "
                        + std::to_string(p) + " than were committed");
                pos = strata_order_->chunkPos[p][c.seq];
            } else if (mode_.mode == ExecMode::kPicoLog) {
                pos = gcc_;
            } else {
                pos = ps.obsPos;
            }
            obs_hub_->chunkRetired(pos, p, c.seq,
                                   ps.partialSize + c.size,
                                   std::move(ps.pendingTrace));
            ps.pendingTrace.clear();
        }
        ps.partialSize = 0;
        ps.mustContinue = false;
        ps.lastCommittedCtx = c.endCtx;
        ps.committedCount = c.seq + 1;
        ++stats_.committedChunks;
        ++gcc_;
        maybeCheckpoint();
        if (opts_.replay && opts_.stopCheckpoint
            && gcc_ == opts_.stopCheckpoint->gcc)
            stopped_ = true;
    } else {
        ps.partialSize += c.size;
        ps.mustContinue = true;
    }

    // ----- squash conflicting chunks on other processors ------------------
    // Move the committed chunk out of the inflight window (so it is
    // not scanned for conflicts against itself) but keep it alive:
    // its write signature and line list are used in place instead of
    // being copied, and the buffers are recycled afterwards.
    auto committed = std::move(ps.inflight.front());
    ps.inflight.pop_front();
    sweepConflicts(p, committed->writtenLines.members(),
                   committed->sigs.write, now);
    recycleChunk(std::move(committed));
    rebuildProcUnion(p);

    // ----- resume this processor ------------------------------------------
    ps.blockedOnOverflow = false;
    if (ps.stalled) {
        ps.stallCycles += now - ps.stallStart;
        ps.stalled = false;
    }
    tryStartChunk(p, now);
    if (!opts_.replay)
        checkDma(now);
}

void
ChunkEngine::grantDma(Cycle now)
{
    DmaTransfer xfer;
    if (!opts_.replay) {
        xfer = dma_pending_.front();
        dma_pending_.pop_front();
        if (opts_.logging) {
            rec_->dma.append(xfer, gcc_);
            if (mode_.mode != ExecMode::kPicoLog) {
                if (stratifier_)
                    stratifier_->onDmaCommit();
                else
                    rec_->pi.append(kDmaProcId);
            }
        }
    } else {
        xfer = prior_->dma.transferAt(dma_replay_idx_);
        ++dma_replay_idx_;
        std::uint64_t obs_pos = gcc_; // PicoLog: DMA slot = current GCC
        if (mode_.mode != ExecMode::kPicoLog) {
            if (strata_cursor_) {
                strata_cursor_->consumeDma();
                if (strata_order_) {
                    if (dma_replay_idx_ - 1
                        >= strata_order_->dmaPos.size())
                        throw ReplayError(
                            "strata log names fewer DMA slots than "
                            "transfers committed");
                    obs_pos =
                        strata_order_->dmaPos[dma_replay_idx_ - 1];
                }
            } else {
                pi_cursor_->next();
                obs_pos = pi_cursor_->position() - 1;
            }
        }
        if (obs_hub_ && obs_hub_->enabled())
            obs_hub_->dmaRetired(
                obs_pos, prior_->dma.transferAt(dma_replay_idx_ - 1));
    }

    // Occupy a commit slot (see grantChunk for replay occupancy).
    occupySlot(now, opts_.replay ? arbLatency() + commitLatency()
                                 : commitLatency());
    if (opts_.replay) {
        if (head_stall_since_ != kNoCycle) {
            stats_.replayHeadStallCycles += now - head_stall_since_;
            head_stall_since_ = kNoCycle;
        }
    }

    Signature wsig;
    std::vector<Addr> wlines;
    if (journaling_)
        for (const Addr addr : xfer.wordAddrs)
            journal_.logStore(mem_, wordOf(addr));
    for (std::size_t i = 0; i < xfer.wordAddrs.size(); ++i) {
        mem_.store(wordOf(xfer.wordAddrs[i]), xfer.values[i]);
        const Addr line = lineOf(xfer.wordAddrs[i]);
        if (wlines.empty() || wlines.back() != line)
            wlines.push_back(line);
        wsig.insert(line);
        for (ProcId p = 0; p < n_; ++p)
            caches_.l1(p).invalidate(line);
        dir_.countControlMessage();
    }
    dir_.countLineTransfer();

    sweepConflicts(kDmaProcId, wlines, wsig, now);

    ++dma_granted_;
    ++gcc_;
    maybeCheckpoint();
    if (opts_.replay && opts_.stopCheckpoint
        && gcc_ == opts_.stopCheckpoint->gcc)
        stopped_ = true;
}

// ---------------------------------------------------------------------------
// PicoLog record commit token
// ---------------------------------------------------------------------------

void
ChunkEngine::onTokenArrive(ProcId p, Cycle now)
{
    token_in_transit_ = false;
    token_proc_ = p;
    token_arrive_time_ = now;
    token_waiting_for_chunk_ = false;
    token_waiting_for_slot_ = false;

    if (p == 0) {
        if (token_round_start_ != kNoCycle) {
            stats_.tokenRoundtripCycles.add(
                static_cast<double>(now - token_round_start_));
        }
        token_round_start_ = now;
    }

    ProcState &ps = procs_[p];
    if (ps.finished) {
        passToken(p, now);
        return;
    }

    EngineChunk *c = oldestReady(p);
    if (c) {
        ++stats_.tokenArrivalsReady;
        stats_.waitForTokenCycles.add(
            static_cast<double>(now - c->finishTime));
    } else {
        ++stats_.tokenArrivalsNotReady;
        token_waiting_for_chunk_ = true;
    }
    tokenTry(now);
}

void
ChunkEngine::tokenTry(Cycle now)
{
    if (token_in_transit_)
        return;
    const ProcId p = token_proc_;
    ProcState &ps = procs_[p];
    if (ps.finished) {
        passToken(p, now);
        return;
    }
    EngineChunk *c = oldestReady(p);
    if (!c)
        return; // retried on chunk completion / request arrival
    if (freeSlots(now) == 0) {
        token_waiting_for_slot_ = true;
        return; // retried on commit finish
    }
    token_waiting_for_slot_ = false;
    token_waiting_for_chunk_ = false;
    grantChunk(p, now);
    passToken(p, now);
}

void
ChunkEngine::passToken(ProcId p, Cycle now)
{
    for (unsigned step = 1; step <= n_; ++step) {
        const ProcId q = (p + step) % n_;
        if (!procs_[q].finished) {
            token_in_transit_ = true;
            schedule(now + kTokenHop * step, EvKind::kTokenArrive, q, 0);
            return;
        }
    }
    // Everyone finished: the token retires.
}

} // namespace delorean
