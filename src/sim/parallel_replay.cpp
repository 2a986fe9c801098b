#include "sim/parallel_replay.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "chunk/body_runner.hpp"
#include "common/errors.hpp"
#include "common/word_map.hpp"
#include "core/pi_log.hpp"
#include "core/replay_observer.hpp"
#include "core/stratifier.hpp"
#include "memory/memory_state.hpp"
#include "sim/campaign.hpp"
#include "trace/instr.hpp"
#include "trace/thread_program.hpp"

namespace delorean
{

namespace
{

/**
 * The words one chunk body touched, one entry per distinct word in
 * first-access order — the functional analogue of a Bulk chunk's
 * read/write signatures, where a repeated access adds nothing. An
 * entry holds the committed value the body's first load saw (when
 * its first access was a load; own-store forwards cannot go stale, so
 * nothing else is validated) and the word's last stored value (when
 * the body wrote it). A repeated access is served by one probe, and
 * retire validates and writes each word once. Cleared in O(1) per
 * body; the capacity is kept across a processor's bodies.
 */
class Footprint
{
  public:
    struct Entry
    {
        Addr word = 0;
        std::uint64_t read = 0;    ///< first load's value (hasRead)
        std::uint64_t written = 0; ///< last stored value (hasWrite)
        bool hasRead = false;
        bool hasWrite = false;
    };

    /// Starting the index at this size spares a short interval
    /// replay, where each processor runs only one or two bodies, most
    /// of the index's growth.
    static constexpr std::size_t kInitialWords = 512;

    Footprint() { index_.reserve(kInitialWords); }

    void
    clear()
    {
        index_.clear();
        entries_.clear();
    }

    /** Value a load of @p word returns; @p mem is read on first touch. */
    std::uint64_t
    load(const MemoryState &mem, Addr word)
    {
        Entry &e = entryFor(word);
        if (e.hasWrite)
            return e.written;
        if (!e.hasRead) {
            e.read = mem.load(word);
            e.hasRead = true;
        }
        return e.read;
    }

    void
    store(Addr word, std::uint64_t value)
    {
        Entry &e = entryFor(word);
        e.written = value;
        e.hasWrite = true;
    }

    /** True when a word the body first read has changed in @p mem. */
    bool
    stale(const MemoryState &mem) const
    {
        for (const Entry &e : entries_)
            if (e.hasRead && mem.load(e.word) != e.read)
                return true;
        return false;
    }

    /** Apply each written word's final value to @p mem. */
    void
    commit(MemoryState &mem) const
    {
        for (const Entry &e : entries_)
            if (e.hasWrite)
                mem.store(e.word, e.written);
    }

  private:
    /** @p word's entry, appended blank on first touch. */
    Entry &
    entryFor(Addr word)
    {
        std::uint64_t &slot = index_[word];
        if (!slot) {
            entries_.push_back(Entry{word});
            slot = entries_.size();
        }
        return entries_[slot - 1];
    }

    WordMap index_; ///< word -> 1 + its index in entries_
    std::vector<Entry> entries_;
};

/** One speculatively executed chunk body. */
struct ChunkBody
{
    ChunkSeq seq = 0;
    ThreadContext startCtx; ///< after boundary interrupt delivery
    ThreadContext endCtx;
    InstrCount target = 0;
    InstrCount size = 0;
    /// Words read from committed memory and buffered stores;
    /// revalidated and applied at retire.
    Footprint footprint;
    /// Program-order cached-access trace for the attached observer
    /// (empty when no observer is attached). Rebuilt on squash
    /// re-execution, so it always reflects the retired execution.
    std::vector<MemAccess> trace;
    bool valid = false; ///< body has been executed
};

/** Per-processor replay state (coordinator-owned). */
struct ProcReplay
{
    ThreadContext ctx; ///< architectural: after the last retired chunk
    ChunkSeq nextSeq = 0;
    bool finished = false;
    bool hasPending = false;
    ChunkBody pending;
    CsBySeq cs;
    std::unordered_map<ChunkSeq, InterruptRecord> irq;
};

/// Instructions executed between flushes into the shared budget
/// counter (keeps the atomic off the per-instruction path).
constexpr std::uint64_t kBudgetFlush = 8192;

/**
 * What the functional replayer adds to a chunk body: loads and stores
 * go through the body's footprint over committed memory, I/O loads
 * come from the recorded log, and the shared instruction budget is
 * charged every kBudgetFlush instructions (a spin fast-forward is
 * capped so it never steps over a charge).
 */
struct FunctionalBody
{
    const IoLog &io;
    const MemoryState &mem;
    ProcId p;
    Footprint &footprint;
    std::atomic<std::uint64_t> &executed;
    std::uint64_t budget;
    std::uint64_t unflushed = 0;

    void beforeGenerate(const ThreadContext &) {}
    bool access(ThreadContext &, Op, Addr) { return true; }
    std::uint64_t load(Addr word, Addr) { return footprint.load(mem, word); }
    void store(Addr word, Addr, std::uint64_t v) { footprint.store(word, v); }

    std::uint64_t
    ioLoad(Addr, const ThreadContext &ctx)
    {
        return loggedIoValue(io, p, ctx);
    }

    void nonMemory(Op) {}

    InstrCount
    spinCap(InstrCount left) const
    {
        return std::min<InstrCount>(left, kBudgetFlush - unflushed - 1);
    }

    void repeatLoads(InstrCount) {}

    void
    retired(InstrCount n)
    {
        unflushed += n;
        if (unflushed == kBudgetFlush)
            flush();
    }

    /** Charge the instructions retired since the last charge. */
    void
    flush()
    {
        if (unflushed != 0
            && executed.fetch_add(unflushed, std::memory_order_relaxed)
                       + unflushed
                   > budget) {
            throw ReplayBudgetExceeded(
                "chunk-parallel replay exceeded its "
                + std::to_string(budget) + "-instruction budget");
        }
        unflushed = 0;
    }
};

/**
 * Reject an interval the recording cannot back, with a typed
 * ReplayError, before any state is restored from its checkpoints:
 * every index the replay later takes from them must be in range (the
 * PI cursor checks the start GCC itself when it seeks).
 */
void
checkInterval(const Recording &rec, const SystemCheckpoint *start,
              const SystemCheckpoint *stop)
{
    const unsigned n = rec.machine.numProcs;
    const auto checkSized = [n](const SystemCheckpoint &c,
                                const char *which) {
        if (c.contexts.size() != n || c.committedChunks.size() != n)
            throw ReplayError(
                std::string(which) + " checkpoint carries "
                + std::to_string(c.contexts.size()) + " contexts and "
                + std::to_string(c.committedChunks.size())
                + " chunk counters for " + std::to_string(n)
                + " processors");
    };
    if (start) {
        checkSized(*start, "start");
        if (start->dmaConsumed > rec.dma.count())
            throw ReplayLogExhausted(
                "checkpoint consumed "
                + std::to_string(start->dmaConsumed)
                + " DMA transfers; the DMA log has "
                + std::to_string(rec.dma.count()));
        if (rec.mode.mode == ExecMode::kPicoLog && start->rrNext >= n)
            throw ReplayError("checkpoint gives the commit turn to "
                              "processor "
                              + std::to_string(start->rrNext) + " of "
                              + std::to_string(n));
    }
    if (stop) {
        checkSized(*stop, "stop");
        const std::uint64_t start_gcc = start ? start->gcc : 0;
        if (stop->gcc <= start_gcc)
            throw ReplayError("stop checkpoint GCC "
                              + std::to_string(stop->gcc)
                              + " is not after the start GCC "
                              + std::to_string(start_gcc));
    }
}

} // namespace

std::uint64_t
defaultParallelReplayInstrBudget(const Recording &rec)
{
    // Derived from parsed log content, not the headline stats, so a
    // corrupted stats field cannot inflate it. A clean replay executes
    // each recorded instruction once plus at most one squash
    // re-execution per chunk; 4x recorded work is already pathological.
    std::uint64_t recorded = 0;
    for (const CommitRecord &c : rec.fingerprint.commits)
        recorded += c.size;
    return 4 * recorded + 1'000'000;
}

ReplayOutcome
ParallelReplayer::replay(const Recording &rec) const
{
    Workload workload(rec.appName, rec.machine.numProcs,
                      rec.workloadSeed,
                      WorkloadScale{rec.iterationsPercent});
    return replay(rec, workload);
}

ReplayOutcome
ParallelReplayer::replay(const Recording &rec,
                         const Workload &workload) const
{
    const auto wall_start = std::chrono::steady_clock::now();
    const unsigned n = rec.machine.numProcs;
    const ThreadProgram &prog = workload.program();
    const unsigned window = std::max(1u, opts_.window);
    const std::uint64_t budget =
        opts_.maxInstrs ? opts_.maxInstrs
                        : defaultParallelReplayInstrBudget(rec);
    const bool pico = rec.mode.mode == ExecMode::kPicoLog;
    const SystemCheckpoint *start = opts_.startCheckpoint;
    const SystemCheckpoint *stop = opts_.stopCheckpoint;

    if (rec.cs.size() < n)
        throw ReplayError("recording carries " + std::to_string(rec.cs.size())
                          + " CS logs for " + std::to_string(n)
                          + " processors");
    if (opts_.observer && (start || stop))
        throw ConfigError(kObserverNeedsFullRun);
    checkInterval(rec, start, stop);

    MemoryState mem;
    if (start)
        mem = start->memory.materialize();
    else
        workload.initializeMemory(mem);

    std::vector<ProcReplay> procs(n);
    for (ProcId p = 0; p < n; ++p) {
        if (start) {
            procs[p].ctx = start->contexts[p];
            procs[p].nextSeq = start->committedChunks[p];
        } else {
            prog.initContext(procs[p].ctx, p);
        }
        for (const CsEntry &e : rec.cs[p].entries())
            procs[p].cs.emplace(e.seq, e);
        for (const InterruptRecord &e : rec.interrupts.entries(p))
            procs[p].irq.emplace(e.chunkSeq, e);
    }

    std::unique_ptr<PiLogCursor> pi;
    std::unique_ptr<StrataCursor> strata;
    if (!pico) {
        if (rec.stratified())
            strata = std::make_unique<StrataCursor>(rec.strata, n);
        else
            pi = std::make_unique<PiLogCursor>(rec.pi);
    }
    ProcId rr = 0;            // PicoLog round-robin pointer
    std::uint64_t gcc = 0;    // global commit count (chunks and DMA)
    std::size_t dma_idx = 0;
    if (start) {
        // Resume consuming the logs at the checkpoint, as the DES does.
        rr = start->rrNext;
        gcc = start->gcc;
        dma_idx = start->dmaConsumed;
        if (pi)
            pi->seek(start->gcc);
        if (strata)
            strata->advanceTo(start->committedChunks,
                              start->dmaConsumed);
    }
    const std::uint64_t stop_gcc =
        stop ? stop->gcc : ~std::uint64_t{0};

    // Observer plumbing: bodies collect traces only when an observer
    // is attached; the hub re-sequences out-of-order retires into the
    // canonical commit order (for stratified logs a precomputed
    // linearization, since in-stratum retire order is timing-free here
    // but kept identical to the serial engine's canonical table).
    ObserverHub hub(opts_.observer);
    const bool tracing = hub.enabled();
    std::unique_ptr<StrataCanonicalOrder> strata_order;
    if (tracing && rec.stratified() && !pico)
        strata_order = std::make_unique<StrataCanonicalOrder>(
            computeStrataCanonicalOrder(rec.strata, n));

    WorkerPool pool(opts_.jobs);
    std::atomic<std::uint64_t> executed{0};
    EngineStats stats;
    ExecutionFingerprint fp;

    // Execute processor p's pending body read-only against mem: it
    // ends at its CS target, at a hard (chunk-truncating) instruction
    // or at program end. Bodies of different processors run
    // concurrently: mem is only read, and all mutation is confined to
    // the body and its contexts.
    const auto executeBody = [&](ProcId p) {
        ChunkBody &b = procs[p].pending;
        b.footprint.clear();
        b.trace.clear();
        b.endCtx = b.startCtx;
        FunctionalBody body{rec.io, mem, p, b.footprint, executed, budget};
        b.size = runChunkBody(prog, b.endCtx, b.target,
                              tracing ? &b.trace : nullptr, body)
                     .size;
        body.flush();
        b.valid = true;
    };

    const auto allFinished = [&] {
        for (const ProcReplay &pr : procs)
            if (!pr.finished)
                return false;
        return true;
    };

    // Dispatch priority: the order processors are due at the log
    // head. Stragglers are appended so a window wider than the log's
    // near-term needs still fills up (their bodies are validated at
    // retire like any other).
    const auto dispatchOrder = [&] {
        std::vector<ProcId> order;
        std::vector<bool> seen(n, false);
        const auto push = [&](ProcId p) {
            if (p < n && !seen[p]) {
                seen[p] = true;
                order.push_back(p);
            }
        };
        if (pico) {
            for (unsigned k = 0; k < n; ++k)
                push((rr + k) % n);
        } else if (strata) {
            for (ProcId p = 0; p < n; ++p)
                if (strata->remainingFor(p) > 0)
                    push(p);
            for (ProcId p = 0; p < n; ++p)
                push(p);
        } else {
            const std::size_t limit = std::min<std::size_t>(
                rec.pi.entryCount(),
                pi->position() + 4ull * window);
            for (std::size_t i = pi->position();
                 i < limit && order.size() < n; ++i)
                push(rec.pi.entryAt(i)); // kDmaProcId filtered by push
            for (ProcId p = 0; p < n; ++p)
                push(p);
        }
        return order;
    };

    const auto readyBody = [&](ProcId p) {
        const ProcReplay &pr = procs[p];
        return pr.hasPending && pr.pending.valid;
    };

    // @p obs_pos: canonical commit position for the observer.
    const auto applyDma = [&](std::uint64_t obs_pos) {
        if (dma_idx >= rec.dma.count())
            throw ReplayLogExhausted(
                "DMA log exhausted during chunk-parallel replay");
        const DmaTransfer &xfer = rec.dma.transferAt(dma_idx++);
        for (std::size_t i = 0; i < xfer.wordAddrs.size(); ++i)
            mem.store(wordOf(xfer.wordAddrs[i]), xfer.values[i]);
        ++gcc;
        if (tracing)
            hub.dmaRetired(obs_pos, xfer);
    };

    // @p obs_pos: canonical commit position for the observer.
    const auto retireChunk = [&](ProcId p, std::uint64_t obs_pos) {
        ProcReplay &pr = procs[p];
        ChunkBody &b = pr.pending;
        // Value-based read validation: a body that executed against a
        // memory image later commits overwrote is re-executed at its
        // retire turn — the software analogue of squash-and-replay.
        if (b.footprint.stale(mem)) {
            ++stats.squashes;
            executeBody(p);
        }
        b.footprint.commit(mem);
        fp.commits.push_back(CommitRecord{p, b.seq, b.size, b.endCtx.acc});
        stats.retiredInstrs += b.size;
        ++stats.committedChunks;
        pr.ctx = b.endCtx;
        pr.nextSeq = b.seq + 1;
        pr.hasPending = false;
        ++gcc;
        if (tracing)
            hub.chunkRetired(obs_pos, p, b.seq, b.size,
                             std::move(b.trace));
    };

    // Retire everything the log allows. The order is a pure function
    // of the recording: PI order for flat logs, the predefined
    // round-robin for PicoLog, and for stratified logs the canonical
    // lowest-processor order within each stratum — so the global
    // commit stream is independent of worker count and window width.
    const auto retirePass = [&]() -> bool {
        bool any = false;
        while (gcc < stop_gcc) {
            if (pico) {
                if (dma_idx < rec.dma.count()
                    && rec.dma.slotAt(dma_idx) == gcc) {
                    applyDma(gcc);
                    any = true;
                    continue;
                }
                for (unsigned guard = 0;
                     guard < n && procs[rr].finished; ++guard)
                    rr = (rr + 1) % n;
                if (procs[rr].finished || !readyBody(rr))
                    break;
                retireChunk(rr, gcc);
                rr = (rr + 1) % n;
                any = true;
                continue;
            }
            if (strata) {
                if (strata->atEnd())
                    break;
                if (strata->isDmaSlot()) {
                    std::uint64_t obs_pos = 0;
                    if (strata_order) {
                        if (dma_idx >= strata_order->dmaPos.size())
                            throw ReplayError(
                                "strata log names fewer DMA slots "
                                "than transfers committed");
                        obs_pos = strata_order->dmaPos[dma_idx];
                    }
                    applyDma(obs_pos);
                    strata->consumeDma();
                    any = true;
                    continue;
                }
                ProcId p = n;
                for (ProcId q = 0; q < n; ++q) {
                    if (strata->remainingFor(q) > 0) {
                        p = q;
                        break;
                    }
                }
                if (p == n || !readyBody(p))
                    break;
                for (ProcId q = 0; q < n; ++q) {
                    if (q != p && strata->remainingFor(q) > 0) {
                        ++stats.strataRelaxedRetires;
                        break;
                    }
                }
                std::uint64_t obs_pos = 0;
                if (strata_order) {
                    const ChunkSeq seq = procs[p].pending.seq;
                    if (seq >= strata_order->chunkPos[p].size())
                        throw ReplayError(
                            "strata log names fewer chunks for proc "
                            + std::to_string(p)
                            + " than were committed");
                    obs_pos = strata_order->chunkPos[p][seq];
                }
                retireChunk(p, obs_pos);
                strata->consume(p);
                any = true;
                continue;
            }
            if (pi->atEnd())
                break;
            const ProcId e = pi->peek();
            if (e == kDmaProcId) {
                applyDma(pi->position());
                pi->next();
                any = true;
                continue;
            }
            if (e >= n)
                throw ReplayError("PI log names processor "
                                  + std::to_string(e) + " of "
                                  + std::to_string(n));
            if (!readyBody(e))
                break;
            retireChunk(e, pi->position());
            pi->next();
            any = true;
        }
        return any;
    };

    hub.begin(rec);

    std::vector<std::function<void()>> tasks;
    while (gcc < stop_gcc && !allFinished()) {
        bool progress = false;

        // ----- dispatch wave: fill the lookahead window --------------
        unsigned inflight = 0;
        for (const ProcReplay &pr : procs)
            inflight += pr.hasPending;
        std::vector<ProcId> to_run;
        for (const ProcId p : dispatchOrder()) {
            if (inflight >= window)
                break;
            ProcReplay &pr = procs[p];
            if (pr.finished || pr.hasPending)
                continue;
            if (prog.done(pr.ctx)) {
                pr.finished = true;
                progress = true;
                continue;
            }
            // Bounded replay: never build a chunk that commits at or
            // after the stop checkpoint — its CS, interrupt and I/O
            // records may lie outside the decoded interval view.
            if (stop && pr.nextSeq >= stop->committedChunks[p])
                continue;
            const ChunkSeq seq = pr.nextSeq;
            // Refill the processor's body in place so its footprint
            // keeps its capacity.
            ChunkBody &body = pr.pending;
            body.seq = seq;
            body.startCtx = pr.ctx;
            body.valid = false;
            // Interrupt delivery at the logical chunk boundary — a
            // pure function of the chunk seq, as in the engine.
            const auto irq_it = pr.irq.find(seq);
            if (irq_it != pr.irq.end())
                prog.deliverInterrupt(body.startCtx,
                                      irq_it->second.type,
                                      irq_it->second.data);
            if (prog.done(body.startCtx)) {
                pr.ctx = body.startCtx;
                pr.finished = true;
                progress = true;
                continue;
            }
            body.target = replayChunkTarget(rec.mode, pr.cs, seq);
            if (body.target == 0) {
                // A zero-size CS entry can only come from a corrupt
                // log; the engine discards such a chunk too.
                pr.finished = true;
                progress = true;
                continue;
            }
            pr.hasPending = true;
            to_run.push_back(p);
            ++inflight;
            progress = true;
        }
        if (!to_run.empty()) {
            tasks.clear();
            for (const ProcId p : to_run) {
                tasks.push_back([&, p] { executeBody(p); });
            }
            pool.runBatch(tasks);
            stats.replayWindowOccupancy.add(
                static_cast<double>(inflight));
        }

        // ----- retire in logged order --------------------------------
        progress = retirePass() || progress;
        if (!progress)
            throw ReplayStalled(
                "chunk-parallel replay made no progress (log head "
                "cannot be satisfied)");
    }

    hub.end();

    for (ProcId p = 0; p < n; ++p) {
        fp.perProcAcc.push_back(procs[p].ctx.acc);
        fp.perProcRetired.push_back(procs[p].ctx.retired);
    }
    fp.finalMemHash = mem.hash();

    stats.executedInstrs = executed.load(std::memory_order_relaxed);
    stats.generatedInstrs = stats.executedInstrs;
    stats.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now()
                                      - wall_start)
            .count();

    ReplayOutcome outcome;
    outcome.fingerprint = fp;
    outcome.stats = stats;
    const ExecutionFingerprint expected =
        rec.expectedFingerprint(start, stop);
    outcome.deterministicExact = fp.matchesExact(expected);
    outcome.deterministicPerProc = fp.matchesPerProc(expected);
    return outcome;
}

} // namespace delorean
