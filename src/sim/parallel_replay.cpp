#include "sim/parallel_replay.hpp"

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/errors.hpp"
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

/** One speculatively executed chunk body. */
struct ChunkBody
{
    ChunkSeq seq = 0;
    ThreadContext startCtx; ///< after boundary interrupt delivery
    ThreadContext endCtx;
    InstrCount target = 0;
    InstrCount size = 0;
    /// Buffered stores, program order, word granular.
    std::vector<std::pair<Addr, std::uint64_t>> writes;
    /// Values observed from committed memory (own-store forwards are
    /// not recorded: they cannot go stale). Revalidated at retire.
    std::vector<std::pair<Addr, std::uint64_t>> reads;
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
    std::unordered_map<ChunkSeq, CsEntry> cs;
    std::unordered_map<ChunkSeq, InterruptRecord> irq;
};

/// Instructions executed between flushes into the shared budget
/// counter (keeps the atomic off the per-instruction path).
constexpr std::uint64_t kBudgetFlush = 8192;

void
chargeBudget(std::atomic<std::uint64_t> &executed, std::uint64_t amount,
             std::uint64_t budget)
{
    if (executed.fetch_add(amount, std::memory_order_relaxed) + amount
        > budget) {
        throw ReplayBudgetExceeded(
            "chunk-parallel replay exceeded its "
            + std::to_string(budget) + "-instruction budget");
    }
}

/**
 * Execute one chunk body read-only against @p mem. Mirrors the
 * architectural effects of ChunkEngine::buildChunk's replay path:
 * loads forward from the body's own stores first, I/O loads come
 * from the recorded log, AMOs load-then-store, and the body ends at
 * its CS target, at a hard (chunk-truncating) instruction, or at
 * program end. Safe to run concurrently with other bodies: @p mem is
 * only read, and all mutation is confined to @p b and its contexts.
 */
void
executeBody(const ThreadProgram &prog, const IoLog &io,
            const MemoryState &mem, ProcId p, ChunkBody &b,
            std::atomic<std::uint64_t> &executed, std::uint64_t budget,
            bool tracing)
{
    ThreadContext ctx = b.startCtx;
    std::unordered_map<Addr, std::uint64_t> write_map;
    b.reads.clear();
    b.writes.clear();
    b.trace.clear();

    InstrCount i = 0;
    std::uint64_t unflushed = 0;
    while (i < b.target) {
        if (prog.done(ctx))
            break;
        const Instr in = prog.generate(ctx);
        std::uint64_t value = 0;

        switch (in.op) {
          case Op::kLoad:
          case Op::kStore:
          case Op::kAmoSwap:
          case Op::kAmoFetchAdd: {
            const Addr word = wordOf(in.addr);
            if (returnsValue(in.op)) {
                const auto it = write_map.find(word);
                if (it != write_map.end()) {
                    value = it->second;
                } else {
                    value = mem.load(word);
                    b.reads.emplace_back(word, value);
                }
            }
            if (writesMemory(in.op)) {
                std::uint64_t stored = in.value;
                if (in.op == Op::kAmoFetchAdd)
                    stored = value + in.value;
                b.writes.emplace_back(word, stored);
                write_map[word] = stored;
            }
            if (tracing) {
                MemAccess a;
                a.addr = in.addr;
                a.kind = in.op == Op::kLoad      ? AccessKind::kLoad
                         : in.op == Op::kStore   ? AccessKind::kStore
                         : in.op == Op::kAmoSwap ? AccessKind::kAmoSwap
                                                 : AccessKind::kAmoFetchAdd;
                a.value = returnsValue(in.op) ? value : in.value;
                b.trace.push_back(a);
            }
            break;
          }
          case Op::kIoLoad:
            if (ctx.ioLoadCount >= io.countFor(p))
                throw ReplayLogExhausted(
                    "I/O log for proc " + std::to_string(p)
                    + " has only " + std::to_string(io.countFor(p))
                    + " values");
            value = io.valueAt(p, ctx.ioLoadCount);
            ++ctx.ioLoadCount;
            break;
          case Op::kIoStore:
          case Op::kSpecialSys:
          case Op::kCompute:
            break;
        }

        prog.observe(ctx, in, value);
        ++i;
        if (++unflushed == kBudgetFlush) {
            chargeBudget(executed, unflushed, budget);
            unflushed = 0;
        }
        if (truncatesChunk(in.op))
            break;
    }
    if (unflushed)
        chargeBudget(executed, unflushed, budget);

    b.size = i;
    b.endCtx = ctx;
    b.valid = true;
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

    if (rec.cs.size() < n)
        throw ReplayError("recording carries " + std::to_string(rec.cs.size())
                          + " CS logs for " + std::to_string(n)
                          + " processors");

    MemoryState mem;
    workload.initializeMemory(mem);

    std::vector<ProcReplay> procs(n);
    for (ProcId p = 0; p < n; ++p) {
        prog.initContext(procs[p].ctx, p);
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
    std::uint64_t gcc = 0;    // PicoLog global commit count (DMA slots)
    std::size_t dma_idx = 0;

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
        bool stale = false;
        for (const auto &[word, value] : b.reads) {
            if (mem.load(word) != value) {
                stale = true;
                break;
            }
        }
        if (stale) {
            ++stats.squashes;
            executeBody(prog, rec.io, mem, p, b, executed, budget,
                        tracing);
        }
        for (const auto &[word, value] : b.writes)
            mem.store(word, value);
        fp.commits.push_back(CommitRecord{p, b.seq, b.size, b.endCtx.acc});
        stats.retiredInstrs += b.size;
        ++stats.committedChunks;
        pr.ctx = b.endCtx;
        pr.nextSeq = b.seq + 1;
        pr.hasPending = false;
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
        for (;;) {
            if (pico) {
                if (dma_idx < rec.dma.count()
                    && rec.dma.slotAt(dma_idx) == gcc) {
                    applyDma(gcc);
                    ++gcc;
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
                ++gcc;
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
    while (!allFinished()) {
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
            const ChunkSeq seq = pr.nextSeq;
            ChunkBody body;
            body.seq = seq;
            body.startCtx = pr.ctx;
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
            const auto cs_it = pr.cs.find(seq);
            if (cs_it != pr.cs.end()) {
                const CsEntry &e = cs_it->second;
                body.target = (rec.mode.mode == ExecMode::kOrderAndSize
                               && e.maxSize)
                                  ? rec.mode.chunkSize
                                  : e.size;
            } else {
                body.target = rec.mode.chunkSize;
            }
            if (body.target == 0) {
                // A zero-size CS entry can only come from a corrupt
                // log; the engine discards such a chunk too.
                pr.finished = true;
                progress = true;
                continue;
            }
            pr.pending = std::move(body);
            pr.hasPending = true;
            to_run.push_back(p);
            ++inflight;
            progress = true;
        }
        if (!to_run.empty()) {
            tasks.clear();
            for (const ProcId p : to_run) {
                tasks.push_back([&, p] {
                    executeBody(prog, rec.io, mem, p, procs[p].pending,
                                executed, budget, tracing);
                });
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
    outcome.deterministicExact = fp.matchesExact(rec.fingerprint);
    outcome.deterministicPerProc = fp.matchesPerProc(rec.fingerprint);
    return outcome;
}

} // namespace delorean
