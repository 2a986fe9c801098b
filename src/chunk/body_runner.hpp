/**
 * @file
 * The one chunk-body runner (DESIGN.md Section 11.5).
 *
 * DeLorean executes a chunk body in isolation with the same semantics
 * at record and at replay; only the commit order and the logged
 * inputs come from the logs. The body is therefore one loop, run by
 * both the DES chunk builder and the functional replayer. It owns the
 * generator protocol (done, generate, observe, and the repeatSpin
 * fast-forward after each load), the load/store/AMO value rule, the
 * access trace and the truncating instructions. What differs between
 * the two executors is a policy the loop calls inline:
 *
 *   void beforeGenerate(const ThreadContext &ctx);
 *   bool access(ThreadContext &ctx, Op op, Addr line);
 *       // false: undo the generate() just made and end the body
 *       // with ChunkEnd::kCacheOverflow
 *   std::uint64_t load(Addr word, Addr line);
 *   void store(Addr word, Addr line, std::uint64_t value);
 *   std::uint64_t ioLoad(Addr addr, const ThreadContext &ctx);
 *   void nonMemory(Op op);           // compute, I/O store, special
 *   InstrCount spinCap(InstrCount left);
 *   void repeatLoads(InstrCount k);  // k reloads fast-forwarded
 *   void retired(InstrCount n);
 */

#ifndef DELOREAN_CHUNK_BODY_RUNNER_HPP_
#define DELOREAN_CHUNK_BODY_RUNNER_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "chunk/chunk.hpp"
#include "common/errors.hpp"
#include "common/types.hpp"
#include "core/input_logs.hpp"
#include "trace/instr.hpp"
#include "trace/thread_program.hpp"

namespace delorean
{

/** How a body ended: its size and the reason. */
struct BodyEnd
{
    InstrCount size = 0;
    ChunkEnd end = ChunkEnd::kSizeLimit;
};

/** Replay value of processor @p p's next I/O load, from @p io. */
inline std::uint64_t
loggedIoValue(const IoLog &io, ProcId p, const ThreadContext &ctx)
{
    if (ctx.ioLoadCount >= io.countFor(p))
        throw ReplayLogExhausted("I/O log for proc " + std::to_string(p)
                                 + " has only "
                                 + std::to_string(io.countFor(p))
                                 + " values");
    return io.valueAt(p, ctx.ioLoadCount);
}

/**
 * Run one chunk body from @p ctx for at most @p target instructions,
 * appending its cached accesses to @p trace when it is not null. The
 * body ends at @p target, at a truncating instruction, at program
 * end, or when the policy refuses an access (kCacheOverflow; size 0
 * means not even the first instruction fit).
 */
template <class Policy>
inline BodyEnd
runChunkBody(const ThreadProgram &prog, ThreadContext &ctx,
             InstrCount target, std::vector<MemAccess> *trace,
             Policy &policy)
{
    InstrCount i = 0;
    while (i < target) {
        if (prog.done(ctx))
            return {i, ChunkEnd::kProgramEnd};
        policy.beforeGenerate(ctx);
        const Instr in = prog.generate(ctx);
        std::uint64_t value = 0;

        switch (in.op) {
          case Op::kLoad:
          case Op::kStore:
          case Op::kAmoSwap:
          case Op::kAmoFetchAdd: {
            const Addr word = wordOf(in.addr);
            const Addr line = lineOf(in.addr);
            if (!policy.access(ctx, in.op, line))
                return {i, ChunkEnd::kCacheOverflow};
            if (returnsValue(in.op))
                value = policy.load(word, line);
            if (writesMemory(in.op))
                policy.store(word, line,
                             in.op == Op::kAmoFetchAdd ? value + in.value
                                                       : in.value);
            // Loads and atomics report the observed value (a lock
            // acquire is an AmoSwap observing 0), stores the stored
            // one.
            if (trace)
                trace->push_back(MemAccess{
                    in.addr, returnsValue(in.op) ? value : in.value,
                    accessKindOf(in.op)});
            break;
          }
          case Op::kIoLoad:
            value = policy.ioLoad(in.addr, ctx);
            ++ctx.ioLoadCount;
            break;
          case Op::kIoStore:
          case Op::kSpecialSys:
          case Op::kCompute:
            policy.nonMemory(in.op);
            break;
        }

        prog.observe(ctx, in, value);
        InstrCount steps = 1;
        if (in.op == Op::kLoad) {
            // A spin load repeats until the body ends: the body runs
            // in isolation, so the word it spins on cannot change
            // under it. Retire the repeats at once.
            const InstrCount k = prog.repeatSpin(
                ctx, in, value, policy.spinCap(target - i - 1));
            if (k != 0) {
                policy.repeatLoads(k);
                if (trace)
                    trace->insert(trace->end(), k, trace->back());
                steps += k;
            }
        }
        i += steps;
        policy.retired(steps);
        if (truncatesChunk(in.op))
            return {i, ChunkEnd::kHardInstr};
    }
    return {i, ChunkEnd::kSizeLimit};
}

} // namespace delorean

#endif // DELOREAN_CHUNK_BODY_RUNNER_HPP_
