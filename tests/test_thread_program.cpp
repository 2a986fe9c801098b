/**
 * @file
 * Unit tests for the workload generator (trace/thread_program.hpp).
 *
 * Uses a minimal sequential executor: threads interleave round-robin
 * against one memory image, which is enough to exercise locks,
 * barriers, traps and value-dependent control flow.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <optional>
#include <vector>

#include "memory/memory_state.hpp"
#include "trace/layout.hpp"
#include "trace/thread_program.hpp"
#include "trace/workload.hpp"

namespace delorean
{
namespace
{

/** Execute one instruction directly against @p mem; returns value. */
std::uint64_t
perform(MemoryState &mem, const Instr &in, std::uint64_t io_value = 7)
{
    switch (in.op) {
      case Op::kLoad:
        return mem.load(wordOf(in.addr));
      case Op::kStore:
        mem.store(wordOf(in.addr), in.value);
        return 0;
      case Op::kAmoSwap: {
        const std::uint64_t old = mem.load(wordOf(in.addr));
        mem.store(wordOf(in.addr), in.value);
        return old;
      }
      case Op::kAmoFetchAdd: {
        const std::uint64_t old = mem.load(wordOf(in.addr));
        mem.store(wordOf(in.addr), old + in.value);
        return old;
      }
      case Op::kIoLoad:
        return io_value;
      case Op::kIoStore:
      case Op::kSpecialSys:
      case Op::kCompute:
        return 0;
    }
    return 0;
}

/** Round-robin run to completion; returns per-thread contexts. */
std::vector<ThreadContext>
runRoundRobin(const Workload &w)
{
    MemoryState mem;
    w.initializeMemory(mem);
    const ThreadProgram &prog = w.program();
    std::vector<ThreadContext> ctxs(w.numProcs());
    for (ProcId p = 0; p < w.numProcs(); ++p)
        prog.initContext(ctxs[p], p);
    bool progress = true;
    while (progress) {
        progress = false;
        for (ProcId p = 0; p < w.numProcs(); ++p) {
            if (prog.done(ctxs[p]))
                continue;
            progress = true;
            const Instr in = prog.generate(ctxs[p]);
            prog.observe(ctxs[p], in, perform(mem, in));
        }
    }
    return ctxs;
}

TEST(ThreadProgram, RunsToCompletionSingleThread)
{
    Workload w("barnes", 1, 42, WorkloadScale::tiny());
    const auto ctxs = runRoundRobin(w);
    EXPECT_TRUE(ctxs[0].done);
    EXPECT_GT(ctxs[0].retired, 1000u);
}

TEST(ThreadProgram, AllSplashAppsComplete)
{
    for (const auto &name : AppTable::splash2Names()) {
        Workload w(name, 4, 7, WorkloadScale::tiny());
        const auto ctxs = runRoundRobin(w);
        for (const auto &ctx : ctxs) {
            EXPECT_TRUE(ctx.done) << name;
            EXPECT_GT(ctx.retired, 100u) << name;
        }
    }
}

TEST(ThreadProgram, CommercialAppsComplete)
{
    for (const std::string name : {"sjbb2k", "sweb2005"}) {
        Workload w(name, 4, 9, WorkloadScale::tiny());
        const auto ctxs = runRoundRobin(w);
        for (const auto &ctx : ctxs)
            EXPECT_TRUE(ctx.done) << name;
    }
}

TEST(ThreadProgram, DeterministicGivenSameInterleaving)
{
    Workload w("fmm", 4, 123, WorkloadScale::tiny());
    const auto a = runRoundRobin(w);
    const auto b = runRoundRobin(w);
    for (ProcId p = 0; p < 4; ++p) {
        EXPECT_EQ(a[p].acc, b[p].acc);
        EXPECT_EQ(a[p].retired, b[p].retired);
    }
}

TEST(ThreadProgram, DifferentSeedsProduceDifferentStreams)
{
    Workload w1("fmm", 2, 1, WorkloadScale::tiny());
    Workload w2("fmm", 2, 2, WorkloadScale::tiny());
    const auto a = runRoundRobin(w1);
    const auto b = runRoundRobin(w2);
    EXPECT_NE(a[0].acc, b[0].acc);
}

TEST(ThreadProgram, GenerateObserveIsCheckpointable)
{
    // Squash semantics: saving and restoring the context replays the
    // exact same instruction stream.
    Workload w("radix", 2, 5, WorkloadScale::tiny());
    const ThreadProgram &prog = w.program();
    MemoryState mem;
    w.initializeMemory(mem);

    ThreadContext ctx;
    prog.initContext(ctx, 0);
    // Advance a bit.
    for (int i = 0; i < 500 && !prog.done(ctx); ++i) {
        const Instr in = prog.generate(ctx);
        prog.observe(ctx, in, perform(mem, in));
    }
    const ThreadContext checkpoint = ctx;
    const MemoryState mem_snapshot = mem.snapshot();

    std::vector<Instr> first_run;
    for (int i = 0; i < 200 && !prog.done(ctx); ++i) {
        const Instr in = prog.generate(ctx);
        first_run.push_back(in);
        prog.observe(ctx, in, perform(mem, in));
    }

    ctx = checkpoint; // squash
    mem = mem_snapshot;
    for (std::size_t i = 0; i < first_run.size(); ++i) {
        const Instr in = prog.generate(ctx);
        ASSERT_EQ(static_cast<int>(in.op),
                  static_cast<int>(first_run[i].op));
        ASSERT_EQ(in.addr, first_run[i].addr);
        ASSERT_EQ(in.value, first_run[i].value);
        prog.observe(ctx, in, perform(mem, in));
    }
}

TEST(ThreadProgram, LockProvidesMutualExclusion)
{
    // With chunked atomicity absent, the sequential executor still
    // lets us check the lock protocol: the generator only enters the
    // critical section after an AMO swap that observed 0.
    Workload w("raytrace", 2, 77, WorkloadScale::tiny());
    const ThreadProgram &prog = w.program();
    MemoryState mem;
    w.initializeMemory(mem);
    std::vector<ThreadContext> ctxs(2);
    prog.initContext(ctxs[0], 0);
    prog.initContext(ctxs[1], 1);

    int in_cs = 0;
    bool progress = true;
    while (progress) {
        progress = false;
        for (ProcId p = 0; p < 2; ++p) {
            ThreadContext &ctx = ctxs[p];
            if (prog.done(ctx))
                continue;
            progress = true;
            const bool was_cs = ctx.state == ThreadState::kCritical;
            const Instr in = prog.generate(ctx);
            prog.observe(ctx, in, perform(mem, in));
            const bool is_cs = ctx.state == ThreadState::kCritical;
            if (!was_cs && is_cs)
                ++in_cs;
            if (was_cs && !is_cs)
                --in_cs;
            ASSERT_LE(in_cs, 1) << "two threads in the same CS";
        }
    }
}

TEST(ThreadProgram, BarrierSynchronizesIterations)
{
    // ocean barriers every 2 iterations; after completion, every
    // thread must have seen the same number of barrier generations.
    Workload w("ocean", 4, 3, WorkloadScale::tiny());
    const auto ctxs = runRoundRobin(w);
    for (ProcId p = 1; p < 4; ++p)
        EXPECT_EQ(ctxs[p].barrierGenSeen, ctxs[0].barrierGenSeen);
    EXPECT_GT(ctxs[0].barrierGenSeen, 0u);
}

TEST(ThreadProgram, InterruptDeliveryChangesAccAndInjectsHandler)
{
    Workload w("sjbb2k", 1, 11, WorkloadScale::tiny());
    const ThreadProgram &prog = w.program();
    ThreadContext ctx;
    prog.initContext(ctx, 0);
    const std::uint64_t acc_before = ctx.acc;
    prog.deliverInterrupt(ctx, 2, 0xFEED);
    EXPECT_NE(ctx.acc, acc_before);
    EXPECT_EQ(ctx.handlerRemaining, ThreadProgram::interruptHandlerLen(2));

    // Handler instructions run before normal work resumes.
    MemoryState mem;
    w.initializeMemory(mem);
    for (unsigned i = 0; i < ThreadProgram::interruptHandlerLen(2); ++i) {
        const Instr in = prog.generate(ctx);
        if (isMemOp(in.op)) {
            EXPECT_GE(in.addr, AddressLayout::kKernelBase);
            EXPECT_LT(in.addr, AddressLayout::kDmaBase);
        }
        prog.observe(ctx, in, perform(mem, in));
    }
    EXPECT_EQ(ctx.handlerRemaining, 0u);
}

TEST(ThreadProgram, CommercialWorkloadsEmitIoAndSyscalls)
{
    Workload w("sweb2005", 2, 21, WorkloadScale{100});
    const ThreadProgram &prog = w.program();
    MemoryState mem;
    w.initializeMemory(mem);
    std::vector<ThreadContext> ctxs(2);
    prog.initContext(ctxs[0], 0);
    prog.initContext(ctxs[1], 1);
    int io_loads = 0, io_stores = 0, syscalls = 0;
    bool progress = true;
    while (progress) {
        progress = false;
        for (ProcId p = 0; p < 2; ++p) {
            if (prog.done(ctxs[p]))
                continue;
            progress = true;
            const Instr in = prog.generate(ctxs[p]);
            io_loads += in.op == Op::kIoLoad;
            io_stores += in.op == Op::kIoStore;
            syscalls += in.op == Op::kSpecialSys;
            prog.observe(ctxs[p], in, perform(mem, in));
        }
    }
    EXPECT_GT(io_loads, 0);
    EXPECT_GT(io_stores, 0);
    EXPECT_GT(syscalls, 0);
}

TEST(ThreadProgram, SplashWorkloadsEmitNoSystemActivity)
{
    Workload w("lu", 1, 31, WorkloadScale::tiny());
    const ThreadProgram &prog = w.program();
    MemoryState mem;
    w.initializeMemory(mem);
    ThreadContext ctx;
    prog.initContext(ctx, 0);
    while (!prog.done(ctx)) {
        const Instr in = prog.generate(ctx);
        ASSERT_NE(in.op, Op::kIoLoad);
        ASSERT_NE(in.op, Op::kIoStore);
        ASSERT_NE(in.op, Op::kSpecialSys);
        prog.observe(ctx, in, perform(mem, in));
    }
}

TEST(ThreadProgram, PrivateAccessesStayInOwnRegion)
{
    Workload w("fft", 4, 17, WorkloadScale::tiny());
    const ThreadProgram &prog = w.program();
    MemoryState mem;
    w.initializeMemory(mem);
    ThreadContext ctx;
    prog.initContext(ctx, 2);
    for (int i = 0; i < 20000 && !prog.done(ctx); ++i) {
        const Instr in = prog.generate(ctx);
        if (isMemOp(in.op) && AddressLayout::isPrivate(in.addr)) {
            EXPECT_GE(in.addr, AddressLayout::privateWord(2, 0));
            EXPECT_LT(in.addr, AddressLayout::privateWord(3, 0));
        }
        prog.observe(ctx, in, perform(mem, in));
    }
}

/** A thread whose last load left it spinning, with that load. */
struct SpinPoint
{
    ThreadContext ctx;
    Instr in;
    std::uint64_t value = 0;
};

using SpinTest =
    std::function<bool(const ThreadContext &, const Instr &, std::uint64_t)>;

/**
 * Round-robin run of @p w until a thread's load leaves its context in
 * a state @p accept takes; that context, copied byte for byte. A
 * thread whose context @p park takes is not scheduled again.
 */
std::optional<SpinPoint>
runUntil(const Workload &w, const SpinTest &accept,
         const std::function<bool(const ThreadContext &)> &park = {})
{
    MemoryState mem;
    w.initializeMemory(mem);
    const ThreadProgram &prog = w.program();
    std::vector<ThreadContext> ctxs(w.numProcs());
    for (ProcId p = 0; p < w.numProcs(); ++p)
        prog.initContext(ctxs[p], p);
    std::vector<bool> parked(w.numProcs(), false);
    bool progress = true;
    while (progress) {
        progress = false;
        for (ProcId p = 0; p < w.numProcs(); ++p) {
            if (prog.done(ctxs[p]) || parked[p])
                continue;
            progress = true;
            const Instr in = prog.generate(ctxs[p]);
            const std::uint64_t value = perform(mem, in);
            prog.observe(ctxs[p], in, value);
            parked[p] = park && park(ctxs[p]);
            if (in.op == Op::kLoad && accept(ctxs[p], in, value)) {
                SpinPoint sp;
                std::memcpy(&sp.ctx, &ctxs[p], sizeof sp.ctx);
                sp.in = in;
                sp.value = value;
                return sp;
            }
        }
    }
    return std::nullopt;
}

/** A byte-for-byte copy of @p ctx, padding included. */
ThreadContext
byteCopy(const ThreadContext &ctx)
{
    ThreadContext out;
    std::memcpy(&out, &ctx, sizeof out);
    return out;
}

bool
sameBytes(const ThreadContext &a, const ThreadContext &b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

/** repeatSpin declines @p sp's load read as @p value; ctx untouched. */
void
expectDeclined(const ThreadProgram &prog, const SpinPoint &sp,
               std::uint64_t value, const char *why)
{
    ThreadContext ctx = byteCopy(sp.ctx);
    EXPECT_EQ(prog.repeatSpin(ctx, sp.in, value, 4096), 0u) << why;
    EXPECT_TRUE(sameBytes(ctx, sp.ctx)) << why;
}

TEST(ThreadProgram, RepeatSpinMatchesStepping)
{
    const SpinTest barrier_spin = [](const ThreadContext &ctx,
                                     const Instr &in, std::uint64_t value) {
        return ctx.state == ThreadState::kBarSpin
               && in.addr == AddressLayout::barrierGen()
               && value == ctx.barrierGenSeen;
    };
    const SpinTest lock_spin = [](const ThreadContext &ctx, const Instr &in,
                                  std::uint64_t value) {
        return ctx.state == ThreadState::kLockTest
               && in.addr == AddressLayout::lockWord(ctx.lockId)
               && value != 0;
    };
    struct Case
    {
        const char *app;
        bool lock;
    };
    // ocean spins on barriers, raytrace (lockPerMille 260) on locks,
    // and fft~r4 on barriers between its seeded-race bursts. A raytrace
    // thread that takes a lock is parked holding it, so the others
    // soon test a taken lock.
    for (const Case &c : {Case{"ocean", false}, Case{"raytrace", true},
                          Case{"fft~r4", false}}) {
        SCOPED_TRACE(c.app);
        const Workload w(c.app, 4, 5, WorkloadScale::tiny());
        const ThreadProgram &prog = w.program();
        const std::optional<SpinPoint> sp =
            c.lock ? runUntil(w, lock_spin,
                              [](const ThreadContext &ctx) {
                                  return ctx.state == ThreadState::kCritical;
                              })
                   : runUntil(w, barrier_spin);
        ASSERT_TRUE(sp.has_value());

        for (const InstrCount k : {InstrCount{1}, InstrCount{7},
                                   InstrCount{4096}}) {
            ThreadContext fast = byteCopy(sp->ctx);
            EXPECT_EQ(prog.repeatSpin(fast, sp->in, sp->value, k), k);
            ThreadContext stepped = byteCopy(sp->ctx);
            for (InstrCount i = 0; i < k; ++i) {
                const Instr in = prog.generate(stepped);
                ASSERT_EQ(in.op, sp->in.op);
                ASSERT_EQ(in.addr, sp->in.addr);
                prog.observe(stepped, in, sp->value);
            }
            EXPECT_TRUE(sameBytes(fast, stepped)) << "k " << k;
        }

        if (c.lock) {
            expectDeclined(prog, *sp, 0, "lock reads free");
        } else {
            expectDeclined(prog, *sp, sp->ctx.barrierGenSeen + 1,
                           "barrier generation moved");
        }
        const auto declinedWith =
            [&](const std::function<void(ThreadContext &)> &edit,
                const char *why) {
                SpinPoint live = *sp;
                live.ctx = byteCopy(sp->ctx);
                edit(live.ctx);
                expectDeclined(prog, live, sp->value, why);
            };
        declinedWith([](ThreadContext &x) { x.handlerRemaining = 1; },
                     "handler live");
        declinedWith([](ThreadContext &x) { x.trapRemaining = 1; },
                     "trap live");
        declinedWith([](ThreadContext &x) { x.hasPendingAccess = true; },
                     "pending access live");
        declinedWith([](ThreadContext &x) { x.raceRemaining = 1; },
                     "race burst live");
        declinedWith([](ThreadContext &x) { x.state = ThreadState::kWork; },
                     "not a spin state");
    }

    // A load in the work loop is not a spin.
    const Workload w("fft~r4", 4, 5, WorkloadScale::tiny());
    const std::optional<SpinPoint> work = runUntil(
        w, [](const ThreadContext &ctx, const Instr &, std::uint64_t) {
            return ctx.state == ThreadState::kWork;
        });
    ASSERT_TRUE(work.has_value());
    expectDeclined(w.program(), *work, work->value, "work load");
}

TEST(AppTable, HasThirteenApplications)
{
    EXPECT_EQ(AppTable::splash2Names().size(), 11u);
    EXPECT_EQ(AppTable::allNames().size(), 13u);
    for (const auto &name : AppTable::allNames())
        EXPECT_EQ(AppTable::byName(name).name, name);
}

TEST(AppTable, UnknownNameThrows)
{
    EXPECT_THROW(AppTable::byName("volrend"), std::out_of_range);
}

} // namespace
} // namespace delorean
