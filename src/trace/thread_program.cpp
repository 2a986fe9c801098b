#include "trace/thread_program.hpp"

#include <algorithm>
#include <cassert>

namespace delorean
{

namespace
{

/// Kernel region geometry: a per-processor slice plus a shared slice.
constexpr std::uint64_t kKernelWordsPerProc = 2048;
constexpr std::uint64_t kKernelSharedWords = 4096;

/// DMA buffer region size in words.
constexpr std::uint64_t kDmaRegionWords = 4096;

/// Kernel instructions injected by a first-touch trap handler.
constexpr std::uint16_t kTrapHandlerLen = 24;

/// Status polls per I/O burst.
constexpr std::uint32_t kIoPollsPerBurst = 2;

} // namespace

ThreadProgram::ThreadProgram(const AppProfile &profile, unsigned num_procs,
                             std::uint64_t base_seed)
    : profile_(profile), num_procs_(num_procs), base_seed_(base_seed)
{
    assert(num_procs_ >= 1);
}

void
ThreadProgram::initContext(ThreadContext &ctx, ProcId proc) const
{
    ctx = ThreadContext{};
    ctx.proc = proc;
    std::uint64_t seed = base_seed_ ^ (0x1234'5678'9ABC'DEF0ull + proc);
    ctx.rng.seed(splitMix64(seed));
    ctx.acc = mix64(proc + 1);
    beginIteration(ctx);
}

void
ThreadProgram::beginIteration(ThreadContext &ctx) const
{
    if (ctx.iter >= profile_.iterations) {
        ctx.done = true;
        ctx.state = ThreadState::kDone;
        return;
    }
    ctx.workRemaining = static_cast<std::uint32_t>(
        profile_.workPerIter / 2 + ctx.rng.below(profile_.workPerIter));
    // Long-range working-set relocation happens here, between
    // iterations, rather than access by access.
    ctx.privCursor =
        static_cast<std::uint32_t>(ctx.rng.below(profile_.privateWords));
    ctx.sharedCursor = static_cast<std::uint32_t>(
        ctx.rng.below(profile_.sharedWords
                      / std::max(1u, num_procs_)));
    ctx.privStoreBase =
        static_cast<std::uint32_t>(ctx.rng.below(profile_.privateWords));
    ctx.sharedStoreBase = static_cast<std::uint32_t>(
        ctx.rng.below(profile_.sharedWords
                      / std::max(1u, num_procs_)));
    ctx.pendingBarrier = profile_.barrierEveryIters != 0 && ctx.iter != 0
                         && ctx.iter % profile_.barrierEveryIters == 0;
    ctx.pendingLock = ctx.rng.chancePerMille(profile_.lockPerMille);
    if (ctx.pendingLock) {
        // Skew lock choice toward a small hot subset so contention
        // concentrates (strongly in raytrace/cholesky-like profiles).
        if (ctx.rng.chancePerMille(600)) {
            const std::uint32_t hot =
                std::max<std::uint32_t>(1, profile_.numLocks / 8);
            ctx.lockId = static_cast<std::uint32_t>(ctx.rng.below(hot));
        } else {
            ctx.lockId =
                static_cast<std::uint32_t>(ctx.rng.below(profile_.numLocks));
        }
    }
    ctx.pendingSyscall = profile_.isCommercial
                         && ctx.rng.chancePerMille(profile_.syscallPerMille);
    ctx.pendingIo = profile_.isCommercial
                    && ctx.rng.chancePerMille(profile_.ioPerMille);
    // Seeded-race burst: a store then a load of every race word, with
    // no synchronization. Emitted before anything else the iteration
    // does (including barrier arrival), so every processor pair has
    // unordered conflicting accesses on every race word.
    ctx.raceRemaining = 2 * profile_.seededRaceWords;
    ctx.state =
        ctx.pendingBarrier ? ThreadState::kBarArrive : ThreadState::kWork;
}

void
ThreadProgram::afterWorkTransition(ThreadContext &ctx) const
{
    if (ctx.pendingLock) {
        ctx.state = ThreadState::kLockTest;
    } else if (ctx.pendingSyscall) {
        ctx.state = ThreadState::kSyscall;
    } else if (ctx.pendingIo) {
        ctx.state = ThreadState::kIoCmd;
    } else {
        ++ctx.iter;
        beginIteration(ctx);
    }
}

std::uint64_t
ThreadProgram::storeValue(ThreadContext &ctx) const
{
    return mix64(ctx.acc ^ ctx.rng.next());
}

namespace
{

/**
 * Move @p cursor: usually one word forward (stride), otherwise a jump
 * within a +-2048-word working window. Window-local jumps keep the
 * lines a chunk touches clustered over consecutive cache sets — the
 * dominant behaviour of real code — so speculative lines rarely pile
 * up in one set. Long-range relocation happens at iteration
 * boundaries instead (beginIteration).
 */
std::uint32_t
moveCursor(Xoshiro256ss &rng, std::uint32_t cursor, std::uint64_t span,
           unsigned locality_pm)
{
    if (rng.chancePerMille(locality_pm))
        return static_cast<std::uint32_t>((cursor + 1) % span);
    constexpr std::int64_t kWindow = 2048;
    std::int64_t next = static_cast<std::int64_t>(cursor) - kWindow
                        + static_cast<std::int64_t>(rng.below(2 * kWindow));
    const std::int64_t s = static_cast<std::int64_t>(span);
    next = ((next % s) + s) % s;
    return static_cast<std::uint32_t>(next);
}

} // namespace

Addr
ThreadProgram::pickPrivateAddr(ThreadContext &ctx,
                               unsigned locality_pm) const
{
    ctx.privCursor = moveCursor(ctx.rng, ctx.privCursor,
                                profile_.privateWords, locality_pm);
    return AddressLayout::privateWord(ctx.proc, ctx.privCursor);
}

Addr
ThreadProgram::pickSharedAddr(ThreadContext &ctx, bool prefer_hot,
                              unsigned locality_pm) const
{
    if (prefer_hot) {
        // Inside a critical section, contended data belongs to the
        // lock that protects it; outside, the globally hot set.
        if (ctx.state == ThreadState::kCritical) {
            const std::uint64_t per_lock =
                std::max<std::uint64_t>(8, profile_.hotWords
                                               / std::max<std::uint32_t>(
                                                   1, profile_.numLocks));
            return AddressLayout::sharedWord(
                profile_.sharedWords + ctx.lockId * per_lock
                + ctx.rng.below(per_lock));
        }
        return AddressLayout::sharedWord(AddressLayout::stripedIndex(
            ctx.rng.below(profile_.hotWords), ctx.proc));
    }

    // Partitioned shared array: mostly this processor's slice, with
    // occasional remote accesses (consumer reads, boundary exchange).
    const std::uint64_t slice = profile_.sharedWords / num_procs_;
    ProcId owner = ctx.proc;
    if (ctx.rng.chancePerMille(profile_.remotePerMille))
        owner = static_cast<ProcId>(ctx.rng.below(num_procs_));
    ctx.sharedCursor =
        moveCursor(ctx.rng, ctx.sharedCursor, slice, locality_pm);
    return AddressLayout::sharedWord(AddressLayout::stripedIndex(
        owner * slice + ctx.sharedCursor, ctx.proc));
}

Instr
ThreadProgram::kernelInstr(ThreadContext &ctx) const
{
    Addr addr;
    if (ctx.rng.chancePerMille(700)) {
        addr = AddressLayout::kernelWord(
            ctx.proc * kKernelWordsPerProc
            + ctx.rng.below(kKernelWordsPerProc));
    } else {
        addr = AddressLayout::kernelWord(AddressLayout::stripedIndex(
            num_procs_ * kKernelWordsPerProc
                + ctx.rng.below(kKernelSharedWords),
            ctx.proc));
    }
    if (ctx.rng.chancePerMille(400))
        return Instr{Op::kStore, addr, storeValue(ctx)};
    return Instr{Op::kLoad, addr, 0};
}

Instr
ThreadProgram::workInstr(ThreadContext &ctx, bool in_critical) const
{
    // Bursty sub-phases modulate the memory-op density and locality.
    if (ctx.workPhaseLeft == 0) {
        ctx.workPhase = static_cast<std::uint8_t>(ctx.rng.below(4));
        ctx.workPhaseLeft =
            static_cast<std::uint16_t>(150 + ctx.rng.below(400));
    }
    --ctx.workPhaseLeft;

    std::uint32_t memop_pm = profile_.memOpPerMille;
    std::uint32_t locality_pm = profile_.localityPerMille;
    std::uint32_t store_pm = profile_.storePerMille;
    switch (ctx.workPhase) {
      case 1: // compute-heavy
        memop_pm /= 3;
        break;
      case 2: // streaming
        locality_pm = 950;
        break;
      case 3: // scatter: pointer chasing is read-dominated
        locality_pm = 150;
        store_pm /= 4;
        break;
      default:
        break;
    }

    if (!ctx.rng.chancePerMille(memop_pm))
        return Instr{Op::kCompute, 0, 0};

    // Commercial workloads occasionally consume DMA-delivered data.
    if (profile_.isCommercial && !in_critical
        && ctx.rng.chancePerMille(15)) {
        return Instr{Op::kLoad,
                     AddressLayout::dmaWord(ctx.rng.below(kDmaRegionWords)),
                     0};
    }

    const std::uint32_t shared_pm =
        in_critical ? profile_.csSharedPerMille : profile_.sharedPerMille;

    const bool is_store = ctx.rng.chancePerMille(store_pm);

    Addr addr;
    if (is_store && !in_critical && ctx.rng.chancePerMille(850)) {
        // Most stores land in a small, heavily reused window (stack
        // frame / output tile), keeping dirty-line counts per chunk
        // low; the remainder fall through to the load paths below.
        if (ctx.rng.chancePerMille(shared_pm)) {
            const std::uint64_t slice =
                profile_.sharedWords / num_procs_;
            ProcId owner = ctx.proc;
            if (ctx.rng.chancePerMille(profile_.remotePerMille))
                owner = static_cast<ProcId>(ctx.rng.below(num_procs_));
            addr = AddressLayout::sharedWord(AddressLayout::stripedIndex(
                owner * slice
                    + (ctx.sharedStoreBase + ctx.rng.below(192)) % slice,
                ctx.proc));
        } else {
            addr = AddressLayout::privateWord(
                ctx.proc, (ctx.privStoreBase + ctx.rng.below(192))
                              % profile_.privateWords);
        }
        return Instr{Op::kStore, addr, storeValue(ctx)};
    }

    if (ctx.rng.chancePerMille(shared_pm)) {
        const bool hot =
            in_critical || ctx.rng.chancePerMille(profile_.hotPerMille);
        addr = pickSharedAddr(ctx, hot, locality_pm);
    } else {
        addr = pickPrivateAddr(ctx, locality_pm);
        // First-touch trap: inject a kernel handler, then re-issue the
        // faulting access. Deterministic: mappedSegs is architectural.
        const unsigned seg = AddressLayout::privateSegment(addr);
        if (!ctx.mappedSegs.test(seg)) {
            ctx.mappedSegs.set(seg);
            ctx.pendingAccess =
                is_store ? Instr{Op::kStore, addr, storeValue(ctx)}
                         : Instr{Op::kLoad, addr, 0};
            ctx.hasPendingAccess = true;
            ctx.trapRemaining = kTrapHandlerLen;
            return kernelInstr(ctx);
        }
    }

    if (is_store)
        return Instr{Op::kStore, addr, storeValue(ctx)};
    return Instr{Op::kLoad, addr, 0};
}

Instr
ThreadProgram::generate(ThreadContext &ctx) const
{
    assert(!ctx.done);

    // Interrupt handler preempts everything; traps and their stashed
    // access come next; then the phase machine.
    if (ctx.handlerRemaining > 0)
        return kernelInstr(ctx);
    if (ctx.trapRemaining > 0)
        return kernelInstr(ctx);
    if (ctx.hasPendingAccess) {
        ctx.hasPendingAccess = false;
        return ctx.pendingAccess;
    }
    if (ctx.raceRemaining > 0) {
        const std::uint32_t step =
            2 * profile_.seededRaceWords - ctx.raceRemaining;
        const Addr addr = AddressLayout::raceWord(step / 2);
        if ((step & 1) == 0)
            return Instr{Op::kStore, addr, storeValue(ctx)};
        return Instr{Op::kLoad, addr, 0};
    }

    switch (ctx.state) {
      case ThreadState::kWork:
        return workInstr(ctx, false);
      case ThreadState::kCritical:
        return workInstr(ctx, true);
      case ThreadState::kLockTest:
        return Instr{Op::kLoad, AddressLayout::lockWord(ctx.lockId), 0};
      case ThreadState::kLockTas:
        return Instr{Op::kAmoSwap, AddressLayout::lockWord(ctx.lockId), 1};
      case ThreadState::kUnlock:
        return Instr{Op::kStore, AddressLayout::lockWord(ctx.lockId), 0};
      case ThreadState::kBarArrive:
        return Instr{Op::kAmoFetchAdd, AddressLayout::barrierCount(), 1};
      case ThreadState::kBarReset:
        return Instr{Op::kStore, AddressLayout::barrierCount(), 0};
      case ThreadState::kBarRelease:
        return Instr{Op::kStore, AddressLayout::barrierGen(),
                     ctx.barrierGenSeen + 1};
      case ThreadState::kBarSpin:
        return Instr{Op::kLoad, AddressLayout::barrierGen(), 0};
      case ThreadState::kSyscall:
        return Instr{Op::kSpecialSys, 0, 0};
      case ThreadState::kKernel:
        return kernelInstr(ctx);
      case ThreadState::kIoCmd:
        return Instr{Op::kIoStore, AddressLayout::ioPort(ctx.proc),
                     storeValue(ctx)};
      case ThreadState::kIoStatus:
        return Instr{Op::kIoLoad, AddressLayout::ioPort(ctx.proc), 0};
      case ThreadState::kIterStart:
      case ThreadState::kIterEnd:
      case ThreadState::kDone:
        break;
    }
    assert(false && "generate() called in a non-emitting state");
    return Instr{};
}

void
ThreadProgram::observe(ThreadContext &ctx, const Instr &instr,
                       std::uint64_t load_value) const
{
    if (returnsValue(instr.op))
        ctx.acc = mix64(ctx.acc ^ load_value);
    ++ctx.retired;

    // Injected kernel work (interrupt handler / trap) does not advance
    // the phase machine.
    if (ctx.handlerRemaining > 0) {
        --ctx.handlerRemaining;
        return;
    }
    if (ctx.trapRemaining > 0) {
        --ctx.trapRemaining;
        return;
    }
    // Seeded-race burst instructions do not advance the phase machine.
    if (ctx.raceRemaining > 0) {
        --ctx.raceRemaining;
        return;
    }

    switch (ctx.state) {
      case ThreadState::kWork:
        if (ctx.workRemaining > 0)
            --ctx.workRemaining;
        if (ctx.workRemaining == 0)
            afterWorkTransition(ctx);
        break;
      case ThreadState::kCritical:
        if (ctx.subRemaining > 0)
            --ctx.subRemaining;
        if (ctx.subRemaining == 0)
            ctx.state = ThreadState::kUnlock;
        break;
      case ThreadState::kLockTest:
        if (load_value == 0)
            ctx.state = ThreadState::kLockTas;
        break;
      case ThreadState::kLockTas:
        if (load_value == 0) {
            ctx.state = ThreadState::kCritical;
            ctx.subRemaining = std::max<std::uint32_t>(1, profile_.csLen);
        } else {
            ctx.state = ThreadState::kLockTest;
        }
        break;
      case ThreadState::kUnlock:
        ctx.pendingLock = false;
        afterWorkTransition(ctx);
        break;
      case ThreadState::kBarArrive:
        if (load_value == num_procs_ - 1)
            ctx.state = ThreadState::kBarReset;
        else
            ctx.state = ThreadState::kBarSpin;
        break;
      case ThreadState::kBarReset:
        ctx.state = ThreadState::kBarRelease;
        break;
      case ThreadState::kBarRelease:
        ++ctx.barrierGenSeen;
        ctx.pendingBarrier = false;
        ctx.state = ThreadState::kWork;
        break;
      case ThreadState::kBarSpin:
        if (load_value != ctx.barrierGenSeen) {
            ctx.barrierGenSeen = load_value;
            ctx.pendingBarrier = false;
            ctx.state = ThreadState::kWork;
        }
        break;
      case ThreadState::kSyscall:
        ctx.pendingSyscall = false;
        ctx.state = ThreadState::kKernel;
        ctx.subRemaining = std::max<std::uint32_t>(1, profile_.syscallLen);
        break;
      case ThreadState::kKernel:
        if (ctx.subRemaining > 0)
            --ctx.subRemaining;
        if (ctx.subRemaining == 0)
            afterWorkTransition(ctx);
        break;
      case ThreadState::kIoCmd:
        ctx.state = ThreadState::kIoStatus;
        ctx.ioRemaining = kIoPollsPerBurst;
        break;
      case ThreadState::kIoStatus:
        if (ctx.ioRemaining > 0)
            --ctx.ioRemaining;
        if (ctx.ioRemaining == 0) {
            ctx.pendingIo = false;
            afterWorkTransition(ctx);
        }
        break;
      case ThreadState::kIterStart:
      case ThreadState::kIterEnd:
      case ThreadState::kDone:
        assert(false && "observe() in a non-emitting state");
        break;
    }
}

InstrCount
ThreadProgram::repeatSpin(ThreadContext &ctx, const Instr &instr,
                          std::uint64_t load_value, InstrCount max) const
{
    if (instr.op != Op::kLoad || ctx.handlerRemaining > 0
        || ctx.trapRemaining > 0 || ctx.hasPendingAccess
        || ctx.raceRemaining > 0)
        return 0;
    // generate() emits these two loads without touching ctx.rng, and
    // observe() leaves the state where it was for these values.
    const bool spinning =
        (ctx.state == ThreadState::kBarSpin
         && instr.addr == AddressLayout::barrierGen()
         && load_value == ctx.barrierGenSeen)
        || (ctx.state == ThreadState::kLockTest
            && instr.addr == AddressLayout::lockWord(ctx.lockId)
            && load_value != 0);
    if (!spinning)
        return 0;
    std::uint64_t acc = ctx.acc;
    for (InstrCount k = 0; k < max; ++k)
        acc = mix64(acc ^ load_value);
    ctx.acc = acc;
    ctx.retired += max;
    return max;
}

void
ThreadProgram::deliverInterrupt(ThreadContext &ctx, std::uint8_t type,
                                std::uint64_t data) const
{
    ctx.handlerRemaining =
        static_cast<std::uint16_t>(ctx.handlerRemaining
                                   + interruptHandlerLen(type));
    ctx.acc = mix64(ctx.acc ^ data ^ (static_cast<std::uint64_t>(type) << 56));
}

} // namespace delorean
