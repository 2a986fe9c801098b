/**
 * @file
 * Dynamic instruction representation for the workload model.
 *
 * Workloads are deterministic per-thread instruction *generators*
 * whose control flow depends on loaded values (spin locks, barriers,
 * flag polling). The executors — chunked or interleaved — drive the
 * generator one instruction at a time, perform the memory access, and
 * feed the observed value back. The categories below are exactly the
 * ones DeLorean's exceptional-event handling (Table 4) distinguishes.
 */

#ifndef DELOREAN_TRACE_INSTR_HPP_
#define DELOREAN_TRACE_INSTR_HPP_

#include <cstdint>

#include "common/types.hpp"

namespace delorean
{

/** Dynamic instruction kinds. */
enum class Op : std::uint8_t
{
    kCompute,     ///< no memory access
    kLoad,        ///< cached word load
    kStore,       ///< cached word store
    kAmoSwap,     ///< atomic swap, returns old value (test-and-set)
    kAmoFetchAdd, ///< atomic fetch-add, returns old value
    kIoLoad,      ///< uncached I/O load: truncates chunk, value logged
    kIoStore,     ///< uncached I/O store: truncates chunk
    kSpecialSys,  ///< special system instruction: truncates chunk
};

/** True if the op reads or writes simulated memory. */
constexpr bool
isMemOp(Op op)
{
    return op != Op::kCompute && op != Op::kSpecialSys;
}

/** True if the op returns a value to the program (load-like). */
constexpr bool
returnsValue(Op op)
{
    return op == Op::kLoad || op == Op::kAmoSwap
           || op == Op::kAmoFetchAdd || op == Op::kIoLoad;
}

/** True if the op writes memory. */
constexpr bool
writesMemory(Op op)
{
    return op == Op::kStore || op == Op::kAmoSwap
           || op == Op::kAmoFetchAdd || op == Op::kIoStore;
}

/**
 * True if the op is "hard to undo" and deterministically truncates the
 * running chunk (Section 4.2.2).
 */
constexpr bool
truncatesChunk(Op op)
{
    return op == Op::kIoLoad || op == Op::kIoStore
           || op == Op::kSpecialSys;
}

/** One dynamic instruction produced by a thread program. */
struct Instr
{
    Op op = Op::kCompute;
    Addr addr = 0;           ///< byte address (mem ops only)
    std::uint64_t value = 0; ///< store value / AMO operand
};

/** Kind of one traced memory access (cached ops only). */
enum class AccessKind : std::uint8_t
{
    kLoad,
    kStore,
    kAmoSwap,     ///< test-and-set; value is the *observed* (pre-swap) word
    kAmoFetchAdd, ///< value is the *observed* (pre-add) word
};

/** The traced kind of cached op @p op. */
constexpr AccessKind
accessKindOf(Op op)
{
    return op == Op::kLoad      ? AccessKind::kLoad
           : op == Op::kStore   ? AccessKind::kStore
           : op == Op::kAmoSwap ? AccessKind::kAmoSwap
                                : AccessKind::kAmoFetchAdd;
}

/**
 * One traced access, in program order within its chunk. @p value is
 * the stored value for plain stores and the observed (loaded) value
 * for loads and atomics — the datum a happens-before analysis needs to
 * recognize lock acquires (AmoSwap observing 0) and barrier phases.
 */
struct MemAccess
{
    Addr addr = 0;
    std::uint64_t value = 0;
    AccessKind kind = AccessKind::kLoad;
};

} // namespace delorean

#endif // DELOREAN_TRACE_INSTR_HPP_
