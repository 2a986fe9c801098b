/**
 * @file
 * Value-dependent per-thread instruction generator.
 *
 * The generator is driven by the executor in a fetch/observe protocol:
 *
 *   Instr in = program.generate(ctx);       // may step ctx.rng
 *   value = <executor performs the access>;
 *   program.observe(ctx, in, value);        // control flow reacts
 *   k = program.repeatSpin(ctx, in, value, max);  // optional, loads
 *
 * All calls are deterministic functions of ctx (and, for observe and
 * repeatSpin, the loaded value), so replaying the same interleaving
 * reproduces the same dynamic instruction stream — and a different
 * interleaving genuinely produces a different one (spin counts, lock
 * hand-offs and barrier release orders all depend on observed values).
 *
 * Two executors drive the protocol. runChunkBody
 * (chunk/body_runner.hpp) runs a chunk body in isolation for both the
 * DES and the functional replayer; it is the only caller of
 * repeatSpin. When the load just observed left the thread spinning on
 * a barrier or a lock, its next k instructions are that same load,
 * and in isolation the word cannot change under it, so repeatSpin
 * retires k of them at once (each one's effect on ctx applied) and
 * the runner counts k more copies of the load. The
 * InterleavedExecutor lets other processors' stores land between two
 * instructions, so it steps every load and must not call repeatSpin.
 */

#ifndef DELOREAN_TRACE_THREAD_PROGRAM_HPP_
#define DELOREAN_TRACE_THREAD_PROGRAM_HPP_

#include "trace/app_profile.hpp"
#include "trace/instr.hpp"
#include "trace/layout.hpp"
#include "trace/thread_context.hpp"

namespace delorean
{

/** Generator of one thread's dynamic instruction stream. */
class ThreadProgram
{
  public:
    /**
     * @param profile application parameters
     * @param num_procs thread/processor count (barrier width)
     * @param base_seed workload seed; each thread derives its own
     */
    ThreadProgram(const AppProfile &profile, unsigned num_procs,
                  std::uint64_t base_seed);

    /** Initialize @p ctx as processor @p proc's starting state. */
    void initContext(ThreadContext &ctx, ProcId proc) const;

    /** True once the thread has finished all iterations. */
    bool done(const ThreadContext &ctx) const { return ctx.done; }

    /** Produce the next dynamic instruction (steps ctx). */
    Instr generate(ThreadContext &ctx) const;

    /**
     * Feed back the access result. @p load_value is meaningful only
     * for load-like ops (see returnsValue()); pass 0 otherwise.
     * Increments ctx.retired.
     */
    void observe(ThreadContext &ctx, const Instr &instr,
                 std::uint64_t load_value) const;

    /**
     * Called right after observe(ctx, @p instr, @p load_value). If
     * that load left the thread spinning — a barrier spin that read
     * the generation it already holds, or a lock test that read the
     * lock taken — with no interrupt handler, trap, stashed access or
     * race burst in progress, the next @p max instructions would each
     * be @p instr reading @p load_value again (the word is unchanged
     * while the chunk runs in isolation). Retires those @p max loads
     * exactly as @p max generate()/observe() rounds would and returns
     * @p max. Otherwise returns 0 and leaves @p ctx untouched.
     */
    InstrCount repeatSpin(ThreadContext &ctx, const Instr &instr,
                          std::uint64_t load_value, InstrCount max) const;

    /**
     * Deliver an interrupt at a chunk boundary: the thread executes a
     * kernel handler before resuming. Length depends on @p type; the
     * device @p data is folded into the accumulator.
     */
    void deliverInterrupt(ThreadContext &ctx, std::uint8_t type,
                          std::uint64_t data) const;

    /** Handler length in instructions for interrupt @p type. */
    static std::uint16_t
    interruptHandlerLen(std::uint8_t type)
    {
        return static_cast<std::uint16_t>(80 + (type & 3u) * 40u);
    }

    const AppProfile &profile() const { return profile_; }
    unsigned numProcs() const { return num_procs_; }

  private:
    Instr workInstr(ThreadContext &ctx, bool in_critical) const;
    Instr kernelInstr(ThreadContext &ctx) const;
    Addr pickPrivateAddr(ThreadContext &ctx, unsigned locality_pm) const;
    Addr pickSharedAddr(ThreadContext &ctx, bool prefer_hot,
                        unsigned locality_pm) const;
    std::uint64_t storeValue(ThreadContext &ctx) const;
    void beginIteration(ThreadContext &ctx) const;
    void afterWorkTransition(ThreadContext &ctx) const;

    AppProfile profile_;
    unsigned num_procs_;
    std::uint64_t base_seed_;
};

} // namespace delorean

#endif // DELOREAN_TRACE_THREAD_PROGRAM_HPP_
