/**
 * @file
 * Chunk: a block of consecutive dynamic instructions executed
 * atomically and in isolation (Section 3.1 / Appendix A).
 *
 * A chunk buffers its stores privately (version management is lazy),
 * accumulates Read/Write signatures for disambiguation, and snapshots
 * the thread context at its start so a squash is a plain restore.
 */

#ifndef DELOREAN_CHUNK_CHUNK_HPP_
#define DELOREAN_CHUNK_CHUNK_HPP_

#include <cstdint>
#include <vector>

#include "common/line_set.hpp"
#include "common/types.hpp"
#include "common/word_map.hpp"
#include "signature/signature.hpp"
#include "trace/thread_context.hpp"

namespace delorean
{

/** Why a chunk ended before / at its target size. */
enum class ChunkEnd : std::uint8_t
{
    kSizeLimit,     ///< reached the standard chunk size (deterministic)
    kHardInstr,     ///< uncached access / special instr (deterministic)
    kProgramEnd,    ///< thread finished (deterministic)
    kCacheOverflow, ///< speculative-line overflow (NON-deterministic)
    kCollision,     ///< repeated-collision back-off (NON-deterministic)
    kCsLogForced,   ///< replay: truncated because the CS log says so
};

/** True for the truncation causes that must be logged (Section 4.2.3). */
constexpr bool
isNonDeterministicEnd(ChunkEnd end)
{
    return end == ChunkEnd::kCacheOverflow || end == ChunkEnd::kCollision;
}

/** Lifecycle of an in-flight chunk. */
enum class ChunkState : std::uint8_t
{
    kExecuting,  ///< completion event scheduled
    kCompleted,  ///< finished, commit request in flight / queued
    kCommitting, ///< arbiter granted; propagation in progress
};

/** One speculative chunk. */
struct Chunk
{
    ProcId proc = 0;
    ChunkSeq seq = 0; ///< processor-local commit sequence number

    /// Context snapshot at chunk start (restored on squash).
    ThreadContext startCtx;
    /// Context at chunk end; becomes architectural at commit.
    ThreadContext endCtx;

    /// Buffered speculative stores, in program order, word granular.
    std::vector<std::pair<Addr, std::uint64_t>> writes;
    /// Last buffered value per word, for same-chunk load forwarding.
    /// Flat epoch-cleared map: recycling costs O(1), probing one or
    /// two cache lines (this is the hottest lookup in the engine).
    WordMap writeMap;

    SignaturePair sigs;

    InstrCount size = 0;       ///< dynamic instructions in the chunk
    InstrCount targetSize = 0; ///< size limit this execution aimed for
    ChunkEnd endReason = ChunkEnd::kSizeLimit;

    /// Values consumed by the chunk's I/O loads, in order; appended to
    /// the I/O log when the chunk commits.
    std::vector<std::uint64_t> ioValues;

    ChunkState state = ChunkState::kExecuting;
    Cycle startTime = 0;
    Cycle finishTime = 0;
    unsigned squashCount = 0; ///< times this chunk has been squashed

    /// Lines written, in first-write order: exact disambiguation, the
    /// commit's invalidations and the spec-line release on squash or
    /// commit all read it.
    LineSet writtenLines;

    /**
     * Return the chunk to its just-constructed state, keeping the
     * buffers' allocations so a recycled chunk re-executes without
     * touching the allocator (the contexts are overwritten wholesale
     * when the chunk is rebuilt).
     */
    void
    reset()
    {
        proc = 0;
        seq = 0;
        writes.clear();
        writeMap.clear();
        sigs.clear();
        size = 0;
        targetSize = 0;
        endReason = ChunkEnd::kSizeLimit;
        ioValues.clear();
        state = ChunkState::kExecuting;
        startTime = 0;
        finishTime = 0;
        squashCount = 0;
        writtenLines.clear();
    }

    /** Fingerprint contribution of the committed chunk. */
    std::uint64_t
    contentHash() const
    {
        std::uint64_t h = endCtx.acc;
        h = mix64(h ^ size);
        h = mix64(h ^ (static_cast<std::uint64_t>(proc) << 48 ^ seq));
        return h;
    }

    /** Forward a same-chunk buffered store, if any. */
    bool
    forward(Addr word_addr, std::uint64_t &value) const
    {
        const std::uint64_t *stored = writeMap.find(word_addr);
        if (!stored)
            return false;
        value = *stored;
        return true;
    }
};

} // namespace delorean

#endif // DELOREAN_CHUNK_CHUNK_HPP_
