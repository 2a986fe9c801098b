/**
 * @file
 * Chunk Size (CS) log, one per processor.
 *
 * Entry formats follow Tables 3 and 5:
 *  - Order&Size: one entry per committed chunk — 1 bit if the chunk
 *    has the maximum size, else a 0 bit followed by an 11-bit size
 *    (12 bits total).
 *  - OrderOnly / PicoLog: one entry per NON-deterministically
 *    truncated chunk — a "distance" field (number of chunks committed
 *    by this processor since its previous truncated chunk) plus the
 *    truncated size. 21+11 bits in OrderOnly, 22+10 in PicoLog.
 */

#ifndef DELOREAN_CORE_CS_LOG_HPP_
#define DELOREAN_CORE_CS_LOG_HPP_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/bitstream.hpp"
#include "common/config.hpp"
#include "common/types.hpp"

namespace delorean
{

/** One CS record (normalized; bit packing happens on demand). */
struct CsEntry
{
    ChunkSeq seq = 0;    ///< processor-local logical chunk number
    InstrCount size = 0; ///< committed size in instructions
    bool maxSize = false; ///< Order&Size: chunk hit the size limit
};

/** A processor's CS entries, by logical chunk number. */
using CsBySeq = std::unordered_map<ChunkSeq, CsEntry>;

/**
 * Replay size target of logical chunk @p seq: its logged size, or the
 * standard chunk size when the log has no entry for it (OrderOnly and
 * PicoLog log only truncated chunks) or, in Order&Size, when its entry
 * marks a maximum-size chunk.
 */
inline InstrCount
replayChunkTarget(const ModeConfig &mode, const CsBySeq &cs, ChunkSeq seq)
{
    const auto it = cs.find(seq);
    if (it == cs.end()
        || (mode.mode == ExecMode::kOrderAndSize && it->second.maxSize))
        return mode.chunkSize;
    return it->second.size;
}

/** Per-processor CS log. */
class CsLog
{
  public:
    explicit CsLog(const ModeConfig &mode) : mode_(mode) {}

    /**
     * Order&Size: record the size of every committed chunk.
     * @param is_max true if the chunk reached the maximum size
     */
    void
    appendCommittedSize(ChunkSeq seq, InstrCount size, bool is_max)
    {
        entries_.push_back(CsEntry{seq, size, is_max});
        pack(entries_.back());
    }

    /**
     * OrderOnly/PicoLog: record a non-deterministic truncation of
     * logical chunk @p seq at @p size instructions.
     */
    void
    appendTruncation(ChunkSeq seq, InstrCount size)
    {
        entries_.push_back(CsEntry{seq, size, false});
        pack(entries_.back());
    }

    const std::vector<CsEntry> &entries() const { return entries_; }
    std::size_t entryCount() const { return entries_.size(); }

    /** Log size in bits under this mode's entry format. */
    std::uint64_t sizeBits() const;

    /** Bit-packed image for compression measurement. */
    const std::vector<std::uint8_t> &packedBytes() const;

    /** Accumulator spills performed by the packed writer. */
    std::uint64_t wordFlushes() const { return packed_.wordFlushes(); }

    const ModeConfig &mode() const { return mode_; }

  private:
    /// Bit-pack one entry as it is appended (format is a pure
    /// function of the mode), so packedBytes() is O(1) per call.
    void pack(const CsEntry &entry);

    ModeConfig mode_;
    std::vector<CsEntry> entries_;
    BitWriter packed_;
    ChunkSeq last_trunc_ = 0; ///< distance-encoding reference point
};

/**
 * Replay-side cursor over truncation entries (OrderOnly/PicoLog).
 * peek() lets the engine re-check the same entry after a squash;
 * consume() advances once the logical chunk has fully committed.
 */
class CsLogCursor
{
  public:
    explicit CsLogCursor(const CsLog &log) : log_(&log) {}

    bool atEnd() const { return pos_ >= log_->entryCount(); }

    const CsEntry &peek() const { return log_->entries()[pos_]; }

    /** True if the next truncation applies to logical chunk @p seq. */
    bool
    appliesTo(ChunkSeq seq) const
    {
        return !atEnd() && peek().seq == seq;
    }

    void consume() { ++pos_; }

  private:
    const CsLog *log_;
    std::size_t pos_ = 0;
};

} // namespace delorean

#endif // DELOREAN_CORE_CS_LOG_HPP_
