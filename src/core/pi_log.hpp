/**
 * @file
 * Processor Interleaving (PI) log.
 *
 * One entry per chunk commit, written by the arbiter: just the ID of
 * the committing processor (Table 3). With 8 processors plus the DMA
 * pseudo-processor an entry is 4 bits (Table 5). During replay the
 * arbiter walks the log and grants commit permissions in exactly the
 * recorded order.
 */

#ifndef DELOREAN_CORE_PI_LOG_HPP_
#define DELOREAN_CORE_PI_LOG_HPP_

#include <cstdint>
#include <vector>

#include "common/bitstream.hpp"
#include "common/types.hpp"

namespace delorean
{

/** Append/read PI log. Entries are procIDs; DMA has its own ID. */
class PiLog
{
  public:
    /**
     * @param num_procs processor count; the DMA is encoded as
     *        @p num_procs, so entries use ceil(log2(num_procs+1)) bits
     *        (4 bits for the 8-processor machine).
     */
    explicit PiLog(unsigned num_procs);

    /** Record a chunk commit by @p proc (or kDmaProcId). */
    void append(ProcId proc);

    std::size_t entryCount() const { return entries_.size(); }

    /** Entry @p i, decoded (kDmaProcId for DMA slots). */
    ProcId
    entryAt(std::size_t i) const
    {
        return entries_[i] == dma_code_ ? kDmaProcId
                                        : static_cast<ProcId>(entries_[i]);
    }

    /** Entry width in bits. */
    unsigned entryBits() const { return entry_bits_; }

    /** Total log size in bits. */
    std::uint64_t
    sizeBits() const
    {
        return entries_.size() * static_cast<std::uint64_t>(entry_bits_);
    }

    /** Bit-packed image (for LZ77 compression measurement). */
    const std::vector<std::uint8_t> &packedBytes() const;

    /** Accumulator spills performed by the packed writer. */
    std::uint64_t wordFlushes() const { return packed_.wordFlushes(); }

  private:
    unsigned num_procs_;
    unsigned entry_bits_;
    std::uint16_t dma_code_;
    std::vector<std::uint16_t> entries_;
    /// Entries bit-packed as they are appended, so packedBytes() is
    /// O(1) instead of re-encoding the whole log per measurement.
    BitWriter packed_;
};

/** Sequential reader used by the replay arbiter. */
class PiLogCursor
{
  public:
    explicit PiLogCursor(const PiLog &log) : log_(&log) {}

    bool atEnd() const { return pos_ >= log_->entryCount(); }

    /** Next committing proc without consuming. */
    ProcId peek() const { return log_->entryAt(pos_); }

    /** Consume the next entry. */
    ProcId
    next()
    {
        return log_->entryAt(pos_++);
    }

    std::size_t position() const { return pos_; }

  private:
    const PiLog *log_;
    std::size_t pos_ = 0;
};

} // namespace delorean

#endif // DELOREAN_CORE_PI_LOG_HPP_
