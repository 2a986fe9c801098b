/**
 * @file
 * PI-log stratification (Section 4.3).
 *
 * Instead of one procID per commit, the stratified PI log records
 * *chunk strata*: vectors of per-processor counters giving the number
 * of chunks each processor committed since the previous stratum. The
 * chunks inside one stratum have no cross-processor conflicts, so
 * replay may commit them in any order (same-processor chunks
 * serialize by construction).
 *
 * The Stratifier module mirrors Figure 5(b): a vector of chunk
 * counters plus one Signature Register (SR) per processor holding the
 * OR of that processor's chunk signatures since the last stratum. A
 * new stratum is cut when the incoming chunk's signature intersects
 * another processor's SR, or when the processor's counter would
 * overflow its maximum.
 */

#ifndef DELOREAN_CORE_STRATIFIER_HPP_
#define DELOREAN_CORE_STRATIFIER_HPP_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/bitstream.hpp"
#include "common/errors.hpp"
#include "common/line_set.hpp"
#include "common/types.hpp"
#include "signature/signature.hpp"

namespace delorean
{

/** One stratum: per-processor committed-chunk counts. */
struct Stratum
{
    std::vector<std::uint8_t> counts; ///< chunks per processor
    bool isDma = false; ///< reserved all-zero pattern marks a DMA slot
};

/** Builds the stratified PI log as chunks commit. */
class Stratifier
{
  public:
    /**
     * @param num_procs processor count (stratum vector width)
     * @param max_chunks_per_proc counter maximum (1, 3 or 7 in Fig. 9)
     */
    Stratifier(unsigned num_procs, unsigned max_chunks_per_proc);

    /**
     * Feed a committed chunk: @p sig is the union of its R and W
     * signatures (hardware Signature-Register design of Figure 5(b)).
     */
    void onCommit(ProcId proc, const Signature &sig);

    /**
     * Feed a committed chunk using exact read/write line sets — the
     * idealized-signature counterpart used when the machine runs with
     * exact disambiguation. Cuts a stratum on a true cross-processor
     * conflict: W_new vs (R|W)_other or R_new vs W_other.
     */
    void onCommitLines(ProcId proc, const LineSet &reads,
                       const LineSet &writes);

    /** Feed a DMA commit: cuts the stratum and emits a DMA marker. */
    void onDmaCommit();

    /**
     * Force a stratum boundary at a checkpoint: the pending partial
     * stratum (if any) is cut, so every checkpoint GCC coincides with
     * a stratum boundary. The archive's segment slicing (src/store)
     * relies on strata never straddling a checkpoint.
     */
    void cutAtCheckpoint() { cutStratum(); }

    /** Flush the trailing partial stratum (call once at the end). */
    void finish();

    const std::vector<Stratum> &strata() const { return strata_; }

    /** Counter width in bits. */
    unsigned counterBits() const { return counter_bits_; }

    /** Total log size in bits: strata * procs * counterBits. */
    std::uint64_t
    sizeBits() const
    {
        return static_cast<std::uint64_t>(strata_.size()) * num_procs_
               * counter_bits_;
    }

    /** Bit-packed image for compression measurement. */
    std::vector<std::uint8_t> packedBytes() const;

  private:
    void cutStratum();

    unsigned num_procs_;
    unsigned max_per_proc_;
    unsigned counter_bits_;
    std::vector<std::uint8_t> counters_;
    std::vector<Signature> srs_;
    std::vector<LineSet> sr_reads_;
    std::vector<LineSet> sr_writes_;
    bool any_pending_ = false;
    std::vector<Stratum> strata_;
};

/**
 * Replay-side cursor: exposes, stratum by stratum, how many chunks
 * each processor may commit before the machine must drain to the next
 * stratum boundary.
 */
class StrataCursor
{
  public:
    explicit StrataCursor(const std::vector<Stratum> &strata,
                          unsigned num_procs)
        : strata_(&strata), remaining_(num_procs, 0)
    {
        loadNext();
    }

    /** True when every stratum has been fully consumed. */
    bool
    atEnd() const
    {
        return exhausted_;
    }

    /** True if the current stratum is a DMA slot. */
    bool isDmaSlot() const { return current_dma_; }

    /** Chunks processor @p proc may still commit in this stratum. */
    unsigned remainingFor(ProcId proc) const { return remaining_[proc]; }

    /** Consume one commit by @p proc; advances stratum when drained. */
    void
    consume(ProcId proc)
    {
        if (proc >= remaining_.size() || remaining_[proc] == 0)
            throw ReplayError(
                "stratified replay committed proc "
                + std::to_string(proc)
                + " beyond its budget in stratum "
                + std::to_string(pos_ ? pos_ - 1 : 0));
        --remaining_[proc];
        advanceIfDrained();
    }

    /** Consume the current DMA slot. */
    void
    consumeDma()
    {
        current_dma_ = false;
        loadNext();
    }

    /**
     * Skip forward to a checkpoint boundary: consume whole strata
     * until exactly @p committed[p] chunk commits per processor and
     * @p dma_consumed DMA slots have been accounted for. Checkpoints
     * are taken at stratum boundaries (Stratifier::cutAtCheckpoint),
     * so greedy whole-stratum consumption lands exactly on the
     * boundary; a stratum that would straddle it means the recording
     * and checkpoint disagree, which is a format error.
     */
    void
    advanceTo(const std::vector<ChunkSeq> &committed,
              std::size_t dma_consumed)
    {
        // Rewind: the constructor pre-loads stratum 0 into the
        // remaining-budget vector, but the accounting below must see
        // every stratum from the start of the log.
        pos_ = 0;
        std::fill(remaining_.begin(), remaining_.end(), 0u);
        std::vector<std::uint64_t> need(committed.begin(),
                                        committed.end());
        std::size_t dma_need = dma_consumed;
        const auto satisfied = [&] {
            if (dma_need)
                return false;
            for (const std::uint64_t v : need)
                if (v)
                    return false;
            return true;
        };
        while (!satisfied()) {
            if (pos_ >= strata_->size())
                throw RecordingFormatError(
                    "checkpoint lies beyond the strata log ("
                    + std::to_string(strata_->size()) + " strata)");
            const Stratum &s = (*strata_)[pos_++];
            if (s.isDma) {
                if (dma_need == 0)
                    throw RecordingFormatError(
                        "DMA stratum " + std::to_string(pos_ - 1)
                        + " precedes the checkpoint but its commit "
                          "does not");
                --dma_need;
                continue;
            }
            if (s.counts.size() != need.size())
                throw RecordingFormatError(
                    "stratum " + std::to_string(pos_ - 1) + " has "
                    + std::to_string(s.counts.size())
                    + " counters for " + std::to_string(need.size())
                    + " processors");
            for (std::size_t p = 0; p < need.size(); ++p) {
                if (s.counts[p] > need[p])
                    throw RecordingFormatError(
                        "stratum " + std::to_string(pos_ - 1)
                        + " straddles the checkpoint boundary (proc "
                        + std::to_string(p) + ")");
                need[p] -= s.counts[p];
            }
        }
        exhausted_ = false;
        current_dma_ = false;
        loadNext();
    }

  private:
    void
    advanceIfDrained()
    {
        for (const unsigned r : remaining_)
            if (r)
                return;
        loadNext();
    }

    void
    loadNext()
    {
        while (pos_ < strata_->size()) {
            const Stratum &s = (*strata_)[pos_++];
            if (s.isDma) {
                current_dma_ = true;
                return;
            }
            if (s.counts.size() != remaining_.size())
                throw RecordingFormatError(
                    "stratum " + std::to_string(pos_ - 1) + " has "
                    + std::to_string(s.counts.size())
                    + " counters for "
                    + std::to_string(remaining_.size())
                    + " processors");
            bool any = false;
            for (std::size_t p = 0; p < remaining_.size(); ++p) {
                remaining_[p] = s.counts[p];
                any = any || s.counts[p];
            }
            if (any)
                return;
        }
        exhausted_ = true;
    }

    const std::vector<Stratum> *strata_;
    std::vector<unsigned> remaining_;
    std::size_t pos_ = 0;
    bool current_dma_ = false;
    bool exhausted_ = false;
};

} // namespace delorean

#endif // DELOREAN_CORE_STRATIFIER_HPP_
