/**
 * @file
 * Per-processor speculative-line tracker.
 *
 * Speculatively written lines must stay in the L1 until their chunk
 * commits. When a chunk is about to write a line in a set whose ways
 * are already filled by speculative lines (of *any* in-flight chunk of
 * the processor — several chunks share the L1), the write cannot be
 * accommodated and the chunk must be truncated (Section 4.2.3). The
 * truncation point is genuinely non-deterministic because the number
 * of in-flight chunks at any moment is timing-dependent.
 */

#ifndef DELOREAN_CHUNK_SPEC_TRACKER_HPP_
#define DELOREAN_CHUNK_SPEC_TRACKER_HPP_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace delorean
{

/**
 * Tracks speculative (written, uncommitted) lines in one L1. Each set
 * holds at most `ways` distinct lines, so the tracker keeps, per set,
 * a flat array of `ways` {line, refs} entries and their count: every
 * operation scans one set's few entries, with no hashing or heap node
 * per line.
 */
class SpecTracker
{
  public:
    /**
     * @param num_sets L1 set count (a power of two)
     * @param ways L1 associativity (max spec lines per set)
     */
    SpecTracker(unsigned num_sets, unsigned ways)
        : num_sets_(num_sets),
          ways_(ways),
          set_counts_(num_sets, 0),
          entries_(static_cast<std::size_t>(num_sets) * ways)
    {
    }

    /** True if @p line is speculative in this L1. */
    bool
    contains(Addr line) const
    {
        return find(line) != nullptr;
    }

    /**
     * True if adding line @p line (not already speculative) would
     * overflow its set.
     */
    bool
    wouldOverflow(Addr line) const
    {
        if (find(line))
            return false; // already tracked; no new way needed
        return set_counts_[setOf(line)] >= ways_;
    }

    /**
     * Register a speculative write to @p line (refcounted). A line new
     * to the tracker needs a free way: the caller checks
     * wouldOverflow() first.
     */
    void
    insert(Addr line)
    {
        if (Entry *e = find(line)) {
            ++e->refs;
            return;
        }
        const unsigned set = setOf(line);
        assert(set_counts_[set] < ways_);
        entries_[base(set) + set_counts_[set]++] = Entry{line, 1};
        ++distinct_;
    }

    /** Release one reference to @p line (chunk commit or squash). */
    void
    remove(Addr line)
    {
        Entry *e = find(line);
        if (!e || --e->refs != 0)
            return;
        // Keep the set's live entries packed at its front.
        const unsigned set = setOf(line);
        *e = entries_[base(set) + --set_counts_[set]];
        --distinct_;
    }

    /** Release all of a chunk's lines. */
    void
    removeAll(const std::vector<Addr> &chunk_lines)
    {
        for (const Addr line : chunk_lines)
            remove(line);
    }

    /** Current number of distinct speculative lines. */
    std::size_t distinctLines() const { return distinct_; }

    /** Speculative lines currently in @p set. */
    unsigned setCount(unsigned set) const { return set_counts_[set]; }

  private:
    struct Entry
    {
        Addr line = 0;
        std::uint32_t refs = 0;
    };

    unsigned setOf(Addr line) const { return line & (num_sets_ - 1); }

    std::size_t
    base(unsigned set) const
    {
        return static_cast<std::size_t>(set) * ways_;
    }

    /** @p line's entry, or nullptr when it is not speculative. */
    const Entry *
    find(Addr line) const
    {
        const unsigned set = setOf(line);
        const Entry *e = &entries_[base(set)];
        for (unsigned w = 0; w < set_counts_[set]; ++w)
            if (e[w].line == line)
                return &e[w];
        return nullptr;
    }

    Entry *
    find(Addr line)
    {
        return const_cast<Entry *>(std::as_const(*this).find(line));
    }

    unsigned num_sets_;
    unsigned ways_;
    std::vector<unsigned> set_counts_; ///< live entries per set
    std::vector<Entry> entries_; ///< num_sets_ * ways_, packed per set
    std::size_t distinct_ = 0;
};

} // namespace delorean

#endif // DELOREAN_CHUNK_SPEC_TRACKER_HPP_
