/**
 * @file
 * Undo journal: what changed in a MemoryState since the last cut.
 *
 * Incremental checkpoint hardware (ReVive, SafetyNet) logs a line's
 * old value the first time it is written after a checkpoint, so a
 * checkpoint costs what changed, not a copy of memory. The journal is
 * that log in software: the engine calls logStore() before every
 * committed store, and cut() turns the interval's log into the
 * address-sorted delta a checkpoint image stores, and carries the
 * memory hash across the interval in O(changed words).
 */

#ifndef DELOREAN_MEMORY_UNDO_JOURNAL_HPP_
#define DELOREAN_MEMORY_UNDO_JOURNAL_HPP_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "common/word_map.hpp"
#include "memory/memory_state.hpp"

namespace delorean
{

/**
 * How a memory image differs from the one before it: exactly what
 * MemoryState::forEachChange() visits, address-sorted.
 */
struct MemoryDelta
{
    /// Words holding a value the base lacks (new or rewritten).
    std::vector<std::pair<Addr, std::uint64_t>> changed;
    /// Words the base holds that went back to their default value.
    std::vector<Addr> erased;

    /** The delta of @p state against @p base, by a full diff. */
    static MemoryDelta
    between(const MemoryState &base, const MemoryState &state)
    {
        MemoryDelta delta;
        state.forEachChange(
            base,
            [&delta](Addr addr, std::uint64_t value) {
                delta.changed.emplace_back(addr, value);
            },
            [&delta](Addr addr) { delta.erased.push_back(addr); });
        std::sort(delta.changed.begin(), delta.changed.end());
        std::sort(delta.erased.begin(), delta.erased.end());
        return delta;
    }
};

/** Per-interval log of the first pre-store value of each word. */
class UndoJournal
{
  public:
    /** Log @p word_addr's value in @p mem; call before storing to it. */
    void
    logStore(const MemoryState &mem, Addr word_addr)
    {
        if (seen_.insert(word_addr))
            log_.emplace_back(word_addr, mem.load(word_addr));
    }

    /**
     * Close the interval: @p mem's delta against its state at the
     * last cut, with @p hash, that state's MemoryState::hash(),
     * advanced to @p mem's. A word written back to the value it had
     * at the cut is not a change. Clears the journal.
     */
    MemoryDelta
    cut(const MemoryState &mem, std::uint64_t &hash)
    {
        MemoryDelta delta;
        for (const auto &[addr, old] : log_) {
            const std::uint64_t now = mem.load(addr);
            if (now == old)
                continue;
            const std::uint64_t init = MemoryState::initValue(addr);
            if (old != init)
                hash -= MemoryState::hashTerm(addr, old);
            if (now == init) {
                delta.erased.push_back(addr);
            } else {
                hash += MemoryState::hashTerm(addr, now);
                delta.changed.emplace_back(addr, now);
            }
        }
        std::sort(delta.changed.begin(), delta.changed.end());
        std::sort(delta.erased.begin(), delta.erased.end());
        log_.clear();
        seen_.clear();
        return delta;
    }

  private:
    WordMap seen_; ///< words logged this interval
    std::vector<std::pair<Addr, std::uint64_t>> log_; ///< (word, old value)
};

} // namespace delorean

#endif // DELOREAN_MEMORY_UNDO_JOURNAL_HPP_
