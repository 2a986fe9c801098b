/**
 * @file
 * LineSet: an exact set of cache-line addresses with O(1) clearing.
 *
 * The engine keeps one read set and one write set per chunk, and the
 * stratifier one of each per processor and stratum. They are probed on
 * every memory access and on every commit's conflict check, and a
 * recorded chunk reads 52-298 distinct lines on average (up to 733;
 * DESIGN.md §9), so a sorted vector pays a shifting insert and a
 * binary search per new line. This set keeps a power-of-two slot array with linear
 * probing, cleared by bumping an epoch counter like WordMap, plus the
 * list of members in insertion order for iteration. Clearing keeps
 * both allocations, so a recycled chunk's sets allocate nothing.
 *
 * Iteration order is insertion order; every user's result is
 * independent of it (they only test membership or conflicts). No
 * erase operation, so probing needs no tombstones.
 */

#ifndef DELOREAN_COMMON_LINE_SET_HPP_
#define DELOREAN_COMMON_LINE_SET_HPP_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace delorean
{

/** Open-addressed set of Addr with epoch clearing and a member list. */
class LineSet
{
  public:
    using const_iterator = std::vector<Addr>::const_iterator;

    LineSet() { slots_.resize(kMinSlots); }

    /** Insert @p line; returns true if it was not already present. */
    bool
    insert(Addr line)
    {
        // At most half full: most probes in the conflict checks are
        // for absent lines, and those end at the first empty slot.
        if ((members_.size() + 1) * 2 > slots_.size())
            rehash(slots_.size() * 2);
        Slot &slot = probe(line);
        if (slot.epoch == epoch_)
            return false;
        slot.key = line;
        slot.epoch = epoch_;
        members_.push_back(line);
        return true;
    }

    /** Membership test. */
    bool
    contains(Addr line) const
    {
        std::size_t i = indexOf(line);
        for (;;) {
            const Slot &slot = slots_[i];
            if (slot.epoch != epoch_)
                return false;
            if (slot.key == line)
                return true;
            i = (i + 1) & (slots_.size() - 1);
        }
    }

    /** O(1): drop every member, keeping both allocations. */
    void
    clear()
    {
        members_.clear();
        if (++epoch_ == 0) {
            // Epoch wrapped: hard-reset the tags so members from 2^32
            // clears ago cannot come back to life.
            for (Slot &s : slots_)
                s.epoch = 0;
            epoch_ = 1;
        }
    }

    std::size_t size() const { return members_.size(); }
    bool empty() const { return members_.empty(); }

    /** Slot-array length (a power of two); clear() keeps it. */
    std::size_t capacity() const { return slots_.size(); }

    /** The members, in insertion order. */
    const std::vector<Addr> &members() const { return members_; }

    const_iterator begin() const { return members_.begin(); }
    const_iterator end() const { return members_.end(); }

    /**
     * TEST ONLY: jump the epoch counter to @p epoch so wraparound can
     * be exercised without 2^32 clear() calls. Members inserted under
     * other epochs immediately read as absent.
     */
    void
    forceEpochForTest(std::uint32_t epoch)
    {
        epoch_ = epoch;
        members_.clear();
    }

  private:
    struct Slot
    {
        Addr key = 0;
        std::uint32_t epoch = 0; ///< live iff equal to the set's epoch
    };

    static constexpr std::size_t kMinSlots = 64;

    std::size_t
    indexOf(Addr line) const
    {
        return tableSlot(line, slots_.size());
    }

    /** The slot holding @p line, or the first free slot for it. */
    Slot &
    probe(Addr line)
    {
        std::size_t i = indexOf(line);
        for (;;) {
            Slot &slot = slots_[i];
            if (slot.epoch != epoch_ || slot.key == line)
                return slot;
            i = (i + 1) & (slots_.size() - 1);
        }
    }

    /** Re-place the members into @p slots fresh slots (a power of two). */
    void
    rehash(std::size_t slots)
    {
        slots_.assign(slots, Slot{});
        epoch_ = 1;
        for (const Addr line : members_) {
            Slot &slot = probe(line);
            slot.key = line;
            slot.epoch = epoch_;
        }
    }

    std::vector<Slot> slots_; ///< power-of-two length
    std::vector<Addr> members_; ///< insertion order
    std::uint32_t epoch_ = 1; ///< 0 is reserved for "never written"
};

} // namespace delorean

#endif // DELOREAN_COMMON_LINE_SET_HPP_
