/**
 * @file
 * WordMap: open-addressed Addr -> word map with O(1) epoch clearing.
 *
 * The chunk store buffer maps word addresses to the last speculative
 * value so same-chunk loads forward correctly. It is rebuilt for every
 * chunk (thousands per simulated second) and probed on every load, so
 * std::unordered_map's node allocations and modulo hashing dominated
 * the engine's profile. This map keeps a power-of-two flat slot array
 * with linear probing, and clears by bumping an epoch counter: slots
 * whose tag does not match the current epoch read as empty, so a
 * recycled chunk's buffer clears in O(1) and keeps its grown capacity
 * (the same technique SignatureT uses for its words).
 *
 * No erase operation (the engine never removes individual stores), so
 * probing needs no tombstones.
 */

#ifndef DELOREAN_COMMON_WORD_MAP_HPP_
#define DELOREAN_COMMON_WORD_MAP_HPP_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace delorean
{

/** Flat insert-or-assign hash map from Addr to 64-bit values. */
class WordMap
{
  public:
    WordMap() { slots_.resize(kMinSlots); }

    /** Number of live entries. */
    std::size_t size() const { return size_; }

    bool empty() const { return size_ == 0; }

    /** Size the slot array so @p entries live entries fit unrehashed. */
    void
    reserve(std::size_t entries)
    {
        std::size_t slots = slots_.size();
        while (entries * 4 > slots * 3)
            slots *= 2;
        if (slots != slots_.size())
            rehash(slots);
    }

    /** O(1): invalidates every entry by bumping the epoch. */
    void
    clear()
    {
        size_ = 0;
        if (++epoch_ == 0) {
            // Epoch wrapped: hard-reset the tags so entries from 2^32
            // clears ago cannot come back to life.
            for (Slot &s : slots_)
                s.epoch = 0;
            epoch_ = 1;
        }
    }

    /** Insert-or-find @p key; returns a reference to its value. */
    std::uint64_t &
    operator[](Addr key)
    {
        if ((size_ + 1) * 4 > slots_.size() * 3)
            grow();
        Slot &slot = probe(key);
        if (slot.epoch != epoch_) {
            slot.key = key;
            slot.value = 0;
            slot.epoch = epoch_;
            ++size_;
        }
        return slot.value;
    }

    /** Insert @p key (value 0) unless present; true when it was absent. */
    bool
    insert(Addr key)
    {
        if ((size_ + 1) * 4 > slots_.size() * 3)
            grow();
        Slot &slot = probe(key);
        if (slot.epoch == epoch_)
            return false;
        slot.key = key;
        slot.value = 0;
        slot.epoch = epoch_;
        ++size_;
        return true;
    }

    /** Pointer to @p key's value, or nullptr when absent. */
    const std::uint64_t *
    find(Addr key) const
    {
        std::size_t i = indexOf(key);
        for (;;) {
            const Slot &slot = slots_[i];
            if (slot.epoch != epoch_)
                return nullptr;
            if (slot.key == key)
                return &slot.value;
            i = (i + 1) & (slots_.size() - 1);
        }
    }

    bool contains(Addr key) const { return find(key) != nullptr; }

    /**
     * TEST ONLY: jump the epoch counter to @p epoch so wraparound
     * behavior can be exercised without 2^32 clear() calls. Entries
     * inserted under other epochs immediately read as absent.
     */
    void
    forceEpochForTest(std::uint32_t epoch)
    {
        epoch_ = epoch;
        size_ = 0;
    }

  private:
    struct Slot
    {
        Addr key = 0;
        std::uint64_t value = 0;
        std::uint32_t epoch = 0; ///< live iff equal to the map's epoch
    };

    static constexpr std::size_t kMinSlots = 16;

    std::size_t
    indexOf(Addr key) const
    {
        return tableSlot(key, slots_.size());
    }

    /** First slot holding @p key, or the first free slot for it. */
    Slot &
    probe(Addr key)
    {
        std::size_t i = indexOf(key);
        for (;;) {
            Slot &slot = slots_[i];
            if (slot.epoch != epoch_ || slot.key == key)
                return slot;
            i = (i + 1) & (slots_.size() - 1);
        }
    }

    void grow() { rehash(slots_.size() * 2); }

    /** Move the live entries into @p slots fresh slots (a power of two). */
    void
    rehash(std::size_t slots)
    {
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(slots, Slot{});
        const std::uint32_t live = epoch_;
        epoch_ = 1;
        for (const Slot &s : old) {
            if (s.epoch != live)
                continue;
            std::size_t i = indexOf(s.key);
            while (slots_[i].epoch == epoch_)
                i = (i + 1) & (slots_.size() - 1);
            slots_[i].key = s.key;
            slots_[i].value = s.value;
            slots_[i].epoch = epoch_;
        }
    }

    std::vector<Slot> slots_; ///< power-of-two length
    std::size_t size_ = 0;
    std::uint32_t epoch_ = 1; ///< 0 is reserved for "never written"
};

} // namespace delorean

#endif // DELOREAN_COMMON_WORD_MAP_HPP_
