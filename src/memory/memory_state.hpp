/**
 * @file
 * Word-granular committed architectural memory state.
 *
 * Memory is sparse: untouched words read as a deterministic function
 * of their address (so two states that differ only in redundantly
 * written default values still hash equal). The chunk engine buffers
 * speculative stores privately and only applies them here at commit,
 * which is what makes chunk execution atomic and isolated.
 *
 * Every committed store and every cache-missing load lands here, so
 * the container is a flat open-addressed table with linear probing
 * (one or two cache lines per probe) rather than std::unordered_map,
 * whose per-node allocations and modulo hashing dominated the engine
 * profile. Deleting a word (a store of its default value) uses
 * backward-shift deletion, so lookups never scan tombstones.
 */

#ifndef DELOREAN_MEMORY_MEMORY_STATE_HPP_
#define DELOREAN_MEMORY_MEMORY_STATE_HPP_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"

namespace delorean
{

/** Committed memory image, word addressed. */
class MemoryState
{
  public:
    MemoryState() { slots_.resize(kMinSlots); }

    /** Deterministic initial value of an untouched word. */
    static std::uint64_t
    initValue(Addr word_addr)
    {
        return mix64(word_addr ^ 0xA5A5A5A55A5A5A5Aull);
    }

    /** Read the committed value of @p word_addr. */
    std::uint64_t
    load(Addr word_addr) const
    {
        std::size_t i = indexOf(word_addr);
        for (;;) {
            const Slot &s = slots_[i];
            if (!s.live)
                return initValue(word_addr);
            if (s.key == word_addr)
                return s.value;
            i = (i + 1) & (slots_.size() - 1);
        }
    }

    /** Write @p value to @p word_addr. */
    void
    store(Addr word_addr, std::uint64_t value)
    {
        if (value == initValue(word_addr)) {
            erase(word_addr);
            return;
        }
        if ((size_ + 1) * 4 > slots_.size() * 3)
            grow();
        std::size_t i = indexOf(word_addr);
        for (;;) {
            Slot &s = slots_[i];
            if (!s.live) {
                s.key = word_addr;
                s.value = value;
                s.live = true;
                ++size_;
                return;
            }
            if (s.key == word_addr) {
                s.value = value;
                return;
            }
            i = (i + 1) & (slots_.size() - 1);
        }
    }

    /**
     * Size the table for @p words live words up front — the size
     * that many store() calls would have grown it to — so bulk loads
     * (checkpoint decode) never rehash midway.
     */
    void
    reserve(std::size_t words)
    {
        std::size_t slots = slots_.size();
        while (words * 4 > slots * 3)
            slots *= 2;
        if (slots != slots_.size())
            rehash(slots);
    }

    /** Number of words holding a non-default value. */
    std::size_t population() const { return size_; }

    /**
     * Order-independent content hash; equal iff the architectural
     * memory images are equal.
     */
    std::uint64_t
    hash() const
    {
        std::uint64_t h = 0x12345678DEADBEEFull;
        for (const Slot &s : slots_)
            if (s.live)
                h += mix64(s.key * 0x9E3779B97F4A7C15ull)
                     ^ mix64(s.value);
        return h;
    }

    /** Full snapshot (used by system checkpointing). */
    MemoryState snapshot() const { return *this; }

    /** Visit every non-default word (serialization of checkpoints). */
    template <typename Fn>
    void
    forEachWord(Fn &&fn) const
    {
        for (const Slot &s : slots_)
            if (s.live)
                fn(s.key, s.value);
    }

    bool
    operator==(const MemoryState &other) const
    {
        if (size_ != other.size_)
            return false;
        for (const Slot &s : slots_) {
            if (!s.live)
                continue;
            if (other.load(s.key) != s.value)
                return false;
        }
        return true;
    }

  private:
    struct Slot
    {
        Addr key = 0;
        std::uint64_t value = 0;
        bool live = false;
    };

    static constexpr std::size_t kMinSlots = 1024;

    std::size_t
    indexOf(Addr key) const
    {
        return static_cast<std::size_t>(mix64(key))
               & (slots_.size() - 1);
    }

    /** Remove @p key, keeping probe chains gap-free (backward shift). */
    void
    erase(Addr key)
    {
        std::size_t hole = indexOf(key);
        for (;;) {
            const Slot &s = slots_[hole];
            if (!s.live)
                return; // already default
            if (s.key == key)
                break;
            hole = (hole + 1) & (slots_.size() - 1);
        }
        // Shift back every entry the hole would cut off from its home
        // slot, then free the final hole.
        std::size_t j = hole;
        for (;;) {
            j = (j + 1) & (slots_.size() - 1);
            Slot &sj = slots_[j];
            if (!sj.live)
                break;
            const std::size_t home = indexOf(sj.key);
            // sj stays findable iff its home lies in (hole, j]
            // (cyclically); otherwise it must move into the hole.
            const bool reachable = (j >= hole)
                                       ? (home > hole && home <= j)
                                       : (home > hole || home <= j);
            if (!reachable) {
                slots_[hole] = sj;
                sj.live = false;
                hole = j;
            }
        }
        slots_[hole].live = false;
        --size_;
    }

    void grow() { rehash(slots_.size() * 2); }

    void
    rehash(std::size_t slots)
    {
        std::vector<Slot> old = std::move(slots_);
        slots_.assign(slots, Slot{});
        for (const Slot &s : old) {
            if (!s.live)
                continue;
            std::size_t i = indexOf(s.key);
            while (slots_[i].live)
                i = (i + 1) & (slots_.size() - 1);
            slots_[i] = s;
        }
    }

    std::vector<Slot> slots_; ///< power-of-two length
    std::size_t size_ = 0;
};

} // namespace delorean

#endif // DELOREAN_MEMORY_MEMORY_STATE_HPP_
