/**
 * @file
 * System checkpointing (Figure 2) and interval replay (Appendix B).
 *
 * The paper assumes checkpoint support such as ReVive or SafetyNet and
 * proves: *assuming a system checkpoint was taken at GCC = n, DeLorean
 * can deterministically replay the execution interval I(n, m)*. A
 * SystemCheckpoint captures the architectural state of the machine at
 * a global commit count: the committed memory image, each thread's
 * context as of its last committed chunk, and the log positions needed
 * to resume consuming the recording mid-stream.
 *
 * Checkpoints are only meaningful at commit boundaries — exactly where
 * chunk-based machines take them for free, since every chunk commit
 * already is a processor checkpoint.
 *
 * Memory images are kept the way incremental checkpoint hardware keeps
 * them: in *keyframe chains*. A CheckpointImage is one immutable,
 * shared chain node — a keyframe (every non-default word) at a chain
 * head, otherwise the delta against the checkpoint before it. The
 * recorder journals each interval's delta (memory/undo_journal.hpp),
 * recordings, container readers and their files keep the chains, and
 * only a replay restore builds a full MemoryState (materialize()).
 */

#ifndef DELOREAN_CORE_CHECKPOINT_HPP_
#define DELOREAN_CORE_CHECKPOINT_HPP_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "memory/memory_state.hpp"
#include "memory/undo_journal.hpp"
#include "trace/thread_context.hpp"

namespace delorean
{

/**
 * One checkpoint's memory image: an immutable chain node, shared by
 * every copy. A chain head holds only its keyframe, the address-sorted
 * non-default words; every other node holds its delta against the
 * image before it (its base). population() and hash() are O(1);
 * materialize() builds the full MemoryState from the chain's keyframe
 * and deltas.
 */
class CheckpointImage
{
  public:
    using Word = std::pair<Addr, std::uint64_t>;

    /** The image of a memory holding no non-default word. */
    CheckpointImage();

    /** A keyframe of @p state's words that heads a chain of its own. */
    explicit CheckpointImage(const MemoryState &state);

    /**
     * A chain head holding @p words (address-sorted, distinct,
     * non-default) of a memory whose hash() is @p hash.
     */
    static CheckpointImage keyframe(std::vector<Word> words,
                                    std::uint64_t hash);

    /**
     * The image @p delta makes of @p base: a memory of @p population
     * words whose hash() is @p hash.
     */
    static CheckpointImage deltaOn(const CheckpointImage &base,
                                   MemoryDelta delta, std::uint64_t hash,
                                   std::size_t population);

    /** Number of words holding a non-default value. */
    std::size_t population() const;

    /** MemoryState::hash() of the image. */
    std::uint64_t hash() const;

    /** True for a keyframe (a chain head). */
    bool headsChain() const;

    /** A head's keyframe words, address-sorted (empty otherwise). */
    const std::vector<Word> &words() const;

    /** The delta against the image before this one; nullptr at a head. */
    const MemoryDelta *delta() const;

    /** True when this image is a delta against @p prev. */
    bool follows(const CheckpointImage &prev) const;

    /** The chain from its head to this image, in order. */
    std::vector<CheckpointImage> chain() const;

    /** Bytes of word lists this node holds (its keyframe or delta). */
    std::size_t heldBytes() const;

    /** The full memory state: the chain's keyframe plus its deltas. */
    MemoryState materialize() const;

    /** Content equality (same memory image). */
    bool operator==(const CheckpointImage &other) const;

    /** @p state's non-default words, address-sorted. */
    static std::vector<Word> sortedWords(const MemoryState &state);

  private:
    struct Node;
    explicit CheckpointImage(std::shared_ptr<const Node> node);

    std::shared_ptr<const Node> node_;
};

/** Architectural machine state at a global commit count. */
struct SystemCheckpoint
{
    /// Global commit count (GCC) this checkpoint corresponds to:
    /// the state after the first `gcc` commits of the recording.
    std::uint64_t gcc = 0;

    /// Committed memory image, as a keyframe-chain node.
    CheckpointImage memory;

    /// Per-processor context at the boundary of its last committed
    /// chunk (the thread's complete architectural state).
    std::vector<ThreadContext> contexts;

    /// Chunks committed per processor so far (the next logical chunk
    /// sequence number each processor will execute).
    std::vector<ChunkSeq> committedChunks;

    /// DMA transfers consumed so far.
    std::size_t dmaConsumed = 0;

    /// PicoLog: the processor whose commit turn is next.
    ProcId rrNext = 0;

    bool
    valid() const
    {
        return !contexts.empty()
               && contexts.size() == committedChunks.size();
    }
};

/**
 * The keyframe rule, applied in checkpoint order. The first checkpoint
 * heads a chain; every later one is a delta against the checkpoint
 * before it, unless the encoded delta bytes since its chain's keyframe
 * would then exceed that keyframe's own encoded size, in which case it
 * heads a new chain. Materializing any image therefore reads at most
 * twice its keyframe's bytes. The rule has no knob and sees only
 * encoded image sizes, so a recording's chains are a function of its
 * checkpoints' content.
 */
class KeyframeRule
{
  public:
    /** Whether a checkpoint whose delta takes @p delta_bytes heads a chain. */
    bool
    headsChain(std::size_t delta_bytes) const
    {
        return !started_ || delta_bytes_ + delta_bytes > keyframe_bytes_;
    }

    /** Count a checkpoint stored as a keyframe of @p keyframe_bytes. */
    void
    keyframe(std::size_t keyframe_bytes)
    {
        started_ = true;
        keyframe_bytes_ = keyframe_bytes;
        delta_bytes_ = 0;
    }

    /** Count a checkpoint stored as a delta of @p delta_bytes. */
    void delta(std::size_t delta_bytes) { delta_bytes_ += delta_bytes; }

  private:
    bool started_ = false;
    std::size_t keyframe_bytes_ = 0; ///< the current chain's keyframe
    std::size_t delta_bytes_ = 0;    ///< its deltas so far
};

/**
 * Builds one recording's checkpoint images in checkpoint order under
 * the KeyframeRule, sizing each image as the containers encode it.
 * The recorder feeds it each interval's journaled delta; a checkpoint
 * the rule makes a chain head keeps only its keyframe.
 */
class ImageChainBuilder
{
  public:
    /**
     * The image of @p state at checkpoint @p ckpt (its header fields
     * set; its memory is what this returns), given its @p delta
     * against the previous image and its @p hash (the first image
     * ignores @p delta).
     */
    CheckpointImage next(const SystemCheckpoint &ckpt,
                         const MemoryState &state, MemoryDelta delta,
                         std::uint64_t hash);

  private:
    KeyframeRule rule_;
    bool started_ = false;
    SystemCheckpoint last_; ///< the previous checkpoint, with its image
};

/**
 * Evenly spaced checkpoint GCCs for an execution expected to commit
 * about @p expected_commits chunks: every @p period commits, starting
 * at @p period (GCC 0 is the initial state and needs no checkpoint).
 * Feed the result to EngineOptions::checkpointGccs so interval replay
 * and the divergence localizer have boundaries to anchor on.
 */
inline std::vector<std::uint64_t>
periodicCheckpointGccs(std::uint64_t expected_commits,
                       std::uint64_t period)
{
    std::vector<std::uint64_t> gccs;
    if (period == 0)
        return gccs;
    for (std::uint64_t g = period; g <= expected_commits; g += period)
        gccs.push_back(g);
    return gccs;
}

} // namespace delorean

#endif // DELOREAN_CORE_CHECKPOINT_HPP_
