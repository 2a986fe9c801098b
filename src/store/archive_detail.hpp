/**
 * @file
 * Shared internals of the archive containers (library-private).
 *
 * The `.dla` container (store/archive) and the ring container
 * (store/ring) serialize exactly the same per-segment log slices:
 * both cut a recording at checkpoint boundaries and store the slice
 * between two consecutive boundaries as one LZ77-compressed payload.
 * This header holds the slice machinery — boundary math, payload
 * build — the checkpoint images' stored forms, and the one feeder/flusher
 * pipeline both writers run on, so
 * the two containers stay byte-compatible by construction: a ring
 * segment's payload for a given checkpoint interval is identical to
 * the `.dla`'s. Both readers reassemble recordings through
 * ContainerReader::assemble (store/archive.hpp).
 *
 * Everything here is an implementation detail: not installed, not
 * part of the public API, subject to change with the container
 * formats.
 */

#ifndef DELOREAN_STORE_ARCHIVE_DETAIL_HPP_
#define DELOREAN_STORE_ARCHIVE_DETAIL_HPP_

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/recording.hpp"
#include "sim/campaign.hpp"
#include "store/archive.hpp"
#include "store/crc32.hpp"

namespace delorean
{
namespace archive_detail
{

/**
 * Per-segment boundary state: where every log cursor stands at the
 * end of a segment's GCC interval. Consecutive boundaries define the
 * half-open slice ranges a segment's payload holds.
 */
struct Boundary
{
    std::uint64_t gcc = 0;        ///< PI entries consumed (flat modes)
    std::uint64_t chunkCommits = 0; ///< fingerprint commits consumed
    std::size_t strataIdx = 0;
    std::size_t dmaIdx = 0;
    std::vector<ChunkSeq> committed;  ///< per-proc chunk seq frontier
    std::vector<std::uint64_t> ioIdx; ///< per-proc I/O value frontier
};

/**
 * Boundary at @p ckpt; @p segment only labels alignment errors.
 * Throws RecordingFormatError when the checkpoint does not land on a
 * stratum boundary of a stratified recording.
 */
Boundary boundaryAtCheckpoint(const Recording &rec,
                              const SystemCheckpoint &ckpt,
                              std::size_t segment);

/** Boundary at the end of the (complete) recording. */
Boundary boundaryAtEnd(const Recording &rec);

/** Serialize the log slices between boundaries @p lo and @p hi. */
std::string buildSegmentPayload(const Recording &rec, const Boundary &lo,
                                const Boundary &hi);

/**
 * LZ77-compress one segment payload or ring header blob. Checkpoint
 * images are stored as encoded: their values are random words LZ77
 * cannot shrink, and their addresses are already gap-coded.
 */
std::vector<std::uint8_t> compressPayload(const std::string &raw);

/**
 * CRC-check, LZ77-decode and size-check one stored blob. Failures are
 * an ArchiveError in @p section naming @p segment, with messages
 * prefixed by @p what ("payload", "header", ...).
 */
std::vector<std::uint8_t> decodeStored(const std::uint8_t *comp,
                                       std::size_t comp_bytes,
                                       std::uint64_t crc,
                                       std::uint64_t raw_bytes,
                                       ArchiveSection section,
                                       std::size_t segment,
                                       const char *what);

/** Little-endian u64 at @p offset (caller guarantees bounds). */
std::uint64_t readU64At(const std::uint8_t *bytes, std::size_t offset);

/**
 * Run @p tasks over a pool, collecting each task's exception (if any)
 * by index; the caller decides rethrow order. Task results land in
 * caller-owned index-keyed slots, so outcomes are independent of the
 * worker count — the parallel-codec analogue of the campaign runner's
 * determinism rule. A batch of one task runs on the caller; @p pool
 * is built (with @p threads workers) by the first larger batch.
 */
void runIndexed(std::unique_ptr<WorkerPool> &pool, unsigned threads,
                std::vector<std::function<void()>> tasks,
                std::vector<std::exception_ptr> &errors);

/**
 * The stored forms of one checkpoint. The feeder serializes them from
 * the recording's chain nodes (storedImages), and each container picks
 * the form it stores: the `.dla` footer the chain image, a ring
 * segment file the delta as its end image and the keyframe as the
 * next file's start image.
 */
struct CheckpointImages
{
    /// Keyframe (serialize_detail::encodeKeyframe); set exactly when
    /// the checkpoint heads a chain.
    std::string keyframe;
    /// Delta against the previous checkpoint
    /// (serialize_detail::encodeDelta); empty for the first.
    std::string delta;

    bool headsChain() const { return !keyframe.empty(); }

    /** The chain's stored form: the keyframe of a head, else the delta. */
    const std::string &chainImage() const
    {
        return headsChain() ? keyframe : delta;
    }
};

/**
 * Serialize @p cur's stored forms; @p prev is the checkpoint before
 * it, if any. The delta is always encoded (a ring file's end image
 * needs it even at a chain head), the keyframe when @p cur is stored
 * as one (serialize_detail::storedAsKeyframe). For a recorded run
 * this is a copy of the chain nodes' lists: no diff, sort or hash.
 */
CheckpointImages storedImages(const SystemCheckpoint *prev,
                              const SystemCheckpoint &cur);

/**
 * One cut segment on its way from the feeder to the flusher. The
 * feeder fills the span and the payload; the flusher the compressed
 * payload and its CRC. A container derives its staged type from this
 * to carry what its own cut and encode steps add.
 */
struct CutSegment
{
    std::size_t index = 0;          ///< cut order: 0, 1, 2, ...
    std::uint64_t startGcc = 0;
    std::uint64_t endGcc = 0;
    bool tail = false;              ///< cut by close(): no end checkpoint
    std::string raw;                ///< serialized payload
    CheckpointImages end;           ///< the end checkpoint (not tail)
    std::vector<std::uint8_t> comp; ///< LZ77 of raw
    std::uint64_t crc = 0;          ///< CRC-32 of comp
};

/**
 * The feeder/flusher pipeline behind StreamingArchiveWriter and
 * RingArchiveWriter.
 *
 * The *feeder* (recording) thread consumes checkpoints in ascending
 * GCC order and cuts the segment each one closes — boundary math,
 * buildSegmentPayload and the checkpoint's images (storedImages, the
 * serialized chain node) read the live recording,
 * which keeps growing after each hook returns — then runs the
 * container's cut step and stages the result. The *flusher* thread
 * encodes a snatched batch over the codec pool (payload LZ77 + CRC,
 * then the container's encode step) and hands it to the container's
 * commit step in cut order; meanwhile the feeder keeps staging without blocking (double
 * buffering). Handoff is by join: the feeder only touches the
 * flushing batch, the pool and the container's flusher-side state
 * after observing flush_done_ and joining, so no mutex is needed.
 *
 * The container supplies, on the thread noted:
 *   - `Segment`, derived from CutSegment;
 *   - `begin(rec)`, feeder, once before the first cut;
 *   - `cut(rec, lo, hi, end, seg)`, feeder, for the segment (lo, hi]
 *     whose end checkpoint is @c end (nullptr for the tail);
 *   - `encode(seg)`, a codec worker, after the payload is compressed;
 *   - `commit(batch)`, flusher, segments in cut order;
 *   - `finish(rec)`, feeder, after the tail segment is committed.
 *
 * Declare the pipeline as the container's last member: its destructor
 * joins the flusher before the state the flusher uses goes away.
 */
template <class Container>
class SegmentPipeline
{
  public:
    using Segment = typename Container::Segment;

    SegmentPipeline(Container &container, const char *writer,
                    const ArchiveIoOptions &io)
        : container_(container), writer_(writer), io_(io)
    {
    }

    ~SegmentPipeline()
    {
        if (flusher_.joinable())
            flusher_.join();
    }

    SegmentPipeline(const SegmentPipeline &) = delete;
    SegmentPipeline &operator=(const SegmentPipeline &) = delete;

    /** Cut every not-yet-streamed checkpoint; flush in background. */
    void
    onCheckpoint(const Recording &rec)
    {
        if (closed_)
            throw std::logic_error(std::string(writer_)
                                   + " used after close");
        feed(rec);
        pump();
    }

    /** Cut the rest and the tail, drain, then finish the container. */
    void
    close(const Recording &rec)
    {
        if (closed_)
            throw std::logic_error(std::string(writer_)
                                   + "::close called twice");
        feed(rec);
        stage(rec, boundaryAtEnd(rec), nullptr, {});
        drain();
        container_.finish(rec);
        closed_ = true;
    }

    bool closed() const { return closed_; }

    /** Segments cut so far (staged or committed). */
    std::size_t segmentsCut() const { return cut_; }

  private:
    Container &container_;
    const char *writer_;
    ArchiveIoOptions io_;

    bool begun_ = false;
    bool closed_ = false;
    Boundary last_;       ///< frontier at the last cut
    std::size_t fed_ = 0; ///< checkpoints consumed
    std::size_t cut_ = 0; ///< segments cut

    std::vector<Segment> staging_;  ///< feeder-owned accumulation
    std::vector<Segment> flushing_; ///< flusher-owned batch
    std::atomic<bool> flush_done_{true};
    std::exception_ptr flush_error_;
    std::unique_ptr<WorkerPool> pool_;
    std::thread flusher_; ///< after everything the flusher touches

    void
    feed(const Recording &rec)
    {
        if (!begun_) {
            container_.begin(rec);
            last_.committed.assign(rec.machine.numProcs, 0);
            last_.ioIdx.assign(rec.machine.numProcs, 0);
            begun_ = true;
        }
        while (fed_ < rec.checkpoints.size()) {
            const SystemCheckpoint &ckpt = rec.checkpoints[fed_];
            if (fed_ > 0 && ckpt.gcc <= last_.gcc)
                throw RecordingFormatError(
                    "checkpoints are not in ascending GCC order");
            stage(rec, boundaryAtCheckpoint(rec, ckpt, fed_), &ckpt,
                  storedImages(fed_ > 0 ? &rec.checkpoints[fed_ - 1]
                                        : nullptr,
                               ckpt));
            ++fed_;
        }
    }

    void
    stage(const Recording &rec, Boundary hi, const SystemCheckpoint *end,
          CheckpointImages images)
    {
        Segment seg;
        seg.index = cut_;
        seg.startGcc = last_.gcc;
        seg.endGcc = hi.gcc;
        seg.tail = end == nullptr;
        seg.raw = buildSegmentPayload(rec, last_, hi);
        seg.end = std::move(images);
        container_.cut(rec, last_, hi, end, seg);
        staging_.push_back(std::move(seg));
        last_ = std::move(hi);
        ++cut_;
    }

    /** Rethrow a flusher failure on the feeder thread. */
    void
    rethrowFlushError()
    {
        if (flush_error_) {
            closed_ = true; // poisoned: the container is mid-commit
            std::exception_ptr e = flush_error_;
            flush_error_ = nullptr;
            std::rethrow_exception(e);
        }
    }

    /** Encode flushing_ over the codec pool, then commit it. */
    void
    flushBatch()
    {
        std::vector<std::function<void()>> tasks;
        tasks.reserve(flushing_.size());
        for (Segment &seg : flushing_)
            tasks.push_back([this, &seg] {
                seg.comp = compressPayload(seg.raw);
                seg.crc = crc32(seg.comp.data(), seg.comp.size());
                container_.encode(seg);
            });
        std::vector<std::exception_ptr> errors;
        runIndexed(pool_, io_.resolvedIoThreads(), std::move(tasks),
                   errors);
        for (const std::exception_ptr &e : errors)
            if (e)
                std::rethrow_exception(e);
        container_.commit(flushing_);
        flushing_.clear();
    }

    /**
     * Hand staged work to the flusher. Non-blocking while a batch is
     * in flight; when the flusher is idle, join it, surface its
     * error (if any), and launch it on the accumulated batch.
     */
    void
    pump()
    {
        if (!flush_done_.load(std::memory_order_acquire))
            return; // flusher busy; keep accumulating
        if (flusher_.joinable())
            flusher_.join();
        rethrowFlushError();
        if (staging_.empty())
            return;
        flushing_ = std::move(staging_);
        staging_.clear();
        flush_done_.store(false, std::memory_order_release);
        flusher_ = std::thread([this] {
            try {
                flushBatch();
            } catch (...) {
                flush_error_ = std::current_exception();
            }
            flush_done_.store(true, std::memory_order_release);
        });
    }

    /** Block until every staged segment is committed. */
    void
    drain()
    {
        if (flusher_.joinable())
            flusher_.join();
        rethrowFlushError();
        if (!staging_.empty()) {
            flushing_ = std::move(staging_);
            staging_.clear();
            flushBatch();
        }
    }
};

} // namespace archive_detail
} // namespace delorean

#endif // DELOREAN_STORE_ARCHIVE_DETAIL_HPP_
