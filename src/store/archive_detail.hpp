/**
 * @file
 * Shared internals of the archive containers (library-private).
 *
 * The `.dla` container (store/archive) and the ring container
 * (store/ring) store a recording as the same *segment records*: both
 * cut it at checkpoint boundaries, and a record holds the log slice
 * between two consecutive boundaries (one LZ77-compressed payload)
 * with the stored image of the checkpoint it ends at. This header
 * holds the slice machinery — boundary math, payload build — the
 * record codec, the run metadata and record index both containers
 * store, and the one feeder/flusher pipeline both writers run on, so
 * the two containers stay byte-compatible by construction: a ring
 * file is byte-identical to the `.dla`'s record of the same interval.
 * Both readers reassemble recordings through ContainerReader::assemble
 * (store/archive.hpp).
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
#include <iosfwd>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/recording.hpp"
#include "core/serialize_detail.hpp"
#include "sim/campaign.hpp"
#include "store/archive.hpp"

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
 * LZ77-compress one segment payload. Checkpoint images are stored as
 * encoded: their values are random words LZ77 cannot shrink, and
 * their addresses are already gap-coded.
 */
std::vector<std::uint8_t> compressPayload(const std::string &raw);

/**
 * CRC-check, LZ77-decode and size-check the stored payload @p comp
 * (info.compBytes bytes) of the record @p info. Failures are an
 * ArchiveError naming @p segment.
 */
std::vector<std::uint8_t> decodePayload(const std::uint8_t *comp,
                                        const ArchiveSegmentInfo &info,
                                        std::size_t segment);

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

/// Record header: magic, index, startGcc, endGcc, image kind (0 for
/// none, else serialize_detail::ImageKind), image bytes, image CRC-32,
/// payload raw bytes, payload stored bytes, payload CRC-32, then the
/// CRC-32 of those ten u64s. The image and the payload follow it.
inline constexpr std::size_t kRecordHeaderBytes = 88;

/// Record count cap of a container's index: fences OOM on garbage.
inline constexpr std::uint64_t kMaxRecords = 1u << 20;

/**
 * One cut segment on its way from the feeder to the flusher, and then
 * into a record. The feeder fills the span, the payload and the end
 * checkpoint's stored image; the flusher the compressed payload and
 * the record header.
 */
struct CutSegment
{
    std::size_t index = 0; ///< cut order: 0, 1, 2, ...
    std::uint64_t startGcc = 0;
    std::uint64_t endGcc = 0;
    std::string raw; ///< serialized payload
    /// The end checkpoint's serialize_detail::ImageKind, or 0 for the
    /// tail segment close() cuts, which ends at no checkpoint.
    std::uint64_t imageKind = 0;
    /// Its stored image: a keyframe when the checkpoint heads a chain,
    /// else a delta on the segment's start checkpoint.
    std::string image;
    std::vector<std::uint8_t> comp; ///< LZ77 of raw
    std::string header;             ///< recordHeader()
};

/** The record header of @p seg, once its payload is compressed. */
std::string recordHeader(const CutSegment &seg);

/** Write @p seg's record (header, image, payload); returns its bytes. */
std::uint64_t writeRecord(std::ostream &out, const CutSegment &seg);

/**
 * Parse and check the header of a record whose extent (the bytes it
 * may fill) is @p extent: magic, header CRC, size caps, that the
 * record fits the extent; record 0 holds no delta. @p data holds the
 * kRecordHeaderBytes header bytes (fewer only when the extent is
 * shorter than a header, which fails first). Throws
 * RecordingFormatError naming the first failure.
 */
ArchiveSegmentInfo scanRecordHeader(const std::uint8_t *data,
                                    std::uint64_t extent);

/**
 * Check the end image @p image (info.imageBytes bytes) of the record
 * @p info of a run with @p num_procs processors: its CRC, and its
 * structural walk (scanImage) against the header — GCC, context
 * count, and a delta's base GCC, which must be the start GCC. A tail
 * record has no image to check.
 */
void scanRecordImage(const ArchiveSegmentInfo &info,
                     const std::uint8_t *image, unsigned num_procs);

/**
 * scanRecordHeader and scanRecordImage on the record at
 * @p data[0, @p size). The payload's CRC waits for its first read.
 */
ArchiveSegmentInfo scanRecord(const std::uint8_t *data, std::size_t size,
                              unsigned num_procs);

/**
 * The run metadata both containers store once (the `.dla` footer,
 * ring.meta): machine, mode, app name, workload seed, iterations
 * percent. ContainerReader::getRunMeta reads it back.
 */
void putRunMeta(std::ostream &out, const Recording &rec);

/**
 * Where a container's records lie, and a closed run's final
 * statistics: a clean flag, the record count, per record a locator
 * and its bytes, then FinalStats when clean. The `.dla` footer
 * (locator: the record's file offset; always clean) and ring.index
 * (locator: the file's segment id) share this layout.
 */
struct RecordIndex
{
    using Entry = std::pair<std::uint64_t, std::uint64_t>;

    bool clean = false;
    std::vector<Entry> records;
    FinalStats final;

    /** Serialize; @p rec, when given, supplies a closed run's stats. */
    static void put(std::ostream &out, const std::vector<Entry> &records,
                    const Recording *rec);

    /** Parse the index of a run with @p num_procs processors. */
    static RecordIndex get(serialize_detail::ByteCursor &in,
                           unsigned num_procs);
};

/**
 * The feeder/flusher pipeline behind StreamingArchiveWriter and
 * RingArchiveWriter.
 *
 * The *feeder* (recording) thread consumes checkpoints in ascending
 * GCC order and cuts the segment each one closes — boundary math,
 * buildSegmentPayload and the checkpoint's stored image (the
 * serialized chain node) read the live recording, which keeps growing
 * after each hook returns — and stages the result. The *flusher*
 * thread encodes a snatched batch over the codec pool (payload LZ77,
 * record header) and hands it to the container's commit step in cut
 * order; meanwhile the feeder keeps staging without blocking (double
 * buffering). Handoff is by join: the feeder only touches the
 * flushing batch, the pool and the container's flusher-side state
 * after observing flush_done_ and joining, so no mutex is needed.
 *
 * The container supplies, on the thread noted:
 *   - `begin(rec)`, feeder, once before the first cut;
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
        stage(rec, boundaryAtEnd(rec), nullptr, nullptr);
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

    std::vector<CutSegment> staging_;  ///< feeder-owned accumulation
    std::vector<CutSegment> flushing_; ///< flusher-owned batch
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
            stage(rec, boundaryAtCheckpoint(rec, ckpt, fed_),
                  fed_ > 0 ? &rec.checkpoints[fed_ - 1] : nullptr, &ckpt);
            ++fed_;
        }
    }

    /**
     * Cut the segment up to @p hi that ends at checkpoint @p end
     * (nullptr for the tail); @p prev is the checkpoint before it.
     * The end image is encoded once, as the chain stores it: a
     * keyframe at a chain head, else the node's delta on @p prev.
     */
    void
    stage(const Recording &rec, Boundary hi, const SystemCheckpoint *prev,
          const SystemCheckpoint *end)
    {
        CutSegment seg;
        seg.index = cut_;
        seg.startGcc = last_.gcc;
        seg.endGcc = hi.gcc;
        seg.raw = buildSegmentPayload(rec, last_, hi);
        if (end) {
            using serialize_detail::ImageKind;
            const bool keyframe =
                serialize_detail::storedAsKeyframe(prev, *end);
            seg.imageKind = static_cast<std::uint64_t>(
                keyframe ? ImageKind::kKeyframe : ImageKind::kDelta);
            seg.image = keyframe ? serialize_detail::encodeKeyframe(*end)
                                 : serialize_detail::encodeDelta(*prev, *end);
        }
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
        for (CutSegment &seg : flushing_)
            tasks.push_back([&seg] {
                seg.comp = compressPayload(seg.raw);
                seg.header = recordHeader(seg);
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
