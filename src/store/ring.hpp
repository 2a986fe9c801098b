/**
 * @file
 * Rotating segmented ring archive: always-on recording with a bounded
 * disk budget and a bounded replay-start lag.
 *
 * The `.dla` container (store/archive) holds a whole run; the ring
 * holds a sliding window of one. A ring is a directory:
 *
 *   ring.meta       one-time metadata (machine, mode, app, knobs)
 *   seg-<id>        one file per checkpoint interval, self-describing
 *   ring.index      retained-set snapshot, atomically rewritten
 *
 * A segment file is exactly one segment record, byte-identical to the
 * `.dla`'s record of the same interval (store/archive.hpp): a header
 * with CRCs, the image of the checkpoint the segment ends at, then
 * the LZ77-compressed payload. The image is stored there and nowhere
 * else: a keyframe when the checkpoint heads a chain
 * (core/checkpoint.hpp), else a delta on the segment's start
 * checkpoint, the end checkpoint of the file before. A file whose
 * image is a keyframe, and segment 0, is a *chain head file*; the
 * files after it up to the next one make up its chain. Any contiguous
 * run of surviving files that opens with a chain head file is
 * independently decodable and *validatable* without a footer (a
 * footer is exactly what a crashed recorder never wrote): replay can
 * start at any retained checkpoint, every file's end checkpoint, and
 * every bounded interval is judged against the end checkpoint it runs
 * to. ring.meta and ring.index use the `.dla` footer's metadata and
 * index layouts, and both readers reassemble through ContainerReader.
 *
 * Availability guarantee (the checkpoint-placement contract): with
 * checkpoints every P commits, a segment spans at most P commits, and
 * its file, written when the checkpoint it ends at cuts it, makes
 * that checkpoint durable. At any frontier GCC g >= P the newest
 * durable checkpoint is therefore at most P commits behind g (worst
 * case: the in-progress segment is one commit short of cutting).
 * Eviction never removes the chain holding the newest complete
 * segment, nor the chain before it while the newest holds one
 * checkpoint, so that checkpoint stays decodable and a replay
 * starting point always exists within the last T = 2P commits
 * (RingOptions::resolvedLag()), with a period to spare. The disk
 * budget bounds retained bytes best-effort: oldest whole chains are
 * evicted first, and when the protected chains alone exceed the
 * budget the writer keeps them and counts a budgetOverrun instead of
 * giving up the guarantee.
 *
 * Crash consistency: segment files are written append-only in id
 * order and ring.index is replaced via write-to-temp + rename. After
 * a crash (torn tail segment, missing or stale index),
 * RingArchiveReader::open falls back to a directory scan, drops
 * structurally invalid files, and retains the newest contiguous run
 * of valid segments from its first chain head file on — salvage,
 * never a crash or a silent wrong answer. A torn newest file costs
 * only that file: the file before it holds its own end checkpoint.
 */

#ifndef DELOREAN_STORE_RING_HPP_
#define DELOREAN_STORE_RING_HPP_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/recording.hpp"
#include "store/archive.hpp"

namespace delorean
{

/** Configuration of a ring archive. */
struct RingOptions
{
    /// Retained-bytes target. Oldest chains of segments are evicted
    /// once the live set exceeds this; the chain holding the newest
    /// complete segment is never evicted, nor the chain before it
    /// while the newest holds one checkpoint (see budgetOverruns).
    std::uint64_t budgetBytes = 4u << 20;

    /// Commits between checkpoints — the placement period P the
    /// recorder must be driven with (Recorder::record's
    /// checkpoint_period). Segments are cut at every checkpoint.
    std::uint64_t checkpointPeriod = 50;

    /// Codec parallelism for segment compress/decode.
    ArchiveIoOptions io{};

    /**
     * Replay-start lag bound T = 2 * checkpointPeriod, in commits: a
     * decodable starting point exists within the last T commits. It
     * follows from checkpoint placement alone (a checkpoint becomes
     * durable with the file of the segment that ends at it, at most
     * P commits behind the frontier), so it is not a knob.
     */
    std::uint64_t resolvedLag() const;

    /**
     * Reject infeasible configurations with a typed ConfigError: zero
     * period or budget, or an implausibly large period.
     */
    void validate() const;
};

/** Writer-side counters (RingArchiveWriter::stats). */
struct RingWriterStats
{
    std::uint64_t segmentsCut = 0;
    std::uint64_t segmentsEvicted = 0;
    std::uint64_t liveBytes = 0;     ///< retained segment files
    std::uint64_t bytesWritten = 0;  ///< cumulative, incl. evicted
    /// Commits the live set exceeded the budget with nothing left to
    /// evict: the protected newest chain alone is over budget, or
    /// with the chain before it while the newest holds one checkpoint.
    std::uint64_t budgetOverruns = 0;
    /// Worst observed replay-start lag, in commits: at the moment a
    /// segment completed, how far its end ran ahead of the then-newest
    /// durable checkpoint (the previous file's end checkpoint).
    /// Bounded by the checkpoint spacing P <= T.
    std::uint64_t worstStartLag = 0;
    /// Largest observed checkpoint spacing (commits).
    std::uint64_t maxCheckpointSpacing = 0;
};

/**
 * Streams a recording into a ring directory. Drive it exactly like
 * StreamingArchiveWriter: pass it as (or call it from) the engine's
 * onCheckpoint hook while recording, then close(rec) with the
 * finished recording. Both run on the same feeder/flusher pipeline:
 * segment payload build runs on the caller's thread; compression,
 * file writes, eviction and index rewrites run on a background
 * flusher so recording never blocks on the disk.
 */
class RingArchiveWriter
{
  public:
    /**
     * @throws ConfigError when @p opts is infeasible (validate()).
     * The directory is created if absent; stale ring files from a
     * previous run in the same directory are removed.
     */
    RingArchiveWriter(const std::string &dir, const RingOptions &opts);
    ~RingArchiveWriter();

    RingArchiveWriter(const RingArchiveWriter &) = delete;
    RingArchiveWriter &operator=(const RingArchiveWriter &) = delete;

    /** EngineOptions::onCheckpoint-compatible feed. */
    void onCheckpoint(const Recording &rec);

    /**
     * Cut the tail segment, drain the flusher and write the clean
     * index (final stats included). The writer is unusable after.
     */
    void close(const Recording &rec);

    bool closed() const;

    const std::string &directory() const;

    RingWriterStats stats() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/** Batch convenience: feed a finished recording and close. */
RingWriterStats writeRing(const Recording &rec, const std::string &dir,
                          const RingOptions &opts);

/** How RingArchiveReader::open arrived at the retained set. */
struct RingRecoveryInfo
{
    /// ring.index was present, intact and agreed with the scan.
    bool usedIndex = false;
    /// Clean close: tail segment retained and final stats available
    /// (unbounded reads and readAll work).
    bool clean = false;
    /// Segment files dropped during salvage (torn, corrupt,
    /// non-contiguous, duplicate, or before the first chain head).
    std::size_t droppedSegments = 0;
    /// Human-readable salvage notes, deterministic order.
    std::vector<std::string> notes;
};

/**
 * Reads a ring directory, recovering the retained window even after
 * a crash. All failure modes are typed: a missing or corrupt
 * container raises ArchiveError, an interval request outside the
 * retained window raises CheckpointOutOfRangeError.
 *
 * open() reads the index, not the images. It scans every segment file
 * and makes every check that decides salvage (archive_detail::
 * scanRecord): magic, sizes, the header and image CRCs, and each
 * image's GCC, context count and delta base GCC against the record
 * header, by a structural walk of the image. Parsing is O(#segments);
 * no memory image is built. The payload CRC waits for the first read
 * of the segment.
 *
 * checkpointGccs() and newestCheckpointAtOrBefore() answer from the
 * record headers. checkpointAt(), readInterval() and readAll()
 * rebuild an image on first use from its chain (re-reading and
 * re-CRCing the images) and memoize it; a failure there, a delta
 * memory hash mismatch included, is an ArchiveError naming the
 * segment.
 * Readers are not internally synchronized: use one per thread.
 */
class RingArchiveReader : public archive_detail::ContainerReader
{
  public:
    /** True when @p dir has a plausible ring.meta. */
    static bool looksLikeRing(const std::string &dir);

    static RingArchiveReader open(const std::string &dir,
                                  const ArchiveIoOptions &io = {});

    RingArchiveReader(RingArchiveReader &&) noexcept;
    RingArchiveReader &operator=(RingArchiveReader &&) noexcept;
    ~RingArchiveReader() override;

    const RingRecoveryInfo &recovery() const { return recovery_; }

    /**
     * Retained window in GCC space, (startGcc, endGcc]: the commits
     * after the oldest retained checkpoint (after the oldest segment's
     * start when none is retained) up to the end of the newest segment.
     */
    std::uint64_t startGcc() const;
    std::uint64_t endGcc() const;

    /**
     * Index of the newest checkpoint with GCC <= @p cycle — the
     * time-travel seek. @throws CheckpointOutOfRangeError when
     * @p cycle predates the retained window.
     */
    std::size_t newestCheckpointAtOrBefore(std::uint64_t cycle) const;

    /**
     * Reconstruct the interval recording between checkpoints @p from
     * and @p to (indices into the retained checkpoint list), exactly
     * like ArchiveReader::readInterval — byte-identical to the `.dla`
     * view of the same GCC interval. @p to == kToEnd runs
     * to the recording's end and requires a cleanly closed ring (the
     * final stats live in the clean index); bounded intervals work on
     * salvaged rings too.
     */
    Recording readInterval(std::size_t from,
                           std::size_t to = kToEnd) const;

    /**
     * Reconstruct the whole recording. Requires a cleanly closed ring
     * that still retains segment 0 (nothing evicted); a ring whose
     * history was evicted raises CheckpointOutOfRangeError.
     */
    Recording readAll() const;

  private:
    RingArchiveReader();

    std::vector<std::uint8_t>
    segmentPayload(std::size_t pos) const override;
    const std::uint8_t *
    storedImage(std::size_t index,
                std::vector<std::uint8_t> &buffer) const override;
    /// Read @p bytes at @p offset of retained file @p pos.
    std::vector<std::uint8_t> readRange(std::size_t pos,
                                        std::uint64_t offset,
                                        std::uint64_t bytes,
                                        const char *what) const;

    std::string dir_;
    RingRecoveryInfo recovery_;
    std::vector<std::string> seg_paths_; ///< parallel to segments()
};

} // namespace delorean

#endif // DELOREAN_STORE_RING_HPP_
