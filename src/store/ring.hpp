/**
 * @file
 * Rotating segmented ring archive: always-on recording with a bounded
 * disk budget and a bounded replay-start lag.
 *
 * The batch `.dla` container (store/archive) holds a whole run; the
 * ring holds a sliding window of one. A ring is a directory:
 *
 *   ring.meta       one-time metadata (machine, mode, app, knobs)
 *   seg-<id>        one file per checkpoint interval, self-describing
 *   ring.index      retained-set snapshot, atomically rewritten
 *
 * Each segment file carries its own header — magic, segment id, GCC
 * interval, the full START and END system checkpoints, payload sizes
 * and CRCs — so any contiguous run of surviving segment files is
 * independently decodable and *validatable* without a footer: replay
 * can start at any retained segment's start checkpoint and every
 * bounded interval is judged against the end checkpoint it runs to.
 * (This inverts the `.dla` layout, where checkpoints live in a footer
 * written last; a footer is exactly what a crashed recorder never
 * wrote.) The payload bytes for a given checkpoint interval are
 * byte-identical to the batch archive's — both containers share the
 * slice builders in store/archive_detail.hpp.
 *
 * Availability guarantee (the checkpoint-placement contract): with
 * checkpoints every P commits, a segment spans at most P commits and
 * becomes durable when the next checkpoint cuts it. At any frontier
 * GCC g >= P the newest durable segment's start checkpoint is at
 * most 2P-1 commits behind g (worst case: the in-progress segment is
 * one commit short of cutting, so the newest *complete* segment
 * started two periods ago). Eviction never removes the newest
 * complete segment, so a decodable replay starting point always
 * exists within the last T cycles provided T >= 2P —
 * RingOptions::validate() rejects anything tighter with a typed
 * ConfigError. The disk budget bounds retained bytes best-effort:
 * oldest whole segments are evicted first, and when the protected
 * newest segment alone exceeds the budget the writer keeps it and
 * counts a budgetOverrun instead of giving up the guarantee.
 *
 * Crash consistency: segment files are written append-only in id
 * order and ring.index is replaced via write-to-temp + rename. After
 * a crash (torn tail segment, missing or stale index),
 * RingArchiveReader::open falls back to a directory scan, drops
 * structurally invalid files, and retains the newest contiguous run
 * of valid segments — salvage, never a crash or a silent wrong
 * answer.
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
    /// Retained-bytes target. Oldest segments are evicted once the
    /// live set exceeds this; the newest complete segment is never
    /// evicted (see budgetOverruns).
    std::uint64_t budgetBytes = 4u << 20;

    /// Commits between checkpoints — the placement period P the
    /// recorder must be driven with (Recorder::record's
    /// checkpoint_period). Segments are cut at every checkpoint.
    std::uint64_t checkpointPeriod = 50;

    /// Replay-start lag bound T, in commits: a decodable starting
    /// point must exist within the last T commits. 0 resolves to the
    /// tightest feasible bound, 2 * checkpointPeriod.
    std::uint64_t maxReplayLag = 0;

    /// Codec parallelism for segment compress/decode.
    ArchiveIoOptions io{};

    /** maxReplayLag with the 0-default resolved (2P). */
    std::uint64_t resolvedLag() const;

    /**
     * Reject infeasible configurations with a typed ConfigError:
     * zero period or budget, or maxReplayLag < 2 * checkpointPeriod
     * (no placement of period-P checkpoints can keep a durable start
     * point closer than 2P-1 commits behind the frontier).
     */
    void validate() const;
};

/** Where one compressed checkpoint image lies in a segment file. */
struct RingBlobInfo
{
    std::uint64_t fileOffset = 0;
    std::uint64_t rawBytes = 0;  ///< serialized image size
    std::uint64_t compBytes = 0; ///< stored (LZ77) size
    std::uint64_t crc32 = 0;     ///< CRC-32 of the stored bytes
};

/** Everything known about one retained ring segment. */
struct RingSegmentInfo
{
    std::uint64_t segId = 0;   ///< global monotone cut counter
    std::uint64_t startGcc = 0;
    std::uint64_t endGcc = 0;
    std::uint64_t rawBytes = 0;  ///< decompressed payload size
    std::uint64_t compBytes = 0; ///< stored payload size
    std::uint64_t crc32 = 0;     ///< CRC-32 of the compressed payload
    std::uint64_t fileBytes = 0; ///< whole segment file size
    bool isTail = false;         ///< final segment of a clean close
    bool hasStartCheckpoint = false; ///< false only for segment 0
    bool hasEndCheckpoint = false;   ///< false only for the tail
    /// The checkpoint image blobs (valid when the matching has* flag
    /// is set). Readers decode them on demand:
    /// RingArchiveReader::checkpointAt().
    RingBlobInfo startBlob;
    RingBlobInfo endBlob;
};

/** Writer-side counters (RingArchiveWriter::stats). */
struct RingWriterStats
{
    std::uint64_t segmentsCut = 0;
    std::uint64_t segmentsEvicted = 0;
    std::uint64_t liveBytes = 0;     ///< retained segment files
    std::uint64_t bytesWritten = 0;  ///< cumulative, incl. evicted
    /// Commits the live set exceeded the budget with nothing left to
    /// evict (the protected newest segment alone is over budget).
    std::uint64_t budgetOverruns = 0;
    /// Worst observed replay-start lag, in commits: at the moment a
    /// segment completed, how far its end ran ahead of the then-newest
    /// durable start checkpoint. Bounded by 2P - 1 <= T.
    std::uint64_t worstStartLag = 0;
    /// Largest observed checkpoint spacing (commits).
    std::uint64_t maxCheckpointSpacing = 0;
};

/**
 * Streams a recording into a ring directory. Drive it exactly like
 * StreamingArchiveWriter: pass it as (or call it from) the engine's
 * onCheckpoint hook while recording, then close(rec) with the
 * finished recording. Segment payload build runs on the caller's
 * thread; compression, file writes, eviction and index rewrites run
 * on a background flusher so recording never blocks on the disk.
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
    /// non-contiguous or duplicate).
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
 * and makes every check that decides salvage: magics, sizes, CRCs of
 * the header, the checkpoint blobs, and each checkpoint's GCC and
 * context count against the segment header (read by decoding only
 * the head of the image blob). Parsing is O(#segments); no memory
 * image is built. CRC still covers every blob byte, and the payload
 * CRC waits for the first read of the segment, as before.
 *
 * checkpointGccs() and newestCheckpointAtOrBefore() answer from the
 * segment headers. checkpointAt(), readInterval() and readAll() decode
 * an image on first use (re-reading and re-CRCing its blob) and
 * memoize it; a failure there is an ArchiveError naming the segment.
 * Readers are not internally synchronized: use one per thread.
 */
class RingArchiveReader
{
  public:
    static constexpr std::size_t kToEnd = static_cast<std::size_t>(-1);

    /** True when @p dir has a plausible ring.meta. */
    static bool looksLikeRing(const std::string &dir);

    static RingArchiveReader open(const std::string &dir,
                                  const ArchiveIoOptions &io = {});

    RingArchiveReader(RingArchiveReader &&) noexcept;
    RingArchiveReader &operator=(RingArchiveReader &&) noexcept;
    ~RingArchiveReader();

    const MachineConfig &machine() const { return machine_; }
    const ModeConfig &mode() const { return mode_; }
    const std::string &appName() const { return app_name_; }
    std::uint64_t workloadSeed() const { return workload_seed_; }
    unsigned iterationsPercent() const { return iterations_percent_; }
    /** The options the ring was recorded with (from ring.meta). */
    const RingOptions &options() const { return opts_; }

    const RingRecoveryInfo &recovery() const { return recovery_; }

    /** Retained segments, ascending segId (contiguous). */
    const std::vector<RingSegmentInfo> &segments() const
    {
        return segments_;
    }

    /** Retained window in GCC space: (startGcc, endGcc]. */
    std::uint64_t startGcc() const;
    std::uint64_t endGcc() const;

    /** Decodable replay starting points, ascending GCC. */
    std::size_t checkpointCount() const;
    std::vector<std::uint64_t> checkpointGccs() const;
    const SystemCheckpoint &checkpointAt(std::size_t index) const;

    /**
     * Index of the newest checkpoint with GCC <= @p cycle — the
     * time-travel seek. @throws CheckpointOutOfRangeError when
     * @p cycle predates the retained window.
     */
    std::size_t newestCheckpointAtOrBefore(std::uint64_t cycle) const;

    /**
     * Reconstruct the interval recording between checkpoints @p from
     * and @p to (indices into the retained checkpoint list), exactly
     * like ArchiveReader::readInterval — byte-identical to the batch
     * archive's view of the same GCC interval. @p to == kToEnd runs
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

    std::vector<std::uint8_t> segmentPayload(std::size_t pos) const;
    /// GCC of boundary @p b (0..segments().size()).
    std::uint64_t boundaryGcc(std::size_t b) const;
    /// Checkpoint @p index (in range), decoded on first use.
    const SystemCheckpoint &image(std::size_t index) const;

    std::string dir_;
    ArchiveIoOptions io_;
    RingOptions opts_;
    MachineConfig machine_;
    ModeConfig mode_;
    std::string app_name_;
    std::uint64_t workload_seed_ = 0;
    unsigned iterations_percent_ = 100;
    RingRecoveryInfo recovery_;
    std::vector<RingSegmentInfo> segments_;
    std::vector<std::string> seg_paths_;      ///< parallel to segments_
    std::vector<std::uint64_t> payload_off_;  ///< parallel to segments_
    /// Boundary index (0..segments count) of each checkpoint.
    std::vector<std::size_t> ckpt_boundary_;
    /// Final stats (clean rings only): engine stats + fingerprint.
    std::uint64_t stats_[8] = {};
    std::vector<std::uint64_t> per_proc_acc_;
    std::vector<std::uint64_t> per_proc_retired_;
    std::uint64_t final_mem_hash_ = 0;
    /// Codec pool, built by the first read of two or more segments.
    mutable std::unique_ptr<WorkerPool> pool_;
    /// Decoded images, one slot per checkpoint, filled on first use
    /// (never resized after open, so references stay valid).
    mutable std::vector<std::unique_ptr<const SystemCheckpoint>>
        images_;
};

} // namespace delorean

#endif // DELOREAN_STORE_RING_HPP_
