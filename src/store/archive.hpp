/**
 * @file
 * Recording archive: a segmented, compressed, checkpoint-indexed
 * container, and the one file a DeLorean recording is saved as
 * (saveRecording, core/serialize.hpp).
 *
 * Replaying the interval I(n, m) should not pay for loading and
 * parsing the whole run, so the archive (.dla) cuts the recording into
 * *segments* at system-checkpoint GCC boundaries and stores each as
 * one *record*, the same record a ring file holds (store/ring); a run
 * without checkpoints is one segment:
 *
 *   file   := header  record*  footer  trailer
 *   header := magic "DeLoArcv" (u64)  version (u64)
 *   record := magic "DeLoSeg." (u64)  index  startGcc  endGcc
 *             imageKind (0 none, 1 keyframe, 2 delta)  imageBytes
 *             imageCrc32  rawBytes  compBytes  payloadCrc32
 *             headerCrc32                      -- 11 u64s
 *             image [imageBytes]               -- stored as encoded
 *             payload [compBytes]              -- LZ77-compressed
 *   footer := run metadata (machine, mode, app, seed, iterations),
 *             then the record index: clean flag (1), record count,
 *             (file offset, bytes) per record, final statistics —
 *             the layouts ring.meta and ring.index use; no images
 *   trailer:= footerOffset (u64)  footerBytes (u64)
 *             footerCrc32 (u64)  endMagic "DeLoArcZ" (u64)
 *
 * Record i holds the log slices covering the GCC interval
 * (ckpt[i-1].gcc, ckpt[i].gcc] and the image of ckpt[i]; a final tail
 * record covers from the last checkpoint to the end of the run and
 * holds no image. Every image, payload and record header carries its
 * CRC-32, and the footer the CRC-32 of its bytes, so corruption is
 * *detected* — a typed ArchiveError naming the section and segment —
 * never a crash or a silent divergence. The reader seeks to a
 * checkpoint in O(1) via the footer index and decodes only the
 * segments covering the requested interval.
 *
 * Checkpoint images form chains (core/checkpoint.hpp): a keyframe
 * holds the full image, and each following checkpoint is a delta
 * against the one before it until the chain's delta bytes would
 * exceed its keyframe's, where a new chain starts. Each image is
 * stored exactly once, in the record that ends at its checkpoint.
 */

#ifndef DELOREAN_STORE_ARCHIVE_HPP_
#define DELOREAN_STORE_ARCHIVE_HPP_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "common/errors.hpp"
#include "core/checkpoint.hpp"
#include "core/recording.hpp"
#include "store/mmap_file.hpp"

namespace delorean
{

class WorkerPool;

/**
 * Data-plane knobs for archive I/O.
 *
 * Segments are independent by construction, so their LZ77
 * compression (writer) and CRC-check + decompression + parse
 * (reader) fan out over a WorkerPool; commit order is always segment
 * order, so container bytes and reassembled recordings are identical
 * at any thread count. File-backed readers map the container once
 * and decode payloads straight out of the mapping, falling back to a
 * buffered read only when mapping fails or the platform has no mmap.
 */
struct ArchiveIoOptions
{
    /// Codec worker count; 0 resolves to defaultArchiveIoThreads().
    unsigned ioThreads = 0;

    /** ioThreads with the 0-default resolved. */
    unsigned resolvedIoThreads() const;
};

/**
 * Default codec worker count: the DELOREAN_JOBS environment variable
 * if set to a positive integer, otherwise the host's hardware
 * concurrency (at least 1) — the same resolution campaigns use.
 */
unsigned defaultArchiveIoThreads();

/** Structural region of an archive file an error can point at. */
enum class ArchiveSection
{
    kFileHeader,
    kSegment,
    kFooter,
    kTrailer,
    /// Not a byte region: an interval request named a checkpoint the
    /// container does not hold (see CheckpointOutOfRangeError).
    kCheckpointIndex,
};

const char *archiveSectionName(ArchiveSection section);

/**
 * A malformed or corrupted archive. Subtype of RecordingFormatError
 * so every existing handler that fences the loading layer also fences
 * archive parsing; carries the failing section and (for segment
 * errors) the zero-based segment id.
 */
class ArchiveError : public RecordingFormatError
{
  public:
    static constexpr std::size_t kNoSegment =
        static_cast<std::size_t>(-1);

    ArchiveError(ArchiveSection section, std::size_t segment,
                 const std::string &what);

    ArchiveSection section() const { return section_; }

    /** Failing segment id, or kNoSegment for non-segment sections. */
    std::size_t segment() const { return segment_; }

  private:
    ArchiveSection section_;
    std::size_t segment_;
};

/**
 * An interval request named a checkpoint outside what the container
 * holds — an index past the checkpoint count, an invalid (from, to)
 * pair, or (for ring archives) a cycle older than the retained
 * window. Distinct from corruption: the container is fine, the data
 * is simply not (or no longer) there, and callers can recover by
 * re-ranging the request against available().
 */
class CheckpointOutOfRangeError : public ArchiveError
{
  public:
    CheckpointOutOfRangeError(std::size_t index, std::size_t available,
                              const std::string &what);

    /** The checkpoint index (or count proxy) the request named. */
    std::size_t index() const { return index_; }

    /** Checkpoints the container actually holds. */
    std::size_t available() const { return available_; }

  private:
    std::size_t index_;
    std::size_t available_;
};

/**
 * One segment record, as a `.dla` record and a ring file store it:
 * the record header plus where the record lies.
 */
struct ArchiveSegmentInfo
{
    std::uint64_t index = 0; ///< cut order (a ring file's segment id)
    /// The segment's GCC interval (startGcc, endGcc]: endGcc is its
    /// end checkpoint's GCC, or the recording's final GCC for the tail.
    std::uint64_t startGcc = 0;
    std::uint64_t endGcc = 0;
    std::uint64_t fileOffset = 0;  ///< of the record (0 in a ring file)
    std::uint64_t recordBytes = 0; ///< header, image and payload
    /// The record holds its end checkpoint's image (false only for the
    /// tail), a keyframe or a delta on the start checkpoint. Readers
    /// rebuild it on demand: checkpointAt().
    bool hasCheckpoint = false;
    bool keyframe = false;       ///< the image heads a chain
    std::uint64_t imageBytes = 0;
    std::uint64_t imageCrc = 0;  ///< CRC-32 of the image bytes
    std::uint64_t rawBytes = 0;  ///< decompressed payload size
    std::uint64_t compBytes = 0; ///< stored payload size
    std::uint64_t crc32 = 0;     ///< CRC-32 of the compressed payload

    /** Record 0 or a keyframe image: a chain opens here. */
    bool chainHead() const { return index == 0 || keyframe; }

    std::uint64_t imageOffset() const;   ///< in the record's file
    std::uint64_t payloadOffset() const; ///< in the record's file
};

/**
 * The archive writer: emits records while the recording is still
 * being produced, overlapping LZ77 compression and file I/O with the
 * rest of the simulation.
 *
 * Wire onCheckpoint() into EngineOptions::onCheckpoint, or call only
 * close() on a finished recording (saveRecording() does exactly that);
 * both feed paths produce the same bytes. Each call consumes every
 * not-yet-streamed checkpoint and cuts the covered segments on the
 * caller's thread (the recording's logs keep growing after the hook
 * returns); compression, CRC and the file write run on a background
 * flusher that fans the codec work over a WorkerPool. Staging is
 * double-buffered, so the recording thread never blocks on the
 * codec. Each checkpoint's image goes out with the record that ends
 * at it, so close() keeps no images: it streams any remaining
 * checkpoints, cuts the tail segment, drains the flusher, and writes
 * the footer index and trailer. The ring writer (store/ring) runs on
 * the same pipeline and writes the same records.
 *
 * The bytes are identical at any ioThreads. Checkpoints must arrive
 * in ascending GCC order (the recorder emits them that way);
 * violations throw RecordingFormatError. A flusher failure is
 * rethrown from the next onCheckpoint()/close() call. A failed write
 * throws std::runtime_error("failed to write <name>"), @p name being
 * the stream's file path when it has one.
 */
class StreamingArchiveWriter
{
  public:
    explicit StreamingArchiveWriter(std::ostream &out,
                                    const ArchiveIoOptions &io = {},
                                    std::string name = "archive");
    ~StreamingArchiveWriter();

    StreamingArchiveWriter(const StreamingArchiveWriter &) = delete;
    StreamingArchiveWriter &
    operator=(const StreamingArchiveWriter &) = delete;

    /**
     * Stream every checkpoint of @p rec not yet consumed (usually
     * exactly one when wired into EngineOptions::onCheckpoint).
     * Segment payloads are cut synchronously; codec + I/O proceed in
     * the background.
     */
    void onCheckpoint(const Recording &rec);

    /**
     * Finish the archive: stream any remaining checkpoints, cut the
     * tail segment, drain all pending codec/write work, and emit the
     * footer index and trailer. Call once, with the finished
     * recording.
     */
    void close(const Recording &rec);

    /** True after a successful close(). */
    bool closed() const;

    /** Segments emitted so far (all staged + flushed ones). */
    std::size_t segmentCount() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

namespace serialize_detail
{
class ByteCursor;
class ChainDecoder;
}

namespace archive_detail
{

/**
 * End-of-run statistics a container stores once: the `.dla` footer and
 * a clean ring.index carry the same layout — the 8 headline engine
 * stats, the per-proc count, (perProcAcc, perProcRetired) per proc,
 * then finalMemHash.
 */
struct FinalStats
{
    EngineStats engine;
    std::vector<std::uint64_t> perProcAcc;
    std::vector<std::uint64_t> perProcRetired;
    std::uint64_t finalMemHash = 0;

    /** Serialize @p rec's final statistics. */
    static void put(std::ostream &out, const Recording &rec);

    /** Parse; the per-proc count must equal @p num_procs. */
    static FinalStats get(serialize_detail::ByteCursor &in,
                          unsigned num_procs);

    /**
     * Copy the fingerprint finals into @p rec, and the engine stats
     * too when @p engine_stats (whole-run reads; interval views leave
     * them zero).
     */
    void applyTo(Recording &rec, bool engine_stats) const;
};

/**
 * What ArchiveReader and RingArchiveReader share: the run metadata and
 * final statistics, the segment records, the checkpoint chains and
 * their memoized images, the codec pool, and the one interval
 * assembler behind both readers' readAll() and readInterval().
 * Checkpoint j is the image of record j, so the two containers index
 * their checkpoints alike. A container supplies the records
 * (indexSegments) and two fetchers — segment i's verified payload and
 * checkpoint j's stored image bytes — plus its own precondition
 * checks.
 *
 * Stored images are decoded into chain nodes (core/checkpoint.hpp)
 * chain by chain, walking on from the last decoded image of the
 * request's chain, or from its keyframe, and verified as they are
 * decoded (serialize_detail::ChainDecoder); no full memory table is
 * kept. A whole-run read decodes every chain, chains in parallel,
 * and its recording shares the decoded nodes. A delta whose base GCC
 * or memory hash disagrees is an ArchiveError naming its segment.
 *
 * Readers are not internally synchronized (the memoized images and
 * the codec pool are lazy mutable state): use one reader per thread.
 */
class ContainerReader
{
  public:
    static constexpr std::size_t kToEnd = static_cast<std::size_t>(-1);

    virtual ~ContainerReader();

    const MachineConfig &machine() const { return machine_; }
    const ModeConfig &mode() const { return mode_; }
    const std::string &appName() const { return app_name_; }
    std::uint64_t workloadSeed() const { return workload_seed_; }
    unsigned iterationsPercent() const { return iterations_percent_; }

    /**
     * Decodable replay starting points. Checkpoint i is the end
     * checkpoint of segments()[i], which says how it is stored.
     */
    std::size_t checkpointCount() const { return images_.size(); }

    /** GCCs of the decodable replay starting points, ascending. */
    std::vector<std::uint64_t> checkpointGccs() const;

    /** Checkpoint @p index (0-based, ascending GCC), decoded once. */
    const SystemCheckpoint &checkpointAt(std::size_t index) const;

    /** The segment records, in order (a ring's retained ones). */
    const std::vector<ArchiveSegmentInfo> &segments() const
    {
        return segments_;
    }

  protected:
    ContainerReader();
    // Out of line: the codec pool member is only forward-declared
    // here, so the special members must live where it is complete.
    ContainerReader(ContainerReader &&) noexcept;
    ContainerReader &operator=(ContainerReader &&) noexcept;

    /// Segment @p index's payload: CRC-checked, decoded, size-checked.
    virtual std::vector<std::uint8_t>
    segmentPayload(std::size_t index) const = 0;
    /// Checkpoint @p index's stored image (in range), a keyframe or a
    /// delta as segments_[index] says, of its imageBytes, in the
    /// container's mapping or read into @p buffer.
    virtual const std::uint8_t *
    storedImage(std::size_t index,
                std::vector<std::uint8_t> &buffer) const = 0;

    /** Read the run metadata putRunMeta wrote. */
    void getRunMeta(serialize_detail::ByteCursor &in);

    /**
     * Install @p segments, contiguous records in cut order of which
     * only the last may be a tail, and index their checkpoints.
     * Throws RecordingFormatError unless every chain is intact: the
     * first image is a keyframe and each delta's base is the
     * checkpoint before it.
     */
    void indexSegments(std::vector<ArchiveSegmentInfo> segments);

    /** Checkpoint @p index (in range), decoded on first use. */
    const SystemCheckpoint &image(std::size_t index) const;

    /** Typed rejection of an invalid (from, to) checkpoint pair. */
    void checkInterval(std::size_t from, std::size_t to) const;

    /**
     * The interval view readInterval() returns: checkpoint @p from
     * ends record from, so the interval's segments are from + 1
     * through @p to (or the tail).
     */
    Recording intervalView(std::size_t from, std::size_t to) const;

    /// assemble()'s @p from for a whole-run read.
    static constexpr std::size_t kWholeRun = kToEnd;

    /**
     * Decode segments [first, end) over the codec pool and append
     * them in order. A whole-run read (@p from == kWholeRun, first 0)
     * pushes checkpoint i after segment i and applies every final
     * statistic. An interval read starts from checkpoint @p from's
     * synthetic prefix and carries it (and checkpoint @p to, unless
     * kToEnd) as the view's checkpoints.
     */
    Recording assemble(std::size_t first, std::size_t end,
                       std::size_t from, std::size_t to) const;

    ArchiveIoOptions io_;
    MachineConfig machine_;
    ModeConfig mode_;
    std::string app_name_;
    std::uint64_t workload_seed_ = 0;
    unsigned iterations_percent_ = 100;
    FinalStats final_;
    std::vector<ArchiveSegmentInfo> segments_;
    /// Codec pool for multi-segment reads: built on the first batch
    /// of two or more segments, reused across reads on one reader.
    mutable std::unique_ptr<WorkerPool> pool_;
    /// Decoded checkpoints, one slot per checkpoint, filled on first
    /// use (sized once at open, so references stay valid).
    mutable std::vector<std::unique_ptr<const SystemCheckpoint>>
        images_;

  private:
    /** Decode stored image @p index, the next one on @p walk. */
    SystemCheckpoint decodeAt(serialize_detail::ChainDecoder &walk,
                              std::size_t index) const;
    /** Decode and memoize checkpoints [head, end) of one chain. */
    void decodeChain(std::size_t head, std::size_t end) const;
};

} // namespace archive_detail

/**
 * Random-access archive reader.
 *
 * Construction reads the index, not the images: it checks the header
 * and trailer, CRC-checks the footer, parses its O(#segments) index
 * entries, and checks each record they locate (archive_detail::
 * scanRecord): its header CRC and sizes, its image's CRC, and a
 * structural walk of the image (GCC, context count, base GCC,
 * word-list extents, all checked against the header and the chain),
 * but no memory image is built.
 *
 * checkpointAt(), readInterval() and readAll() decode an image on
 * first use, straight out of the container bytes, and memoize it, so
 * a seek pays for one chain prefix (at most about twice one
 * keyframe's bytes) and the one delta after. Segment payloads are
 * CRC-checked and decoded only when a read needs them. All failures
 * surface as ArchiveError; after open, only a chain's content (word
 * order, memory hash) and a payload can fail.
 */
class ArchiveReader : public archive_detail::ContainerReader
{
  public:
    static ArchiveReader fromBytes(std::vector<std::uint8_t> bytes,
                                   const ArchiveIoOptions &io = {});

    /**
     * Open @p path: mmap'ed zero-copy when the platform cooperates,
     * a buffered read when mapping fails. Both paths parse, CRC-check,
     * and fail identically.
     */
    static ArchiveReader fromFile(const std::string &path,
                                  const ArchiveIoOptions &io = {});

    ArchiveReader(ArchiveReader &&) noexcept;
    ArchiveReader &operator=(ArchiveReader &&) noexcept;
    ~ArchiveReader() override;

    /** True when this reader decodes straight out of an mmap. */
    bool usingMmap() const { return map_.mapped(); }

    /**
     * Reassemble the complete Recording. Byte-identical to the
     * archived one: saveRecording(readAll()) equals saveRecording()
     * of the original. Decodes (and CRC-checks) every segment.
     */
    Recording readAll() const;

    /**
     * Interval view for replaying I(ckpt[from].gcc, end) — or, when
     * @p to != kToEnd, the bounded I(ckpt[from].gcc, ckpt[to].gcc).
     * Only the segments covering the interval are decoded; the log
     * prefix before the start checkpoint is replaced by synthetic
     * filler the replay skip logic consumes without ever touching
     * real data. The returned Recording carries the start checkpoint
     * at checkpoints[0] (hand it to Replayer::replayInterval with
     * checkpoint_index 0) and, when bounded, the stop checkpoint at
     * checkpoints[1] (pass &rec.checkpoints[1] as the stop).
     */
    Recording readInterval(std::size_t from,
                           std::size_t to = kToEnd) const;

  private:
    ArchiveReader() = default;

    void parse();
    std::vector<std::uint8_t>
    segmentPayload(std::size_t index) const override;
    const std::uint8_t *
    storedImage(std::size_t index,
                std::vector<std::uint8_t> &buffer) const override;

    /// Container bytes: owned_ (fromBytes / buffered fromFile) or
    /// map_ (zero-copy fromFile); data_/size_ view whichever is live.
    std::vector<std::uint8_t> owned_;
    MappedFile map_;
    const std::uint8_t *data_ = nullptr;
    std::size_t size_ = 0;
};

} // namespace delorean

#endif // DELOREAN_STORE_ARCHIVE_HPP_
