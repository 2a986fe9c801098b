#include "store/ring.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/errors.hpp"
#include "compress/lz77.hpp"
#include "core/serialize.hpp"
#include "core/serialize_detail.hpp"
#include "store/archive_detail.hpp"
#include "store/crc32.hpp"

namespace delorean
{

using serialize_detail::ByteCursor;
using serialize_detail::CheckpointExtent;
using serialize_detail::getMachine;
using serialize_detail::getMode;
using serialize_detail::getString;
using serialize_detail::getU64;
using serialize_detail::ImageKind;
using serialize_detail::putMachine;
using serialize_detail::putMode;
using serialize_detail::putString;
using serialize_detail::putU64;
using serialize_detail::scanImage;

using namespace archive_detail;

namespace
{

constexpr std::uint64_t kRingMetaMagic = 0x2E676E526F4C6544ull; // "DeLoRng."
constexpr std::uint64_t kRingSegMagic = 0x676553526F4C6544ull;  // "DeLoRSeg"
constexpr std::uint64_t kRingIdxMagic = 0x786449526F4C6544ull;  // "DeLoRIdx"
// v2: checkpoint images form chains — a segment file carries a start
// image only when its start checkpoint heads a chain (a keyframe), and
// its end image is a delta (a keyframe for segment 0).
// v3: images are encoded as gap lists and context diffs and stored
// raw (CRC-checked, no LZ77); the header blob gives each image's size
// and CRC.
constexpr std::uint64_t kRingVersion = 3;
/// Fixed meta/index preamble: magic, version, reserved, blob size,
/// blob CRC-32.
constexpr std::size_t kPreambleBytes = 40;
/// Segment preamble: magic, version, segId, header raw size, header
/// compressed size, header CRC-32 (of the compressed bytes). The
/// header blob is followed by the start- and end-checkpoint images it
/// describes (each stored raw with its CRC), then the LZ77-compressed
/// payload. The keyframe of a chain head is encoded with the segment
/// it closes and byte-reused as the start image of the next.
constexpr std::size_t kSegPreambleBytes = 48;
/// Header/meta/index blob size cap: fences OOM on garbage files.
constexpr std::uint64_t kMaxBlobBytes = 1ull << 30;
/// Sanity fence on index entry counts (mirrors the .dla segment cap).
constexpr std::uint64_t kMaxSegmentsPerRing = 1ull << 20;

std::string
segFileName(std::uint64_t id)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "seg-%012llu",
                  static_cast<unsigned long long>(id));
    return buf;
}

/** Write preamble + blob to @p path via temp + atomic rename. */
void
writeBlobFileAtomic(const std::string &path, std::uint64_t magic,
                    std::uint64_t seg_id, const std::string &blob)
{
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        putU64(out, magic);
        putU64(out, kRingVersion);
        putU64(out, seg_id);
        putU64(out, blob.size());
        putU64(out, crc32(reinterpret_cast<const std::uint8_t *>(
                              blob.data()),
                          blob.size()));
        out.write(blob.data(),
                  static_cast<std::streamsize>(blob.size()));
        // Close, check, then rename: the last buffer is flushed only
        // at close, and a failed flush must not replace the file.
        out.close();
        if (!out)
            throw std::runtime_error("failed to write " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
        throw std::runtime_error("failed to rename " + tmp + " to "
                                 + path);
}

/** Read a whole file; empty optional-style flag via @p ok. */
std::vector<std::uint8_t>
readWholeFile(const std::string &path, bool &ok)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        ok = false;
        return {};
    }
    // Block reads, not a byte iterator: segment files are read whole
    // at every open.
    std::vector<std::uint8_t> bytes;
    constexpr std::size_t kBlock = std::size_t{1} << 16;
    for (;;) {
        const std::size_t at = bytes.size();
        bytes.resize(at + kBlock);
        in.read(reinterpret_cast<char *>(bytes.data() + at),
                static_cast<std::streamsize>(kBlock));
        bytes.resize(at + static_cast<std::size_t>(in.gcount()));
        if (!in)
            break;
    }
    ok = !in.bad();
    return bytes;
}

/** Read @p n bytes at @p offset of @p path; false when short. */
bool
readFileRange(const std::string &path, std::uint64_t offset,
              std::uint64_t n, std::vector<std::uint8_t> &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    in.seekg(static_cast<std::streamoff>(offset));
    out.resize(static_cast<std::size_t>(n));
    in.read(reinterpret_cast<char *>(out.data()),
            static_cast<std::streamsize>(out.size()));
    return static_cast<std::uint64_t>(in.gcount()) == n;
}

} // namespace

// ----- options --------------------------------------------------------------

std::uint64_t
RingOptions::resolvedLag() const
{
    return 2 * checkpointPeriod;
}

void
RingOptions::validate() const
{
    if (checkpointPeriod == 0)
        throw ConfigError("ring checkpointPeriod must be positive");
    if (budgetBytes == 0)
        throw ConfigError("ring budgetBytes must be positive");
    if (checkpointPeriod > (1ull << 62))
        throw ConfigError("ring checkpointPeriod is implausibly large");
}

// ----- writer ---------------------------------------------------------------

/**
 * The ring's steps on the shared SegmentPipeline. The encode step
 * checksums the end checkpoint's images the feeder encoded; the
 * commit step writes one file per segment, evicts over-budget history
 * whole chains at a time and atomically rewrites the index. The mutex
 * only guards the live-set/stats snapshot that stats() may read while
 * the flusher runs.
 */
struct RingArchiveWriter::Impl
{
    /// One checkpoint image and its CRC.
    struct CkptBlob
    {
        std::string bytes;
        std::uint64_t crc = 0;
    };
    /// Staged ring segment. Its start image is not carried: it is by
    /// construction the keyframe of the previous segment's end
    /// checkpoint, when that heads a chain, which the flusher caches.
    struct Segment : CutSegment
    {
        CkptBlob endBlob; ///< delta (keyframe for segment 0)
        CkptBlob nextStart; ///< keyframe, when the end heads a chain
    };

    std::string dir;
    RingOptions opts;
    CkptBlob next_start; ///< flusher-owned carry across batches

    /// Retained on-disk segments, oldest first (flusher-owned; the
    /// mutex makes the snapshot readable from stats()).
    struct LiveSeg
    {
        std::uint64_t segId = 0;
        std::uint64_t fileBytes = 0;
        bool chainHead = false; ///< segment 0 or carries a start keyframe
    };
    mutable std::mutex mu;
    std::deque<LiveSeg> live;
    std::size_t live_heads = 0; ///< chain-head files in live
    std::size_t newest_chain_files = 0; ///< live files from its head
    RingWriterStats statsd;
    std::uint64_t newest_start_gcc = 0; ///< of newest durable segment
    bool have_durable = false;

    SegmentPipeline<Impl> pipeline; ///< last: see its doc

    Impl(std::string d, const RingOptions &o)
        : dir(std::move(d)), opts(o),
          pipeline(*this, "RingArchiveWriter", o.io)
    {
    }

    void
    begin(const Recording &rec)
    {
        namespace fs = std::filesystem;
        fs::create_directories(dir);
        // A ring directory belongs to one run: clear leftovers so a
        // reader never stitches two runs together.
        for (const auto &entry : fs::directory_iterator(dir)) {
            const std::string name = entry.path().filename().string();
            if (name == "ring.meta" || name == "ring.index"
                || name.rfind("seg-", 0) == 0
                || name.rfind("ring.", 0) == 0)
                fs::remove(entry.path());
        }
        std::ostringstream blob(std::ios::binary);
        putMachine(blob, rec.machine);
        putMode(blob, rec.mode);
        putString(blob, rec.appName);
        putU64(blob, rec.workloadSeed);
        putU64(blob, rec.iterationsPercent);
        putU64(blob, opts.budgetBytes);
        putU64(blob, opts.checkpointPeriod);
        putU64(blob, opts.resolvedLag());
        writeBlobFileAtomic(dir + "/ring.meta", kRingMetaMagic, 0,
                            std::move(blob).str());
    }

    void
    cut(const Recording &, const Boundary &, const Boundary &,
        const SystemCheckpoint *, Segment &)
    {
    }

    static CkptBlob
    checksummed(std::string image)
    {
        CkptBlob blob;
        blob.crc = crc32(reinterpret_cast<const std::uint8_t *>(image.data()),
                         image.size());
        blob.bytes = std::move(image);
        return blob;
    }

    /// Each image is checksummed exactly once, here: the end delta,
    /// and the keyframe of a chain head, which becomes the next
    /// segment's start blob (next_start carries it across batches).
    /// Segment 0's end checkpoint has nothing to diff against: its
    /// keyframe is both its end blob and segment 1's start blob.
    void
    encode(Segment &seg)
    {
        if (seg.tail)
            return;
        if (seg.end.headsChain())
            seg.nextStart = checksummed(std::move(seg.end.keyframe));
        seg.endBlob = seg.index == 0 ? seg.nextStart
                                     : checksummed(std::move(seg.end.delta));
        seg.end = CheckpointImages();
    }

    /**
     * Serialize one segment's self-describing header blob: the GCC
     * interval plus the sizes and CRCs of the checkpoint blobs and
     * payload that follow it in the file.
     */
    static std::string
    segmentHeaderBlob(const Segment &seg, const CkptBlob &start)
    {
        std::ostringstream blob(std::ios::binary);
        putU64(blob, seg.startGcc);
        putU64(blob, seg.endGcc);
        putU64(blob, seg.tail ? 1 : 0);
        const bool has_start = !start.bytes.empty();
        putU64(blob, has_start
                         ? static_cast<std::uint64_t>(ImageKind::kKeyframe)
                         : 0);
        if (has_start) {
            putU64(blob, start.bytes.size());
            putU64(blob, start.crc);
        }
        putU64(blob, seg.tail ? 0
                              : static_cast<std::uint64_t>(
                                  seg.index == 0 ? ImageKind::kKeyframe
                                                 : ImageKind::kDelta));
        if (!seg.tail) {
            putU64(blob, seg.endBlob.bytes.size());
            putU64(blob, seg.endBlob.crc);
        }
        putU64(blob, seg.raw.size());
        putU64(blob, seg.comp.size());
        putU64(blob, seg.crc);
        return std::move(blob).str();
    }

    /**
     * Rewrite ring.index (temp + rename). @p rec supplies the final
     * stats for the clean index written at close; nullptr writes a
     * progress snapshot.
     */
    void
    writeIndex(const Recording *rec)
    {
        std::ostringstream blob(std::ios::binary);
        putU64(blob, rec ? 1 : 0);
        {
            std::lock_guard<std::mutex> lock(mu);
            putU64(blob, live.size());
            for (const LiveSeg &seg : live) {
                putU64(blob, seg.segId);
                putU64(blob, seg.fileBytes);
            }
        }
        if (rec)
            FinalStats::put(blob, *rec);
        writeBlobFileAtomic(dir + "/ring.index", kRingIdxMagic, 0,
                            std::move(blob).str());
    }

    /**
     * Commit one file per segment in id order, evict over-budget
     * history and rewrite the index.
     */
    void
    commit(std::vector<Segment> &batch)
    {
        for (Segment &seg : batch) {
            // The start keyframe, when the start checkpoint heads a
            // chain; next_start is empty otherwise.
            const CkptBlob start = std::exchange(next_start, CkptBlob());
            const std::string blob = segmentHeaderBlob(seg, start);
            const std::vector<std::uint8_t> hcomp =
                compressPayload(blob);
            const std::string path = dir + "/" + segFileName(seg.index);
            {
                // Written in place, not via rename: only the newest
                // file can ever be torn, which is exactly the crash
                // shape the reader's salvage path handles.
                std::ofstream out(path,
                                  std::ios::binary | std::ios::trunc);
                putU64(out, kRingSegMagic);
                putU64(out, kRingVersion);
                putU64(out, seg.index);
                putU64(out, blob.size());
                putU64(out, hcomp.size());
                putU64(out, crc32(hcomp.data(), hcomp.size()));
                const auto put = [&out](const auto &b) {
                    out.write(reinterpret_cast<const char *>(b.data()),
                              static_cast<std::streamsize>(b.size()));
                };
                put(hcomp);
                put(start.bytes);
                put(seg.endBlob.bytes);
                put(seg.comp);
                out.close();
                if (!out)
                    throw std::runtime_error("failed to write " + path);
            }
            const std::uint64_t file_bytes =
                kSegPreambleBytes + hcomp.size() + start.bytes.size()
                + seg.endBlob.bytes.size() + seg.comp.size();
            next_start = std::move(seg.nextStart);
            const bool chain_head = seg.index == 0 || !start.bytes.empty();

            std::vector<std::uint64_t> evict_ids;
            {
                std::lock_guard<std::mutex> lock(mu);
                // Lag bookkeeping: while this segment recorded, the
                // newest durable start was the previous segment's.
                const std::uint64_t lag =
                    seg.endGcc
                    - (have_durable ? newest_start_gcc : 0);
                statsd.worstStartLag =
                    std::max(statsd.worstStartLag, lag);
                statsd.maxCheckpointSpacing =
                    std::max(statsd.maxCheckpointSpacing,
                             seg.endGcc - seg.startGcc);
                have_durable = true;
                newest_start_gcc = seg.startGcc;

                live.push_back({seg.index, file_bytes, chain_head});
                live_heads += chain_head ? 1 : 0;
                newest_chain_files =
                    chain_head ? 1 : newest_chain_files + 1;
                // Its checkpoints: each file's start checkpoint, and
                // the newest file's end checkpoint unless a tail.
                const std::size_t newest_chain_ckpts =
                    newest_chain_files + (seg.tail ? 0 : 1);
                ++statsd.segmentsCut;
                statsd.bytesWritten += file_bytes;
                statsd.liveBytes += file_bytes;
                // Evict whole chains, oldest first: a file past its
                // chain's head is useless without it. The chain
                // holding this newest complete segment always stays,
                // so its start checkpoint stays decodable, and so does
                // the chain before it while the newest holds a single
                // checkpoint (a tail file heading its chain), so a
                // seekable interval always remains.
                while (statsd.liveBytes > opts.budgetBytes
                       && (live_heads > 2
                           || (live_heads == 2
                               && newest_chain_ckpts >= 2))) {
                    do {
                        const LiveSeg victim = live.front();
                        live.pop_front();
                        live_heads -= victim.chainHead ? 1 : 0;
                        statsd.liveBytes -= victim.fileBytes;
                        ++statsd.segmentsEvicted;
                        evict_ids.push_back(victim.segId);
                    } while (!live.front().chainHead);
                }
                if (statsd.liveBytes > opts.budgetBytes)
                    ++statsd.budgetOverruns;
            }
            for (const std::uint64_t id : evict_ids)
                std::remove((dir + "/" + segFileName(id)).c_str());

            std::vector<std::uint8_t>().swap(seg.comp);
            std::string().swap(seg.raw);
        }
        writeIndex(nullptr);
    }

    void finish(const Recording &rec) { writeIndex(&rec); }
};

RingArchiveWriter::RingArchiveWriter(const std::string &dir,
                                     const RingOptions &opts)
    : impl_(std::make_unique<Impl>(dir, opts))
{
    opts.validate();
}

RingArchiveWriter::~RingArchiveWriter() = default;

void
RingArchiveWriter::onCheckpoint(const Recording &rec)
{
    impl_->pipeline.onCheckpoint(rec);
}

void
RingArchiveWriter::close(const Recording &rec)
{
    impl_->pipeline.close(rec);
}

bool
RingArchiveWriter::closed() const
{
    return impl_->pipeline.closed();
}

const std::string &
RingArchiveWriter::directory() const
{
    return impl_->dir;
}

RingWriterStats
RingArchiveWriter::stats() const
{
    std::lock_guard<std::mutex> lock(impl_->mu);
    return impl_->statsd;
}

RingWriterStats
writeRing(const Recording &rec, const std::string &dir,
          const RingOptions &opts)
{
    RingArchiveWriter writer(dir, opts);
    writer.onCheckpoint(rec);
    writer.close(rec);
    return writer.stats();
}

// ----- reader ---------------------------------------------------------------

namespace
{

/** One scanned segment file before the contiguity walk. */
struct ScannedSegment
{
    RingSegmentInfo info;
    std::string path;
    std::uint64_t payloadOff = 0;
};

/**
 * Check one @p kind image blob in @p bytes without decoding its
 * memory: CRC, then a structural walk (scanImage) that must cover the
 * blob exactly and yields its GCC, context count and, for a delta,
 * base GCC, returned through @p image. False with @p why set when the
 * blob is corrupt.
 */
bool
checkCheckpointBlob(const std::vector<std::uint8_t> &bytes,
                    const RingBlobInfo &blob, ImageKind kind,
                    CheckpointExtent &image, std::string &why)
{
    const std::uint8_t *at = bytes.data() + blob.fileOffset;
    const std::size_t size = static_cast<std::size_t>(blob.bytes);
    if (crc32(at, size) != blob.crc32) {
        why = "checkpoint blob CRC mismatch";
        return false;
    }
    try {
        image = scanImage(kind, at, size);
    } catch (const RecordingFormatError &) {
        why = "malformed checkpoint blob";
        return false;
    }
    if (image.bytes != size) {
        why = "checkpoint blob size mismatch";
        return false;
    }
    return true;
}

/**
 * Parse one candidate segment file. Returns false with @p reason set
 * when the file is structurally invalid (torn, corrupt, or lying
 * about itself) — the salvage path drops it. Checkpoint images are
 * CRC-checked and their headers checked against the segment header;
 * their memory is decoded only on first use.
 */
bool
scanSegmentFile(const std::string &path, unsigned n,
                ScannedSegment &out, std::string &reason)
{
    bool ok = true;
    const std::vector<std::uint8_t> bytes = readWholeFile(path, ok);
    if (!ok) {
        reason = "unreadable";
        return false;
    }
    if (bytes.size() < kSegPreambleBytes) {
        reason = "shorter than a segment preamble";
        return false;
    }
    if (readU64At(bytes.data(), 0) != kRingSegMagic) {
        reason = "segment magic missing";
        return false;
    }
    if (readU64At(bytes.data(), 8) != kRingVersion) {
        reason = "unsupported segment version";
        return false;
    }
    const std::uint64_t seg_id = readU64At(bytes.data(), 16);
    const std::uint64_t blob_raw = readU64At(bytes.data(), 24);
    const std::uint64_t blob_comp = readU64At(bytes.data(), 32);
    const std::uint64_t blob_crc = readU64At(bytes.data(), 40);
    if (blob_raw > kMaxBlobBytes || blob_comp > kMaxBlobBytes
        || kSegPreambleBytes + blob_comp > bytes.size()) {
        reason = "torn header";
        return false;
    }
    if (crc32(bytes.data() + kSegPreambleBytes,
              static_cast<std::size_t>(blob_comp))
        != blob_crc) {
        reason = "header CRC mismatch";
        return false;
    }

    RingSegmentInfo info;
    info.segId = seg_id;
    RingBlobInfo &start = info.startBlob;
    RingBlobInfo &end = info.endBlob;
    std::uint64_t start_kind = 0;
    std::uint64_t end_kind = 0;
    try {
        const std::vector<std::uint8_t> blob = Lz77().decompress(
            bytes.data() + kSegPreambleBytes,
            static_cast<std::size_t>(blob_comp));
        if (blob.size() != blob_raw) {
            reason = "header decompressed size mismatch";
            return false;
        }
        ByteCursor in(blob.data(), blob.size());
        info.startGcc = getU64(in);
        info.endGcc = getU64(in);
        info.isTail = getU64(in) != 0;
        start_kind = getU64(in);
        info.hasStartCheckpoint = start_kind != 0;
        if (info.hasStartCheckpoint) {
            start.bytes = getU64(in);
            start.crc32 = getU64(in);
        }
        end_kind = getU64(in);
        info.hasEndCheckpoint = end_kind != 0;
        if (info.hasEndCheckpoint) {
            end.bytes = getU64(in);
            end.crc32 = getU64(in);
        }
        info.rawBytes = getU64(in);
        info.compBytes = getU64(in);
        info.crc32 = getU64(in);
    } catch (const RecordingFormatError &) {
        reason = "malformed header";
        return false;
    }

    // Everything the header promises must fit the file exactly:
    // header, start blob, end blob, payload, nothing else. Every size
    // is capped first, so the sum below cannot wrap.
    if (start.bytes > kMaxBlobBytes || end.bytes > kMaxBlobBytes) {
        reason = "implausible checkpoint blob size";
        return false;
    }
    if (info.rawBytes > kMaxBlobBytes || info.compBytes > kMaxBlobBytes) {
        reason = "implausible payload size";
        return false;
    }
    std::uint64_t off = kSegPreambleBytes + blob_comp;
    if (off + start.bytes + end.bytes + info.compBytes != bytes.size()) {
        reason = "file size disagrees with the header (torn payload?)";
        return false;
    }
    // A start image is always a chain head's keyframe; the end image
    // is a delta on the start checkpoint, except segment 0's, which
    // has no start checkpoint to diff against and is a keyframe.
    const std::uint64_t keyframe =
        static_cast<std::uint64_t>(ImageKind::kKeyframe);
    const ImageKind want_end =
        seg_id == 0 ? ImageKind::kKeyframe : ImageKind::kDelta;
    if (info.hasStartCheckpoint && start_kind != keyframe) {
        reason = "start checkpoint is not a keyframe";
        return false;
    }
    if (info.hasEndCheckpoint
        && end_kind != static_cast<std::uint64_t>(want_end)) {
        reason = "end checkpoint kind disagrees with the id";
        return false;
    }
    CheckpointExtent start_image, end_image;
    if (info.hasStartCheckpoint) {
        start.fileOffset = off;
        if (!checkCheckpointBlob(bytes, start, ImageKind::kKeyframe,
                                 start_image, reason))
            return false;
        off += start.bytes;
    }
    if (info.hasEndCheckpoint) {
        end.fileOffset = off;
        if (!checkCheckpointBlob(bytes, end, want_end, end_image, reason))
            return false;
        off += end.bytes;
    }

    if (info.endGcc < info.startGcc
        || (!info.isTail && info.endGcc <= info.startGcc)) {
        reason = "GCC interval not ascending";
        return false;
    }
    if (info.hasStartCheckpoint && seg_id == 0) {
        reason = "start-checkpoint presence disagrees with the id";
        return false;
    }
    if (info.hasEndCheckpoint == info.isTail) {
        reason = "end-checkpoint presence disagrees with the tail flag";
        return false;
    }
    if (info.hasStartCheckpoint
        && (start_image.gcc != info.startGcc
            || start_image.contexts != n)) {
        reason = "start checkpoint disagrees with the header";
        return false;
    }
    if (info.hasEndCheckpoint
        && (end_image.gcc != info.endGcc || end_image.contexts != n
            || (want_end == ImageKind::kDelta
                && end_image.baseGcc != info.startGcc))) {
        reason = "end checkpoint disagrees with the header";
        return false;
    }
    info.fileBytes = bytes.size();
    out.info = std::move(info);
    out.path = path;
    out.payloadOff = off;
    return true;
}

} // namespace

RingArchiveReader::RingArchiveReader() = default;
RingArchiveReader::RingArchiveReader(RingArchiveReader &&) noexcept =
    default;
RingArchiveReader &
RingArchiveReader::operator=(RingArchiveReader &&) noexcept = default;
RingArchiveReader::~RingArchiveReader() = default;

bool
RingArchiveReader::looksLikeRing(const std::string &dir)
{
    std::ifstream in(dir + "/ring.meta", std::ios::binary);
    std::uint8_t head[8];
    in.read(reinterpret_cast<char *>(head), 8);
    return in && readU64At(head, 0) == kRingMetaMagic;
}

RingArchiveReader
RingArchiveReader::open(const std::string &dir,
                        const ArchiveIoOptions &io)
{
    RingArchiveReader r;
    r.dir_ = dir;
    r.io_ = io;

    // ----- ring.meta ------------------------------------------------
    bool ok = true;
    const std::vector<std::uint8_t> meta =
        readWholeFile(dir + "/ring.meta", ok);
    if (!ok)
        throw ArchiveError(ArchiveSection::kFileHeader,
                           ArchiveError::kNoSegment,
                           "cannot read " + dir
                               + "/ring.meta (not a ring archive?)");
    if (meta.size() < kPreambleBytes
        || readU64At(meta.data(), 0) != kRingMetaMagic)
        throw ArchiveError(ArchiveSection::kFileHeader,
                           ArchiveError::kNoSegment,
                           "not a DeLorean ring archive");
    if (readU64At(meta.data(), 8) != kRingVersion)
        throw ArchiveError(ArchiveSection::kFileHeader,
                           ArchiveError::kNoSegment,
                           "unsupported ring version "
                               + std::to_string(
                                   readU64At(meta.data(), 8)));
    const std::uint64_t meta_blob = readU64At(meta.data(), 24);
    if (meta_blob > kMaxBlobBytes
        || kPreambleBytes + meta_blob != meta.size())
        throw ArchiveError(ArchiveSection::kFileHeader,
                           ArchiveError::kNoSegment,
                           "ring.meta truncated");
    if (crc32(meta.data() + kPreambleBytes,
              static_cast<std::size_t>(meta_blob))
        != readU64At(meta.data(), 32))
        throw ArchiveError(ArchiveSection::kFileHeader,
                           ArchiveError::kNoSegment,
                           "ring.meta CRC mismatch");
    try {
        std::istringstream in(
            std::string(reinterpret_cast<const char *>(meta.data())
                            + kPreambleBytes,
                        static_cast<std::size_t>(meta_blob)),
            std::ios::binary);
        r.machine_ = getMachine(in);
        r.mode_ = getMode(in);
        validateRecordingConfigs(r.machine_, r.mode_);
        r.app_name_ = getString(in);
        r.workload_seed_ = getU64(in);
        r.iterations_percent_ = static_cast<unsigned>(getU64(in));
        // The budget, the period and T = 2P, as the writer recorded
        // them; the reader needs none of them.
        for (int knob = 0; knob < 3; ++knob)
            getU64(in);
    } catch (const ArchiveError &) {
        throw;
    } catch (const RecordingFormatError &e) {
        throw ArchiveError(ArchiveSection::kFileHeader,
                           ArchiveError::kNoSegment, e.what());
    }
    const unsigned n = r.machine_.numProcs;

    // ----- segment scan ---------------------------------------------
    namespace fs = std::filesystem;
    std::vector<std::string> names;
    for (const auto &entry : fs::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.rfind("seg-", 0) == 0)
            names.push_back(name);
    }
    std::sort(names.begin(), names.end());

    std::vector<ScannedSegment> found;
    for (const std::string &name : names) {
        ScannedSegment s;
        std::string reason;
        if (scanSegmentFile(dir + "/" + name, n, s, reason)) {
            found.push_back(std::move(s));
        } else {
            ++r.recovery_.droppedSegments;
            r.recovery_.notes.push_back(name + ": " + reason);
        }
    }
    std::stable_sort(found.begin(), found.end(),
                     [](const ScannedSegment &a,
                        const ScannedSegment &b) {
                         return a.info.segId < b.info.segId;
                     });
    // Duplicate ids (a copy planted next to the original): keep the
    // first by name order, drop the rest.
    for (std::size_t i = 1; i < found.size();) {
        if (found[i].info.segId == found[i - 1].info.segId) {
            ++r.recovery_.droppedSegments;
            r.recovery_.notes.push_back(
                found[i].path + ": duplicate segment id "
                + std::to_string(found[i].info.segId));
            found.erase(found.begin()
                        + static_cast<std::ptrdiff_t>(i));
        } else {
            ++i;
        }
    }
    if (found.empty())
        throw ArchiveError(ArchiveSection::kSegment,
                           ArchiveError::kNoSegment,
                           "ring holds no decodable segments");

    // Newest contiguous run: walk back from the newest valid segment
    // while ids are consecutive and GCC intervals chain.
    std::size_t first = found.size() - 1;
    while (first > 0) {
        const RingSegmentInfo &prev = found[first - 1].info;
        const RingSegmentInfo &cur = found[first].info;
        if (prev.segId + 1 != cur.segId
            || prev.endGcc != cur.startGcc || prev.isTail)
            break;
        --first;
    }
    if (first > 0) {
        r.recovery_.droppedSegments += first;
        r.recovery_.notes.push_back(
            std::to_string(first)
            + " older segment(s) unreachable behind a gap at segment "
            + std::to_string(found[first].info.segId));
    }
    // The retained run must open with a chain head: the files before
    // it hold deltas whose chain's keyframe is gone.
    std::size_t head = first;
    while (head < found.size() && !found[head].info.chainHead())
        ++head;
    if (head == found.size())
        throw ArchiveError(ArchiveSection::kSegment,
                           ArchiveError::kNoSegment,
                           "ring holds no chain head: no checkpoint "
                           "image can be rebuilt");
    if (head > first) {
        r.recovery_.droppedSegments += head - first;
        r.recovery_.notes.push_back(
            std::to_string(head - first)
            + " segment(s) before the chain head at segment "
            + std::to_string(found[head].info.segId)
            + " dropped: their chain's keyframe is gone");
        first = head;
    }
    for (std::size_t i = first; i < found.size(); ++i) {
        r.segments_.push_back(std::move(found[i].info));
        r.seg_paths_.push_back(std::move(found[i].path));
        r.payload_off_.push_back(found[i].payloadOff);
    }

    // ----- ring.index -----------------------------------------------
    bool idx_ok = true;
    const std::vector<std::uint8_t> idx =
        readWholeFile(dir + "/ring.index", idx_ok);
    bool idx_clean = false;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> idx_live;
    bool idx_valid = false;
    if (!idx_ok) {
        r.recovery_.notes.push_back(
            "ring.index missing; recovered by scan");
    } else if (idx.size() < kPreambleBytes
               || readU64At(idx.data(), 0) != kRingIdxMagic
               || readU64At(idx.data(), 8) != kRingVersion
               || readU64At(idx.data(), 24) > kMaxBlobBytes
               || kPreambleBytes + readU64At(idx.data(), 24)
                      != idx.size()
               || crc32(idx.data() + kPreambleBytes,
                        static_cast<std::size_t>(
                            readU64At(idx.data(), 24)))
                      != readU64At(idx.data(), 32)) {
        r.recovery_.notes.push_back(
            "ring.index corrupt; recovered by scan");
    } else {
        try {
            ByteCursor in(idx.data() + kPreambleBytes,
                          static_cast<std::size_t>(
                              readU64At(idx.data(), 24)));
            idx_clean = getU64(in) != 0;
            const std::uint64_t count = getU64(in);
            if (count > kMaxSegmentsPerRing)
                throw RecordingFormatError(
                    "implausible index segment count");
            for (std::uint64_t i = 0; i < count; ++i) {
                const std::uint64_t id = getU64(in);
                const std::uint64_t bytes = getU64(in);
                idx_live.emplace_back(id, bytes);
            }
            if (idx_clean)
                r.final_ = FinalStats::get(in, n);
            idx_valid = true;
        } catch (const RecordingFormatError &) {
            r.recovery_.notes.push_back(
                "ring.index malformed; recovered by scan");
            idx_valid = false;
        }
    }
    if (idx_valid) {
        // The scan is the truth; the index only certifies a clean
        // close (and its final stats) when it agrees exactly.
        bool agrees = idx_live.size() == r.segments_.size();
        for (std::size_t i = 0; agrees && i < idx_live.size(); ++i)
            agrees = idx_live[i].first == r.segments_[i].segId
                     && idx_live[i].second
                            == r.segments_[i].fileBytes;
        if (agrees) {
            r.recovery_.usedIndex = true;
            r.recovery_.clean =
                idx_clean && r.segments_.back().isTail;
        } else {
            r.recovery_.notes.push_back(
                "ring.index stale (disagrees with scan); recovered "
                "by scan");
        }
    }
    if (!r.recovery_.clean) {
        r.final_ = FinalStats{};
        r.final_.perProcAcc.assign(n, 0);
        r.final_.perProcRetired.assign(n, 0);
    }

    // ----- checkpoint index over boundaries 0..m --------------------
    // Boundary b's image is segment b's start keyframe when it has
    // one, else segment b-1's end image: a delta on boundary b-1 (a
    // keyframe after segment 0). The run opens with a chain head, so
    // every delta's base is a retained checkpoint.
    const std::size_t m = r.segments_.size();
    std::vector<CheckpointImageInfo> image_info;
    for (std::size_t b = 0; b <= m; ++b) {
        CheckpointImageInfo ii;
        ii.gcc = r.boundaryGcc(b);
        if (b < m && r.segments_[b].hasStartCheckpoint) {
            r.ckpts_.push_back({b, true});
            ii.keyframe = true;
            ii.rawBytes = r.segments_[b].startBlob.bytes;
        } else if (b > 0 && r.segments_[b - 1].hasEndCheckpoint) {
            const RingSegmentInfo &prev = r.segments_[b - 1];
            r.ckpts_.push_back({b, false});
            ii.keyframe = prev.segId == 0;
            ii.baseGcc = ii.keyframe ? 0 : prev.startGcc;
            ii.rawBytes = prev.endBlob.bytes;
        } else {
            continue;
        }
        image_info.push_back(ii);
    }
    // Salvage can cut a ring at a checkpoint that heads a chain: its
    // start keyframe was in the first file lost, and only its delta
    // (the end image of the newest file) survives. The keyframe rule
    // says which checkpoint that was, from the stored sizes alone.
    if (!image_info.empty() && !image_info.back().keyframe) {
        KeyframeRule rule;
        for (std::size_t i = 0; i + 1 < image_info.size(); ++i) {
            if (image_info[i].keyframe)
                rule.keyframe(image_info[i].rawBytes);
            else
                rule.delta(image_info[i].rawBytes);
        }
        image_info.back().lostKeyframe =
            rule.headsChain(image_info.back().rawBytes);
    }
    try {
        r.indexImages(std::move(image_info));
    } catch (const RecordingFormatError &e) {
        throw ArchiveError(ArchiveSection::kSegment,
                           ArchiveError::kNoSegment, e.what());
    }
    return r;
}

std::uint64_t
RingArchiveReader::boundaryGcc(std::size_t b) const
{
    return b < segments_.size() ? segments_[b].startGcc
                                : segments_.back().endGcc;
}

std::vector<std::uint8_t>
RingArchiveReader::storedImage(std::size_t index) const
{
    const RetainedCheckpoint ckpt = ckpts_[index];
    const std::size_t pos = ckpt.segment();
    const RingBlobInfo &blob = ckpt.startBlob ? segments_[pos].startBlob
                                              : segments_[pos].endBlob;
    std::vector<std::uint8_t> image;
    if (!readFileRange(seg_paths_[pos], blob.fileOffset, blob.bytes, image))
        throw ArchiveError(ArchiveSection::kSegment, pos,
                           "torn checkpoint blob in " + seg_paths_[pos]);
    if (crc32(image.data(), image.size()) != blob.crc32)
        throw ArchiveError(ArchiveSection::kSegment, pos,
                           "checkpoint blob CRC mismatch");
    return image;
}

ArchiveError
RingArchiveReader::imageError(std::size_t index,
                              const std::string &what) const
{
    return ArchiveError(ArchiveSection::kSegment, ckpts_[index].segment(),
                        "checkpoint blob: " + what);
}

std::uint64_t
RingArchiveReader::startGcc() const
{
    return segments_.front().startGcc;
}

std::uint64_t
RingArchiveReader::endGcc() const
{
    return segments_.back().endGcc;
}

std::size_t
RingArchiveReader::newestCheckpointAtOrBefore(std::uint64_t cycle) const
{
    const std::vector<std::uint64_t> gccs = checkpointGccs();
    const auto it =
        std::upper_bound(gccs.begin(), gccs.end(), cycle);
    if (it == gccs.begin())
        throw CheckpointOutOfRangeError(
            0, gccs.size(),
            "cycle " + std::to_string(cycle)
                + " predates the retained window"
                + (gccs.empty()
                       ? std::string(" (no checkpoints retained)")
                       : " (oldest checkpoint at GCC "
                             + std::to_string(gccs.front()) + ")"));
    return static_cast<std::size_t>(it - gccs.begin()) - 1;
}

std::vector<std::uint8_t>
RingArchiveReader::segmentPayload(std::size_t pos) const
{
    const RingSegmentInfo &info = segments_[pos];
    std::vector<std::uint8_t> comp;
    if (!readFileRange(seg_paths_[pos], payload_off_[pos], info.compBytes,
                       comp))
        throw ArchiveError(ArchiveSection::kSegment, pos,
                           "torn payload in " + seg_paths_[pos]);
    return decodeStored(comp.data(), comp.size(), info.crc32,
                        info.rawBytes, ArchiveSection::kSegment, pos,
                        "payload");
}

Recording
RingArchiveReader::readInterval(std::size_t from, std::size_t to) const
{
    checkInterval(from, to);
    if (to == kToEnd && !recovery_.clean)
        throw ArchiveError(
            ArchiveSection::kFooter, ArchiveError::kNoSegment,
            "ring was not closed cleanly: final stats are "
            "unavailable, bound the interval at a retained "
            "checkpoint");
    return assemble(ckpts_[from].boundary,
                    to == kToEnd ? segments_.size() : ckpts_[to].boundary,
                    from, to);
}

Recording
RingArchiveReader::readAll() const
{
    if (!recovery_.clean)
        throw ArchiveError(
            ArchiveSection::kFooter, ArchiveError::kNoSegment,
            "ring was not closed cleanly: readAll unavailable");
    if (segments_.front().segId != 0)
        throw CheckpointOutOfRangeError(
            0, checkpointCount(),
            "run start evicted: oldest retained segment is "
                + std::to_string(segments_.front().segId));
    // Segment 0 has no start image, so checkpoint i closes segment i.
    return assemble(0, segments_.size(), kWholeRun, kToEnd);
}

} // namespace delorean
