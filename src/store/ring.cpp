#include "store/ring.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/errors.hpp"
#include "core/serialize_detail.hpp"
#include "store/archive_detail.hpp"
#include "store/crc32.hpp"

namespace delorean
{

using serialize_detail::ByteCursor;
using serialize_detail::ImageKind;
using serialize_detail::putU64;

using namespace archive_detail;

namespace
{

constexpr std::uint64_t kRingMetaMagic = 0x2E676E526F4C6544ull; // "DeLoRng."
constexpr std::uint64_t kRingIdxMagic = 0x786449526F4C6544ull;  // "DeLoRIdx"
// v2: checkpoint images form chains — a segment file carries a start
// image only when its start checkpoint heads a chain (a keyframe), and
// its end image is a delta (a keyframe for segment 0).
// v3: images are encoded as gap lists and context diffs and stored
// raw (CRC-checked, no LZ77); the header blob gives each image's size
// and CRC.
// v4: a segment file is one segment record (store/archive_detail.hpp),
// the `.dla`'s record of the same interval: no start image, so each
// checkpoint image is stored once; ring.meta and ring.index use the
// `.dla` footer's metadata and index layouts.
// v5: ring.meta drops the machine header's constant arbiter count, and
// a segment's PI slice its constant has-masks flag (`.dla` v6).
constexpr std::uint64_t kRingVersion = 5;
/// Fixed meta/index preamble: magic, version, reserved, blob size,
/// blob CRC-32.
constexpr std::size_t kPreambleBytes = 40;
/// Meta/index blob size cap: fences OOM on garbage files.
constexpr std::uint64_t kMaxBlobBytes = 1ull << 30;

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

/** Read a whole file; @p ok is false when it cannot be read. */
std::vector<std::uint8_t>
readWholeFile(const std::string &path, bool &ok)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        ok = false;
        return {};
    }
    // Block reads, not a byte iterator.
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
 * The ring's steps on the shared SegmentPipeline. The commit step
 * writes each record to a file of its own, evicts over-budget history
 * whole chains at a time and atomically rewrites the index. The mutex
 * only guards the live-set/stats snapshot that stats() may read while
 * the flusher runs.
 */
struct RingArchiveWriter::Impl
{
    std::string dir;
    RingOptions opts;

    /// Retained on-disk segments, oldest first (flusher-owned; the
    /// mutex makes the snapshot readable from stats()).
    struct LiveSeg
    {
        std::uint64_t segId = 0;
        std::uint64_t fileBytes = 0;
        bool chainHead = false; ///< segment 0 or a keyframe image
    };
    mutable std::mutex mu;
    std::deque<LiveSeg> live;
    std::size_t live_heads = 0; ///< chain-head files in live
    /// Checkpoints of the newest chain: its non-tail files.
    std::size_t newest_chain_ckpts = 0;
    RingWriterStats statsd;
    /// GCC of the newest durable checkpoint: the end checkpoint of the
    /// newest non-tail file (0, the run's start, before the first).
    std::uint64_t newest_ckpt_gcc = 0;

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
            if (name.rfind("seg-", 0) == 0 || name.rfind("ring.", 0) == 0)
                fs::remove(entry.path());
        }
        std::ostringstream blob(std::ios::binary);
        putRunMeta(blob, rec);
        putU64(blob, opts.budgetBytes);
        putU64(blob, opts.checkpointPeriod);
        putU64(blob, opts.resolvedLag());
        writeBlobFileAtomic(dir + "/ring.meta", kRingMetaMagic, 0,
                            std::move(blob).str());
    }

    /**
     * Rewrite ring.index (temp + rename). @p rec supplies the final
     * stats for the clean index written at close; nullptr writes a
     * progress snapshot.
     */
    void
    writeIndex(const Recording *rec)
    {
        std::vector<RecordIndex::Entry> files;
        {
            std::lock_guard<std::mutex> lock(mu);
            for (const LiveSeg &seg : live)
                files.emplace_back(seg.segId, seg.fileBytes);
        }
        std::ostringstream blob(std::ios::binary);
        RecordIndex::put(blob, files, rec);
        writeBlobFileAtomic(dir + "/ring.index", kRingIdxMagic, 0,
                            std::move(blob).str());
    }

    /**
     * Commit one file per segment in id order, evict over-budget
     * history and rewrite the index.
     */
    void
    commit(std::vector<CutSegment> &batch)
    {
        for (CutSegment &seg : batch) {
            const std::string path = dir + "/" + segFileName(seg.index);
            std::uint64_t file_bytes = 0;
            {
                // Written in place, not via rename: only the newest
                // file can ever be torn, which is exactly the crash
                // shape the reader's salvage path handles.
                std::ofstream out(path,
                                  std::ios::binary | std::ios::trunc);
                file_bytes = writeRecord(out, seg);
                out.close();
                if (!out)
                    throw std::runtime_error("failed to write " + path);
            }
            const bool chain_head =
                seg.index == 0
                || seg.imageKind
                       == static_cast<std::uint64_t>(ImageKind::kKeyframe);
            const bool tail = seg.imageKind == 0;

            std::vector<std::uint64_t> evict_ids;
            {
                std::lock_guard<std::mutex> lock(mu);
                // Lag bookkeeping: while this segment recorded, the
                // newest durable checkpoint was the previous file's
                // end checkpoint; this file makes its own durable.
                statsd.worstStartLag = std::max(
                    statsd.worstStartLag, seg.endGcc - newest_ckpt_gcc);
                statsd.maxCheckpointSpacing =
                    std::max(statsd.maxCheckpointSpacing,
                             seg.endGcc - seg.startGcc);
                if (!tail)
                    newest_ckpt_gcc = seg.endGcc;

                live.push_back({seg.index, file_bytes, chain_head});
                live_heads += chain_head ? 1 : 0;
                newest_chain_ckpts =
                    (chain_head ? 0 : newest_chain_ckpts) + (tail ? 0 : 1);
                ++statsd.segmentsCut;
                statsd.bytesWritten += file_bytes;
                statsd.liveBytes += file_bytes;
                // Evict whole chains, oldest first: a file past its
                // chain's head is useless without it. The chain
                // holding this newest complete segment always stays,
                // so its start checkpoint stays decodable, and so does
                // the chain before it while the newest holds a single
                // checkpoint (its head, or a tail after it), so a
                // seekable interval always remains.
                while (statsd.liveBytes > opts.budgetBytes
                       && (live_heads > 2
                           || (live_heads == 2 && newest_chain_ckpts >= 2))) {
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
            std::string().swap(seg.image);
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
    ArchiveSegmentInfo info;
    std::string path;
};

/**
 * Parse one candidate segment file: one record that fills it exactly
 * (archive_detail::scanRecordHeader, scanRecordImage). Returns false
 * with @p reason set when the file is structurally invalid (torn,
 * corrupt, or lying about itself) — the salvage path drops it. Only
 * the header and the image are read: the image is CRC-checked and
 * walked, and decoded only on first use; the payload's CRC waits for
 * its first read.
 */
bool
scanSegmentFile(const std::string &path, unsigned n, ScannedSegment &out,
                std::string &reason)
{
    std::ifstream in(path, std::ios::binary | std::ios::ate);
    const std::streamoff end = in.tellg();
    const auto size = static_cast<std::uint64_t>(end);
    const auto read = [&in](std::vector<std::uint8_t> &bytes,
                            std::uint64_t count) {
        bytes.resize(static_cast<std::size_t>(count));
        in.read(reinterpret_cast<char *>(bytes.data()),
                static_cast<std::streamsize>(count));
        return static_cast<std::uint64_t>(in.gcount()) == count;
    };
    std::vector<std::uint8_t> header;
    if (!in || end < 0 || !in.seekg(0)
        || !read(header, std::min<std::uint64_t>(size, kRecordHeaderBytes))) {
        reason = "unreadable";
        return false;
    }
    try {
        out.info = scanRecordHeader(header.data(), size);
        std::vector<std::uint8_t> image;
        if (!read(image, out.info.imageBytes)) {
            reason = "unreadable";
            return false;
        }
        scanRecordImage(out.info, image.data(), n);
    } catch (const RecordingFormatError &e) {
        // The note names the failed check, not the error class.
        reason = e.what();
        reason.erase(0, reason.find(": ") + 2);
        return false;
    }
    if (out.info.recordBytes != size) {
        reason = "file size disagrees with the header";
        return false;
    }
    out.path = path;
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
        ByteCursor in(meta.data() + kPreambleBytes,
                      static_cast<std::size_t>(meta_blob));
        r.getRunMeta(in);
        // The budget, the period and T = 2P, as the writer recorded
        // them; the reader needs none of them.
        in.take(24);
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
                         return a.info.index < b.info.index;
                     });
    // Duplicate ids (a copy planted next to the original): keep the
    // first by name order, drop the rest.
    for (std::size_t i = 1; i < found.size();) {
        if (found[i].info.index == found[i - 1].info.index) {
            ++r.recovery_.droppedSegments;
            r.recovery_.notes.push_back(
                found[i].path + ": duplicate segment id "
                + std::to_string(found[i].info.index));
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
        const ArchiveSegmentInfo &prev = found[first - 1].info;
        const ArchiveSegmentInfo &cur = found[first].info;
        if (prev.index + 1 != cur.index || prev.endGcc != cur.startGcc
            || !prev.hasCheckpoint)
            break;
        --first;
    }
    if (first > 0) {
        r.recovery_.droppedSegments += first;
        r.recovery_.notes.push_back(
            std::to_string(first)
            + " older segment(s) unreachable behind a gap at segment "
            + std::to_string(found[first].info.index));
    }
    // The retained run must open with a chain head file: the files
    // before it hold deltas whose chain's keyframe is gone.
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
            + std::to_string(found[head].info.index)
            + " dropped: their chain's keyframe is gone");
        first = head;
    }
    std::vector<ArchiveSegmentInfo> segments;
    for (std::size_t i = first; i < found.size(); ++i) {
        segments.push_back(found[i].info);
        r.seg_paths_.push_back(std::move(found[i].path));
    }

    // ----- ring.index -----------------------------------------------
    bool idx_ok = true;
    const std::vector<std::uint8_t> idx =
        readWholeFile(dir + "/ring.index", idx_ok);
    std::optional<RecordIndex> index;
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
            index = RecordIndex::get(in, n);
        } catch (const RecordingFormatError &) {
            r.recovery_.notes.push_back(
                "ring.index malformed; recovered by scan");
        }
    }
    if (index) {
        // The scan is the truth; the index only certifies a clean
        // close (and its final stats) when it agrees exactly.
        bool agrees = index->records.size() == segments.size();
        for (std::size_t i = 0; agrees && i < segments.size(); ++i)
            agrees = index->records[i].first == segments[i].index
                     && index->records[i].second == segments[i].recordBytes;
        if (agrees) {
            r.recovery_.usedIndex = true;
            r.recovery_.clean =
                index->clean && !segments.back().hasCheckpoint;
        } else {
            r.recovery_.notes.push_back(
                "ring.index stale (disagrees with scan); recovered "
                "by scan");
        }
    }
    if (r.recovery_.clean) {
        r.final_ = std::move(index->final);
    } else {
        r.final_.perProcAcc.assign(n, 0);
        r.final_.perProcRetired.assign(n, 0);
    }

    // Checkpoint j is retained file j's end checkpoint. The run opens
    // with a chain head file, so every delta's base is retained.
    try {
        r.indexSegments(std::move(segments));
    } catch (const RecordingFormatError &e) {
        throw ArchiveError(ArchiveSection::kSegment,
                           ArchiveError::kNoSegment, e.what());
    }
    return r;
}

std::vector<std::uint8_t>
RingArchiveReader::readRange(std::size_t pos, std::uint64_t offset,
                             std::uint64_t bytes, const char *what) const
{
    std::vector<std::uint8_t> out;
    if (!readFileRange(seg_paths_[pos], offset, bytes, out))
        throw ArchiveError(ArchiveSection::kSegment, pos,
                           std::string("torn ") + what + " in "
                               + seg_paths_[pos]);
    return out;
}

const std::uint8_t *
RingArchiveReader::storedImage(std::size_t index,
                               std::vector<std::uint8_t> &buffer) const
{
    const ArchiveSegmentInfo &seg = segments_[index];
    buffer = readRange(index, seg.imageOffset(), seg.imageBytes,
                       "checkpoint image");
    if (crc32(buffer.data(), buffer.size()) != seg.imageCrc)
        throw ArchiveError(ArchiveSection::kSegment, index,
                           "checkpoint image CRC mismatch");
    return buffer.data();
}

std::uint64_t
RingArchiveReader::startGcc() const
{
    const ArchiveSegmentInfo &first = segments_.front();
    return first.hasCheckpoint ? first.endGcc : first.startGcc;
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
    const ArchiveSegmentInfo &info = segments_[pos];
    const std::vector<std::uint8_t> comp =
        readRange(pos, info.payloadOffset(), info.compBytes, "payload");
    return decodePayload(comp.data(), info, pos);
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
    return intervalView(from, to);
}

Recording
RingArchiveReader::readAll() const
{
    if (!recovery_.clean)
        throw ArchiveError(
            ArchiveSection::kFooter, ArchiveError::kNoSegment,
            "ring was not closed cleanly: readAll unavailable");
    if (segments_.front().index != 0)
        throw CheckpointOutOfRangeError(
            0, checkpointCount(),
            "run start evicted: oldest retained segment is "
                + std::to_string(segments_.front().index));
    return assemble(0, segments_.size(), kWholeRun, kToEnd);
}

} // namespace delorean
