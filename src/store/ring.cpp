#include "store/ring.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/errors.hpp"
#include "compress/lz77.hpp"
#include "core/serialize.hpp"
#include "core/serialize_detail.hpp"
#include "sim/campaign.hpp"
#include "store/archive_detail.hpp"
#include "store/crc32.hpp"

namespace delorean
{

using serialize_detail::getCheckpoint;
using serialize_detail::getMachine;
using serialize_detail::getMode;
using serialize_detail::getString;
using serialize_detail::getU64;
using serialize_detail::putCheckpoint;
using serialize_detail::putMachine;
using serialize_detail::putMode;
using serialize_detail::putString;
using serialize_detail::putU64;

using namespace archive_detail;

namespace
{

constexpr std::uint64_t kRingMetaMagic = 0x2E676E526F4C6544ull; // "DeLoRng."
constexpr std::uint64_t kRingSegMagic = 0x676553526F4C6544ull;  // "DeLoRSeg"
constexpr std::uint64_t kRingIdxMagic = 0x786449526F4C6544ull;  // "DeLoRIdx"
constexpr std::uint64_t kRingVersion = 1;
/// Fixed meta/index preamble: magic, version, reserved, blob size,
/// blob CRC-32.
constexpr std::size_t kPreambleBytes = 40;
/// Segment preamble: magic, version, segId, header raw size, header
/// compressed size, header CRC-32 (of the compressed bytes). The
/// header blob is followed by the start- and end-checkpoint blobs it
/// describes (each independently LZ77-compressed and CRC'd), then the
/// payload. Keeping the checkpoint images out of the header lets the
/// writer compress each checkpoint exactly once: the blob that closes
/// segment i is byte-reused as the start blob of segment i+1.
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
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    ok = static_cast<bool>(in) || in.eof();
    return bytes;
}

} // namespace

// ----- options --------------------------------------------------------------

std::uint64_t
RingOptions::resolvedLag() const
{
    return maxReplayLag ? maxReplayLag : 2 * checkpointPeriod;
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
    if (resolvedLag() < 2 * checkpointPeriod)
        throw ConfigError(
            "ring maxReplayLag T=" + std::to_string(resolvedLag())
            + " is infeasible: with checkpoints every P="
            + std::to_string(checkpointPeriod)
            + " commits the newest durable replay starting point can "
              "lag the frontier by up to 2P-1 commits; require "
              "T >= 2P = "
            + std::to_string(2 * checkpointPeriod));
}

// ----- writer ---------------------------------------------------------------

/**
 * Same two-thread pipeline as StreamingArchiveWriter::Impl: the
 * feeder cuts payloads synchronously and stages them; the flusher
 * compresses a snatched batch over the codec pool, writes one file
 * per segment, evicts over-budget history and atomically rewrites
 * the index. Handoff is by join (flush_done + join before touching
 * flusher-owned state); the mutex only guards the live-set/stats
 * snapshot that stats() may read concurrently.
 */
struct RingArchiveWriter::Impl
{
    std::string dir;
    RingOptions opts;

    bool initialized = false;
    bool is_closed = false;
    unsigned n = 0;

    Boundary last;              ///< frontier at the last cut
    std::uint64_t last_gcc = 0; ///< last checkpoint GCC
    std::size_t fed = 0;        ///< checkpoints consumed
    std::uint64_t next_seg = 0; ///< next segment id to cut

    /// A cut segment between payload build and file commit. The start
    /// checkpoint is not carried: it is by construction the previous
    /// segment's end checkpoint, whose compressed blob the flusher
    /// caches and reuses.
    struct Pending
    {
        std::uint64_t segId = 0;
        std::uint64_t startGcc = 0;
        std::uint64_t endGcc = 0;
        bool isTail = false;
        bool hasStart = false;
        bool hasEnd = false;
        SystemCheckpoint end;
        std::string raw;
    };
    /// One compressed checkpoint image (flusher-owned cache of the
    /// newest end checkpoint, reused as the next start blob).
    struct CkptBlob
    {
        std::uint64_t raw = 0;
        std::uint64_t crc = 0;
        std::vector<std::uint8_t> comp;
    };
    CkptBlob prev_end; ///< flusher-owned carry across batches
    std::vector<Pending> staging;  ///< feeder-owned accumulation
    std::vector<Pending> flushing; ///< flusher-owned batch
    std::thread flusher;
    std::atomic<bool> flush_done{true};
    std::exception_ptr flush_error;
    std::unique_ptr<WorkerPool> pool;

    /// Retained on-disk segments, oldest first (flusher-owned; the
    /// mutex makes the snapshot readable from stats()).
    struct LiveSeg
    {
        std::uint64_t segId = 0;
        std::uint64_t fileBytes = 0;
    };
    mutable std::mutex mu;
    std::deque<LiveSeg> live;
    RingWriterStats statsd;
    std::uint64_t newest_start_gcc = 0; ///< of newest durable segment
    bool have_durable = false;

    Impl(std::string d, const RingOptions &o)
        : dir(std::move(d)), opts(o)
    {
    }

    ~Impl()
    {
        if (flusher.joinable())
            flusher.join();
    }

    void
    ensureInit(const Recording &rec)
    {
        if (initialized)
            return;
        n = rec.machine.numProcs;
        last = Boundary{};
        last.committed.assign(n, 0);
        last.ioIdx.assign(n, 0);
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
        initialized = true;
    }

    void
    rethrowFlushError()
    {
        if (flush_error) {
            is_closed = true; // poisoned: the ring is mid-commit
            std::exception_ptr e = flush_error;
            flush_error = nullptr;
            std::rethrow_exception(e);
        }
    }

    /**
     * Serialize one segment's self-describing header blob: the GCC
     * interval plus the sizes and CRCs of the checkpoint blobs and
     * payload that follow it in the file.
     */
    static std::string
    segmentHeaderBlob(const Pending &p, const CkptBlob &start,
                      const CkptBlob &end, std::uint64_t comp_bytes,
                      std::uint64_t payload_crc)
    {
        std::ostringstream blob(std::ios::binary);
        putU64(blob, p.startGcc);
        putU64(blob, p.endGcc);
        putU64(blob, p.isTail ? 1 : 0);
        putU64(blob, p.hasStart ? 1 : 0);
        if (p.hasStart) {
            putU64(blob, start.raw);
            putU64(blob, start.comp.size());
            putU64(blob, start.crc);
        }
        putU64(blob, p.hasEnd ? 1 : 0);
        if (p.hasEnd) {
            putU64(blob, end.raw);
            putU64(blob, end.comp.size());
            putU64(blob, end.crc);
        }
        putU64(blob, p.raw.size());
        putU64(blob, comp_bytes);
        putU64(blob, payload_crc);
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
        if (rec) {
            putU64(blob, rec->stats.totalCycles);
            putU64(blob, rec->stats.retiredInstrs);
            putU64(blob, rec->stats.executedInstrs);
            putU64(blob, rec->stats.committedChunks);
            putU64(blob, rec->stats.squashes);
            putU64(blob, rec->stats.overflowTruncations);
            putU64(blob, rec->stats.collisionTruncations);
            putU64(blob, rec->stats.hardTruncations);
            putU64(blob, rec->fingerprint.perProcAcc.size());
            for (std::size_t p = 0;
                 p < rec->fingerprint.perProcAcc.size(); ++p) {
                putU64(blob, rec->fingerprint.perProcAcc[p]);
                putU64(blob, rec->fingerprint.perProcRetired[p]);
            }
            putU64(blob, rec->fingerprint.finalMemHash);
        }
        writeBlobFileAtomic(dir + "/ring.index", kRingIdxMagic, 0,
                            std::move(blob).str());
    }

    /**
     * Compress the batch over the codec pool, commit one file per
     * segment in id order, evict over-budget history and rewrite the
     * index. Runs on the flusher thread (or inline from drain()).
     */
    void
    flushBatch()
    {
        const std::size_t count = flushing.size();
        std::vector<std::vector<std::uint8_t>> comp(count);
        std::vector<std::string> end_raw(count);
        std::vector<CkptBlob> end_blob(count);
        for (std::size_t i = 0; i < count; ++i)
            if (flushing[i].hasEnd) {
                std::ostringstream b(std::ios::binary);
                putCheckpoint(b, flushing[i].end);
                end_raw[i] = std::move(b).str();
            }
        if (!pool)
            pool = std::make_unique<WorkerPool>(
                opts.io.resolvedIoThreads());
        std::vector<std::function<void()>> tasks;
        tasks.reserve(2 * count);
        for (std::size_t i = 0; i < count; ++i) {
            tasks.push_back([this, &comp, i] {
                comp[i] = compressPayload(flushing[i].raw);
            });
            // Each checkpoint image is compressed exactly once, here:
            // the blob closing segment i doubles as the start blob of
            // segment i+1 (prev_end carries it across batches).
            if (flushing[i].hasEnd)
                tasks.push_back([&end_raw, &end_blob, i] {
                    end_blob[i].raw = end_raw[i].size();
                    end_blob[i].comp = compressPayload(end_raw[i]);
                    end_blob[i].crc = crc32(end_blob[i].comp.data(),
                                            end_blob[i].comp.size());
                });
        }
        std::vector<std::exception_ptr> errors;
        runIndexed(*pool, std::move(tasks), errors);
        for (const std::exception_ptr &e : errors)
            if (e)
                std::rethrow_exception(e);

        for (std::size_t i = 0; i < count; ++i) {
            Pending &p = flushing[i];
            const std::uint64_t payload_crc =
                crc32(comp[i].data(), comp[i].size());
            CkptBlob start;
            if (p.hasStart) {
                if (prev_end.comp.empty())
                    throw std::logic_error(
                        "ring segment cut out of order: no cached "
                        "start checkpoint");
                start = std::move(prev_end);
            }
            const std::string blob = segmentHeaderBlob(
                p, start, end_blob[i], comp[i].size(), payload_crc);
            const std::vector<std::uint8_t> hcomp =
                compressPayload(blob);
            const std::string path = dir + "/" + segFileName(p.segId);
            {
                // Written in place, not via rename: only the newest
                // file can ever be torn, which is exactly the crash
                // shape the reader's salvage path handles.
                std::ofstream out(path,
                                  std::ios::binary | std::ios::trunc);
                putU64(out, kRingSegMagic);
                putU64(out, kRingVersion);
                putU64(out, p.segId);
                putU64(out, blob.size());
                putU64(out, hcomp.size());
                putU64(out, crc32(hcomp.data(), hcomp.size()));
                out.write(
                    reinterpret_cast<const char *>(hcomp.data()),
                    static_cast<std::streamsize>(hcomp.size()));
                out.write(
                    reinterpret_cast<const char *>(start.comp.data()),
                    static_cast<std::streamsize>(start.comp.size()));
                out.write(reinterpret_cast<const char *>(
                              end_blob[i].comp.data()),
                          static_cast<std::streamsize>(
                              end_blob[i].comp.size()));
                out.write(
                    reinterpret_cast<const char *>(comp[i].data()),
                    static_cast<std::streamsize>(comp[i].size()));
                if (!out)
                    throw std::runtime_error("failed to write " + path);
            }
            const std::uint64_t file_bytes =
                kSegPreambleBytes + hcomp.size() + start.comp.size()
                + end_blob[i].comp.size() + comp[i].size();
            if (p.hasEnd)
                prev_end = std::move(end_blob[i]);

            std::vector<std::uint64_t> evict_ids;
            {
                std::lock_guard<std::mutex> lock(mu);
                // Lag bookkeeping: while this segment recorded, the
                // newest durable start was the previous segment's.
                const std::uint64_t lag =
                    p.endGcc
                    - (have_durable ? newest_start_gcc : 0);
                statsd.worstStartLag =
                    std::max(statsd.worstStartLag, lag);
                statsd.maxCheckpointSpacing =
                    std::max(statsd.maxCheckpointSpacing,
                             p.endGcc - p.startGcc);
                have_durable = true;
                newest_start_gcc = p.startGcc;

                live.push_back({p.segId, file_bytes});
                ++statsd.segmentsCut;
                statsd.bytesWritten += file_bytes;
                statsd.liveBytes += file_bytes;
                while (statsd.liveBytes > opts.budgetBytes
                       && live.size() > 1) {
                    const LiveSeg victim = live.front();
                    live.pop_front();
                    statsd.liveBytes -= victim.fileBytes;
                    ++statsd.segmentsEvicted;
                    evict_ids.push_back(victim.segId);
                }
                if (statsd.liveBytes > opts.budgetBytes)
                    ++statsd.budgetOverruns;
            }
            for (const std::uint64_t id : evict_ids)
                std::remove((dir + "/" + segFileName(id)).c_str());

            std::vector<std::uint8_t>().swap(comp[i]);
            std::string().swap(p.raw);
        }
        flushing.clear();
        writeIndex(nullptr);
    }

    void
    pump()
    {
        if (!flush_done.load(std::memory_order_acquire))
            return; // flusher busy; keep accumulating
        if (flusher.joinable())
            flusher.join();
        rethrowFlushError();
        if (staging.empty())
            return;
        flushing = std::move(staging);
        staging.clear();
        flush_done.store(false, std::memory_order_release);
        flusher = std::thread([this] {
            try {
                flushBatch();
            } catch (...) {
                flush_error = std::current_exception();
            }
            flush_done.store(true, std::memory_order_release);
        });
    }

    void
    drain()
    {
        if (flusher.joinable())
            flusher.join();
        rethrowFlushError();
        if (!staging.empty()) {
            flushing = std::move(staging);
            staging.clear();
            flushBatch();
        }
    }

    /** Cut the segment (last, hi]; null @p end_ckpt cuts the tail. */
    void
    stage(const Recording &rec, const Boundary &hi,
          const SystemCheckpoint *end_ckpt)
    {
        Pending p;
        p.segId = next_seg;
        p.startGcc = last.gcc;
        p.endGcc = hi.gcc;
        p.isTail = end_ckpt == nullptr;
        p.hasStart = next_seg > 0;
        if (end_ckpt) {
            p.hasEnd = true;
            p.end = *end_ckpt;
        }
        p.raw = buildSegmentPayload(rec, last, hi);
        staging.push_back(std::move(p));
        last = hi;
        ++next_seg;
    }

    /** Consume every not-yet-streamed checkpoint of @p rec. */
    void
    feed(const Recording &rec)
    {
        ensureInit(rec);
        while (fed < rec.checkpoints.size()) {
            const SystemCheckpoint &ckpt = rec.checkpoints[fed];
            if (fed > 0 && ckpt.gcc <= last_gcc)
                throw RecordingFormatError(
                    "checkpoints are not in ascending GCC order");
            Boundary hi = boundaryAtCheckpoint(rec, ckpt, fed);
            stage(rec, hi, &ckpt);
            last_gcc = ckpt.gcc;
            ++fed;
        }
    }
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
    if (impl_->is_closed)
        throw std::logic_error("RingArchiveWriter used after close");
    impl_->feed(rec);
    impl_->pump();
}

void
RingArchiveWriter::close(const Recording &rec)
{
    Impl &im = *impl_;
    if (im.is_closed)
        throw std::logic_error("RingArchiveWriter::close called twice");
    im.feed(rec);
    im.stage(rec, boundaryAtEnd(rec), nullptr); // tail segment
    im.drain();
    im.writeIndex(&rec);
    im.is_closed = true;
}

bool
RingArchiveWriter::closed() const
{
    return impl_->is_closed;
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
 * Parse one candidate segment file. Returns false with @p reason set
 * when the file is structurally invalid (torn, corrupt, or lying
 * about itself) — the salvage path drops it.
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
    std::uint64_t start_raw = 0, start_comp = 0, start_crc = 0;
    std::uint64_t end_raw = 0, end_comp = 0, end_crc = 0;
    try {
        const Lz77 codec;
        const std::vector<std::uint8_t> blob = codec.decompress(
            bytes.data() + kSegPreambleBytes,
            static_cast<std::size_t>(blob_comp));
        if (blob.size() != blob_raw) {
            reason = "header decompressed size mismatch";
            return false;
        }
        std::istringstream in(
            std::string(reinterpret_cast<const char *>(blob.data()),
                        blob.size()),
            std::ios::binary);
        info.startGcc = getU64(in);
        info.endGcc = getU64(in);
        info.isTail = getU64(in) != 0;
        info.hasStartCheckpoint = getU64(in) != 0;
        if (info.hasStartCheckpoint) {
            start_raw = getU64(in);
            start_comp = getU64(in);
            start_crc = getU64(in);
        }
        info.hasEndCheckpoint = getU64(in) != 0;
        if (info.hasEndCheckpoint) {
            end_raw = getU64(in);
            end_comp = getU64(in);
            end_crc = getU64(in);
        }
        info.rawBytes = getU64(in);
        info.compBytes = getU64(in);
        info.crc32 = getU64(in);
    } catch (const RecordingFormatError &) {
        reason = "malformed header";
        return false;
    }

    // Everything the header promises must fit the file exactly:
    // header, start blob, end blob, payload, nothing else.
    if (start_raw > kMaxBlobBytes || start_comp > kMaxBlobBytes
        || end_raw > kMaxBlobBytes || end_comp > kMaxBlobBytes) {
        reason = "implausible checkpoint blob size";
        return false;
    }
    std::uint64_t off = kSegPreambleBytes + blob_comp;
    if (off + start_comp + end_comp + info.compBytes
        != bytes.size()) {
        reason = "file size disagrees with the header (torn payload?)";
        return false;
    }
    const auto loadCheckpoint =
        [&bytes](std::uint64_t at, std::uint64_t comp_n,
                 std::uint64_t raw_n, std::uint64_t crc_want,
                 SystemCheckpoint &out_ckpt, std::string &why) {
            if (crc32(bytes.data() + at,
                      static_cast<std::size_t>(comp_n))
                != crc_want) {
                why = "checkpoint blob CRC mismatch";
                return false;
            }
            try {
                const Lz77 codec;
                const std::vector<std::uint8_t> blob =
                    codec.decompress(
                        bytes.data() + at,
                        static_cast<std::size_t>(comp_n));
                if (blob.size() != raw_n) {
                    why = "checkpoint blob size mismatch";
                    return false;
                }
                std::istringstream in(
                    std::string(
                        reinterpret_cast<const char *>(blob.data()),
                        blob.size()),
                    std::ios::binary);
                out_ckpt = getCheckpoint(in);
            } catch (const RecordingFormatError &) {
                why = "malformed checkpoint blob";
                return false;
            }
            return true;
        };
    if (info.hasStartCheckpoint) {
        if (!loadCheckpoint(off, start_comp, start_raw, start_crc,
                            info.startCheckpoint, reason))
            return false;
        off += start_comp;
    }
    if (info.hasEndCheckpoint) {
        if (!loadCheckpoint(off, end_comp, end_raw, end_crc,
                            info.endCheckpoint, reason))
            return false;
        off += end_comp;
    }

    if (info.endGcc < info.startGcc
        || (!info.isTail && info.endGcc <= info.startGcc)) {
        reason = "GCC interval not ascending";
        return false;
    }
    if (info.hasStartCheckpoint != (seg_id > 0)) {
        reason = "start-checkpoint presence disagrees with the id";
        return false;
    }
    if (info.hasEndCheckpoint == info.isTail) {
        reason = "end-checkpoint presence disagrees with the tail flag";
        return false;
    }
    if (info.hasStartCheckpoint
        && (info.startCheckpoint.gcc != info.startGcc
            || info.startCheckpoint.contexts.size() != n
            || info.startCheckpoint.committedChunks.size() != n)) {
        reason = "start checkpoint disagrees with the header";
        return false;
    }
    if (info.hasEndCheckpoint
        && (info.endCheckpoint.gcc != info.endGcc
            || info.endCheckpoint.contexts.size() != n
            || info.endCheckpoint.committedChunks.size() != n)) {
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
        r.opts_.budgetBytes = getU64(in);
        r.opts_.checkpointPeriod = getU64(in);
        r.opts_.maxReplayLag = getU64(in);
        r.opts_.io = io;
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
            std::istringstream in(
                std::string(
                    reinterpret_cast<const char *>(idx.data())
                        + kPreambleBytes,
                    static_cast<std::size_t>(
                        readU64At(idx.data(), 24))),
                std::ios::binary);
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
            if (idx_clean) {
                for (int k = 0; k < 8; ++k)
                    r.stats_[k] = getU64(in);
                const std::uint64_t procs = getU64(in);
                if (procs != n)
                    throw RecordingFormatError(
                        "index fingerprint per-proc count does not "
                        "match numProcs");
                for (std::uint64_t p = 0; p < procs; ++p) {
                    r.per_proc_acc_.push_back(getU64(in));
                    r.per_proc_retired_.push_back(getU64(in));
                }
                r.final_mem_hash_ = getU64(in);
            }
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
        r.per_proc_acc_.assign(n, 0);
        r.per_proc_retired_.assign(n, 0);
        r.final_mem_hash_ = 0;
        for (int k = 0; k < 8; ++k)
            r.stats_[k] = 0;
    }

    // ----- checkpoint index over boundaries 0..m --------------------
    const std::size_t m = r.segments_.size();
    for (std::size_t b = 0; b <= m; ++b) {
        const bool has =
            b == 0 ? r.segments_[0].hasStartCheckpoint
                   : (b < m ? true
                            : r.segments_[m - 1].hasEndCheckpoint);
        if (has)
            r.ckpt_boundary_.push_back(b);
    }
    return r;
}

const SystemCheckpoint &
RingArchiveReader::boundaryCheckpoint(std::size_t b) const
{
    return b < segments_.size()
               ? segments_[b].startCheckpoint
               : segments_.back().endCheckpoint;
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
RingArchiveReader::checkpointCount() const
{
    return ckpt_boundary_.size();
}

std::vector<std::uint64_t>
RingArchiveReader::checkpointGccs() const
{
    std::vector<std::uint64_t> gccs;
    gccs.reserve(ckpt_boundary_.size());
    for (const std::size_t b : ckpt_boundary_)
        gccs.push_back(boundaryCheckpoint(b).gcc);
    return gccs;
}

const SystemCheckpoint &
RingArchiveReader::checkpointAt(std::size_t index) const
{
    if (index >= ckpt_boundary_.size())
        throw CheckpointOutOfRangeError(
            index, ckpt_boundary_.size(),
            "ring checkpoint " + std::to_string(index) + " of "
                + std::to_string(ckpt_boundary_.size()));
    return boundaryCheckpoint(ckpt_boundary_[index]);
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

WorkerPool &
RingArchiveReader::ioPool() const
{
    if (!pool_)
        pool_ = std::make_unique<WorkerPool>(io_.resolvedIoThreads());
    return *pool_;
}

std::vector<std::uint8_t>
RingArchiveReader::segmentPayload(std::size_t pos) const
{
    const RingSegmentInfo &info = segments_[pos];
    std::ifstream in(seg_paths_[pos], std::ios::binary);
    if (!in)
        throw ArchiveError(ArchiveSection::kSegment, pos,
                           "cannot open " + seg_paths_[pos]);
    in.seekg(static_cast<std::streamoff>(payload_off_[pos]));
    std::vector<std::uint8_t> comp(
        static_cast<std::size_t>(info.compBytes));
    in.read(reinterpret_cast<char *>(comp.data()),
            static_cast<std::streamsize>(comp.size()));
    if (static_cast<std::uint64_t>(in.gcount()) != info.compBytes)
        throw ArchiveError(ArchiveSection::kSegment, pos,
                           "torn payload in " + seg_paths_[pos]);
    if (crc32(comp.data(), comp.size()) != info.crc32)
        throw ArchiveError(ArchiveSection::kSegment, pos,
                           "payload CRC mismatch");
    std::vector<std::uint8_t> raw;
    try {
        const Lz77 codec;
        raw = codec.decompress(comp);
    } catch (const RecordingFormatError &e) {
        throw ArchiveError(ArchiveSection::kSegment, pos, e.what());
    }
    if (raw.size() != info.rawBytes)
        throw ArchiveError(ArchiveSection::kSegment, pos,
                           "decompressed size mismatch");
    return raw;
}

Recording
RingArchiveReader::readInterval(std::size_t from, std::size_t to) const
{
    if (from >= checkpointCount())
        throw CheckpointOutOfRangeError(
            from, checkpointCount(),
            "interval start checkpoint " + std::to_string(from)
                + " of " + std::to_string(checkpointCount()));
    if (to != kToEnd && (to <= from || to >= checkpointCount()))
        throw CheckpointOutOfRangeError(
            to, checkpointCount(),
            "interval [" + std::to_string(from) + ", "
                + std::to_string(to)
                + ") is not a valid checkpoint pair");
    if (to == kToEnd && !recovery_.clean)
        throw ArchiveError(
            ArchiveSection::kFooter, ArchiveError::kNoSegment,
            "ring was not closed cleanly: final stats are "
            "unavailable, bound the interval at a retained "
            "checkpoint");

    const std::size_t lo = ckpt_boundary_[from];
    const std::size_t hi =
        to == kToEnd ? segments_.size() : ckpt_boundary_[to];
    const unsigned n = machine_.numProcs;
    Recording rec = skeletonRecording(machine_, mode_, app_name_,
                                      workload_seed_,
                                      iterations_percent_);
    const SystemCheckpoint &start = boundaryCheckpoint(lo);
    appendSyntheticPrefix(rec, start);

    std::vector<std::uint64_t> io_base;
    for (const ThreadContext &ctx : start.contexts)
        io_base.push_back(ctx.ioLoadCount);
    const std::size_t count = hi - lo;
    std::vector<SegmentSlice> slices(count);
    {
        std::vector<std::function<void()>> tasks;
        tasks.reserve(count);
        for (std::size_t k = 0; k < count; ++k)
            tasks.push_back([this, &slices, lo, n, k] {
                slices[k] = decodeSegment(segmentPayload(lo + k), n,
                                          lo + k);
            });
        std::vector<std::exception_ptr> errors;
        runIndexed(ioPool(), std::move(tasks), errors);
        for (std::size_t k = 0; k < count; ++k) {
            if (errors[k])
                std::rethrow_exception(errors[k]);
            appendSlice(rec, slices[k], io_base, lo + k);
            slices[k] = SegmentSlice();
        }
    }

    rec.fingerprint.perProcAcc = per_proc_acc_;
    rec.fingerprint.perProcRetired = per_proc_retired_;
    rec.fingerprint.finalMemHash = final_mem_hash_;
    rec.checkpoints.push_back(start);
    if (to != kToEnd)
        rec.checkpoints.push_back(
            boundaryCheckpoint(ckpt_boundary_[to]));
    validateRecording(rec);
    return rec;
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

    Recording rec = skeletonRecording(machine_, mode_, app_name_,
                                      workload_seed_,
                                      iterations_percent_);
    const unsigned n = machine_.numProcs;
    std::vector<std::uint64_t> io_base(n, 0);
    const std::size_t count = segments_.size();
    std::vector<SegmentSlice> slices(count);
    {
        std::vector<std::function<void()>> tasks;
        tasks.reserve(count);
        for (std::size_t i = 0; i < count; ++i)
            tasks.push_back([this, &slices, n, i] {
                slices[i] =
                    decodeSegment(segmentPayload(i), n, i);
            });
        std::vector<std::exception_ptr> errors;
        runIndexed(ioPool(), std::move(tasks), errors);
        for (std::size_t i = 0; i < count; ++i) {
            if (errors[i])
                std::rethrow_exception(errors[i]);
            appendSlice(rec, slices[i], io_base, i);
            slices[i] = SegmentSlice();
            if (i + 1 < count)
                rec.checkpoints.push_back(
                    segments_[i].endCheckpoint);
        }
    }
    rec.fingerprint.perProcAcc = per_proc_acc_;
    rec.fingerprint.perProcRetired = per_proc_retired_;
    rec.fingerprint.finalMemHash = final_mem_hash_;
    rec.stats.totalCycles = stats_[0];
    rec.stats.retiredInstrs = stats_[1];
    rec.stats.executedInstrs = stats_[2];
    rec.stats.committedChunks = stats_[3];
    rec.stats.squashes = stats_[4];
    rec.stats.overflowTruncations = stats_[5];
    rec.stats.collisionTruncations = stats_[6];
    rec.stats.hardTruncations = stats_[7];
    validateRecording(rec);
    return rec;
}

} // namespace delorean
