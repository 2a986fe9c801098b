#include "store/archive.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <fstream>
#include <functional>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "compress/lz77.hpp"
#include "core/serialize.hpp"
#include "core/serialize_detail.hpp"
#include "core/stratifier.hpp"
#include "sim/campaign.hpp"
#include "store/archive_detail.hpp"
#include "store/crc32.hpp"

namespace delorean
{

using serialize_detail::ByteCursor;
using serialize_detail::CheckpointExtent;
using serialize_detail::decodeCheckpoint;
using serialize_detail::getMachine;
using serialize_detail::getMode;
using serialize_detail::getString;
using serialize_detail::getU64;
using serialize_detail::putCheckpoint;
using serialize_detail::putMachine;
using serialize_detail::putMode;
using serialize_detail::putString;
using serialize_detail::scanCheckpoint;

namespace
{

constexpr std::uint64_t kArchiveMagic = 0x766372416F4C6544ull;  // "DeLoArcv"
constexpr std::uint64_t kSegmentMagic = 0x2E6765536F4C6544ull;  // "DeLoSeg."
constexpr std::uint64_t kArchiveEndMagic = 0x5A6372416F4C6544ull; // "DeLoArcZ"
// v2: the machine footer carries an arbiter count (12 u64s, the last
// always 1) and every PI slice a has-masks flag (always 0). Readers
// reject any other value.
constexpr std::uint64_t kArchiveVersion = 2;
constexpr std::size_t kHeaderBytes = 16;
constexpr std::size_t kSegmentHeaderBytes = 40;
constexpr std::size_t kTrailerBytes = 40;
constexpr std::uint64_t kMaxSegments = 1u << 20;

} // namespace

using namespace archive_detail;

// ----- shared container internals (store/archive_detail.hpp) ----------------

namespace archive_detail
{

Boundary
boundaryAtCheckpoint(const Recording &rec, const SystemCheckpoint &ckpt,
                     std::size_t segment)
{
    Boundary b;
    b.gcc = ckpt.gcc;
    b.dmaIdx = ckpt.dmaConsumed;
    b.committed = ckpt.committedChunks;
    for (const ThreadContext &ctx : ckpt.contexts)
        b.ioIdx.push_back(ctx.ioLoadCount);
    for (const ChunkSeq c : ckpt.committedChunks)
        b.chunkCommits += c;
    if (rec.stratified()) {
        // Find the stratum boundary matching this checkpoint. The
        // stratifier force-cuts at every checkpoint
        // (Stratifier::cutAtCheckpoint), so an exact match exists for
        // any recorder-produced recording.
        std::uint64_t chunks = 0;
        std::size_t dmas = 0;
        std::size_t idx = 0;
        while (chunks < b.chunkCommits || dmas < b.dmaIdx) {
            if (idx >= rec.strata.size())
                throw RecordingFormatError(
                    "checkpoint at GCC " + std::to_string(ckpt.gcc)
                    + " (segment " + std::to_string(segment)
                    + ") does not align with a stratum boundary");
            const Stratum &s = rec.strata[idx++];
            if (s.isDma) {
                ++dmas;
            } else {
                for (const auto c : s.counts)
                    chunks += c;
            }
        }
        if (chunks != b.chunkCommits || dmas != b.dmaIdx)
            throw RecordingFormatError(
                "checkpoint at GCC " + std::to_string(ckpt.gcc)
                + " (segment " + std::to_string(segment)
                + ") splits a stratum");
        b.strataIdx = idx;
    }
    return b;
}

Boundary
boundaryAtEnd(const Recording &rec)
{
    Boundary b;
    b.chunkCommits = rec.fingerprint.commits.size();
    b.gcc = b.chunkCommits + rec.dma.count();
    b.strataIdx = rec.strata.size();
    b.dmaIdx = rec.dma.count();
    const unsigned n = rec.machine.numProcs;
    b.committed.assign(n, 0);
    for (const CommitRecord &c : rec.fingerprint.commits)
        if (c.proc < n)
            b.committed[c.proc] =
                std::max<ChunkSeq>(b.committed[c.proc], c.seq + 1);
    for (ProcId p = 0; p < n; ++p)
        b.ioIdx.push_back(rec.io.countFor(p));
    return b;
}

/** Serialize the log slices between boundaries @p lo and @p hi. */
std::string
buildSegmentPayload(const Recording &rec, const Boundary &lo,
                    const Boundary &hi)
{
    std::ostringstream out(std::ios::binary);
    const auto put = [&out](std::uint64_t v) {
        serialize_detail::putU64(out, v);
    };
    const unsigned n = rec.machine.numProcs;

    // PI slice (flat modes; empty for stratified and PicoLog).
    std::uint64_t pi_lo = 0;
    std::uint64_t pi_hi = 0;
    if (!rec.stratified() && rec.mode.mode != ExecMode::kPicoLog) {
        pi_lo = std::min<std::uint64_t>(lo.gcc, rec.pi.entryCount());
        pi_hi = std::min<std::uint64_t>(hi.gcc, rec.pi.entryCount());
    }
    put(pi_hi - pi_lo);
    put(0); // has-masks flag
    for (std::uint64_t i = pi_lo; i < pi_hi; ++i)
        put(rec.pi.entryAt(i));

    // Strata slice.
    put(hi.strataIdx - lo.strataIdx);
    for (std::size_t i = lo.strataIdx; i < hi.strataIdx; ++i) {
        const Stratum &s = rec.strata[i];
        put(s.isDma ? 1 : 0);
        put(s.counts.size());
        for (const auto c : s.counts)
            put(c);
    }

    // CS slices: per-proc entries with seq in [lo, hi).
    for (ProcId p = 0; p < n; ++p) {
        std::vector<const CsEntry *> slice;
        for (const CsEntry &e : rec.cs[p].entries())
            if (e.seq >= lo.committed[p] && e.seq < hi.committed[p])
                slice.push_back(&e);
        put(slice.size());
        for (const CsEntry *e : slice) {
            put(e->seq);
            put(e->size);
            put(e->maxSize ? 1 : 0);
        }
    }

    // Interrupt slices (same per-proc chunk-seq windows).
    for (ProcId p = 0; p < n; ++p) {
        std::vector<const InterruptRecord *> slice;
        for (const InterruptRecord &e : rec.interrupts.entries(p))
            if (e.chunkSeq >= lo.committed[p]
                && e.chunkSeq < hi.committed[p])
                slice.push_back(&e);
        put(slice.size());
        for (const InterruptRecord *e : slice) {
            put(e->chunkSeq);
            put(e->type);
            put(e->data);
        }
    }

    // I/O slices: dense per-proc index windows.
    for (ProcId p = 0; p < n; ++p) {
        put(hi.ioIdx[p] - lo.ioIdx[p]);
        for (std::uint64_t i = lo.ioIdx[p]; i < hi.ioIdx[p]; ++i)
            put(rec.io.valueAt(p, i));
    }

    // DMA slice.
    put(hi.dmaIdx - lo.dmaIdx);
    for (std::size_t i = lo.dmaIdx; i < hi.dmaIdx; ++i) {
        const DmaTransfer &t = rec.dma.transferAt(i);
        put(rec.dma.slotAt(i));
        put(t.wordAddrs.size());
        for (std::size_t k = 0; k < t.wordAddrs.size(); ++k) {
            put(t.wordAddrs[k]);
            put(t.values[k]);
        }
    }

    // Fingerprint commit slice.
    put(hi.chunkCommits - lo.chunkCommits);
    for (std::uint64_t i = lo.chunkCommits; i < hi.chunkCommits; ++i) {
        const CommitRecord &c = rec.fingerprint.commits[i];
        put(c.proc);
        put(c.seq);
        put(c.size);
        put(c.accAfter);
    }
    return std::move(out).str();
}

} // namespace archive_detail

namespace
{

/**
 * Replay the recorder's variable-width log packing for the slice
 * between @p prev and @p cur onto the scratch logs, so the scratch
 * write pointers land exactly where a hardware recorder's would at
 * the boundary. Shared by the batch and streaming writers — the
 * footer's per-segment bit positions must agree bit-for-bit.
 */
void
advanceScratchLogs(const Recording &rec, const Boundary &prev,
                   const Boundary &cur, PiLog &scratch_pi,
                   std::vector<CsLog> &scratch_cs)
{
    const unsigned n = rec.machine.numProcs;
    if (!rec.stratified() && rec.mode.mode != ExecMode::kPicoLog) {
        for (std::uint64_t g = prev.gcc;
             g < std::min<std::uint64_t>(cur.gcc, rec.pi.entryCount());
             ++g)
            scratch_pi.append(rec.pi.entryAt(g));
    }
    for (ProcId p = 0; p < n; ++p)
        for (const CsEntry &e : rec.cs[p].entries())
            if (e.seq >= prev.committed[p]
                && e.seq < cur.committed[p]) {
                if (rec.mode.mode == ExecMode::kOrderAndSize)
                    scratch_cs[p].appendCommittedSize(e.seq, e.size,
                                                      e.maxSize);
                else
                    scratch_cs[p].appendTruncation(e.seq, e.size);
            }
}

/**
 * Serialize the footer: recording metadata plus the per-segment
 * index. Segment i's boundary checkpoint is rec.checkpoints[i] (every
 * checkpoint cuts one segment, in order). Shared by the batch and
 * streaming writers.
 */
std::string
buildFooterRaw(const Recording &rec,
               const std::vector<ArchiveSegmentInfo> &segments)
{
    std::ostringstream footer(std::ios::binary);
    putMachine(footer, rec.machine);
    putMode(footer, rec.mode);
    putString(footer, rec.appName);
    serialize_detail::putU64(footer, rec.workloadSeed);
    serialize_detail::putU64(footer, rec.iterationsPercent);
    serialize_detail::putU64(footer, rec.stats.totalCycles);
    serialize_detail::putU64(footer, rec.stats.retiredInstrs);
    serialize_detail::putU64(footer, rec.stats.executedInstrs);
    serialize_detail::putU64(footer, rec.stats.committedChunks);
    serialize_detail::putU64(footer, rec.stats.squashes);
    serialize_detail::putU64(footer, rec.stats.overflowTruncations);
    serialize_detail::putU64(footer, rec.stats.collisionTruncations);
    serialize_detail::putU64(footer, rec.stats.hardTruncations);
    serialize_detail::putU64(footer, rec.fingerprint.perProcAcc.size());
    for (std::size_t p = 0; p < rec.fingerprint.perProcAcc.size();
         ++p) {
        serialize_detail::putU64(footer, rec.fingerprint.perProcAcc[p]);
        serialize_detail::putU64(footer,
                                 rec.fingerprint.perProcRetired[p]);
    }
    serialize_detail::putU64(footer, rec.fingerprint.finalMemHash);
    if (segments.size() != rec.checkpoints.size() + 1)
        throw std::logic_error(
            "archive footer: segments and checkpoints disagree");
    serialize_detail::putU64(footer, segments.size());
    for (std::size_t i = 0; i < segments.size(); ++i) {
        const ArchiveSegmentInfo &info = segments[i];
        serialize_detail::putU64(footer, info.endGcc);
        serialize_detail::putU64(footer, info.fileOffset);
        serialize_detail::putU64(footer, info.rawBytes);
        serialize_detail::putU64(footer, info.compBytes);
        serialize_detail::putU64(footer, info.crc32);
        serialize_detail::putU64(footer, info.piBitsEnd);
        serialize_detail::putU64(footer, info.strataBitsEnd);
        serialize_detail::putU64(footer, info.csBitsEnd.size());
        for (const std::uint64_t bits : info.csBitsEnd)
            serialize_detail::putU64(footer, bits);
        serialize_detail::putU64(footer, info.hasCheckpoint ? 1 : 0);
        if (info.hasCheckpoint)
            putCheckpoint(footer, rec.checkpoints[i]);
    }
    return std::move(footer).str();
}

} // namespace

namespace archive_detail
{

SegmentSlice
parseSegmentPayload(const std::vector<std::uint8_t> &raw, unsigned n)
{
    ByteCursor in(raw.data(), raw.size());
    SegmentSlice s;
    const std::uint64_t pi_count = getU64(in);
    const std::uint64_t has_masks = getU64(in);
    if (has_masks != 0)
        throw RecordingFormatError("PI has-masks flag "
                                   + std::to_string(has_masks)
                                   + " is not 0");
    for (std::uint64_t i = 0; i < pi_count; ++i)
        s.pi.push_back(static_cast<ProcId>(getU64(in)));
    const std::uint64_t strata_count = getU64(in);
    for (std::uint64_t i = 0; i < strata_count; ++i) {
        Stratum st;
        st.isDma = getU64(in) != 0;
        const std::uint64_t c = getU64(in);
        if (c > 64)
            throw RecordingFormatError("stratum counter count "
                                       + std::to_string(c)
                                       + " outside [0, 64]");
        for (std::uint64_t k = 0; k < c; ++k)
            st.counts.push_back(static_cast<std::uint8_t>(getU64(in)));
        s.strata.push_back(std::move(st));
    }
    s.cs.resize(n);
    for (unsigned p = 0; p < n; ++p) {
        const std::uint64_t c = getU64(in);
        for (std::uint64_t k = 0; k < c; ++k) {
            CsEntry e;
            e.seq = getU64(in);
            e.size = getU64(in);
            e.maxSize = getU64(in) != 0;
            s.cs[p].push_back(e);
        }
    }
    s.interrupts.resize(n);
    for (unsigned p = 0; p < n; ++p) {
        const std::uint64_t c = getU64(in);
        for (std::uint64_t k = 0; k < c; ++k) {
            InterruptRecord e;
            e.chunkSeq = getU64(in);
            e.type = static_cast<std::uint8_t>(getU64(in));
            e.data = getU64(in);
            s.interrupts[p].push_back(e);
        }
    }
    s.io.resize(n);
    for (unsigned p = 0; p < n; ++p) {
        const std::uint64_t c = getU64(in);
        for (std::uint64_t k = 0; k < c; ++k)
            s.io[p].push_back(getU64(in));
    }
    const std::uint64_t dma_count = getU64(in);
    for (std::uint64_t i = 0; i < dma_count; ++i) {
        const std::uint64_t slot = getU64(in);
        const std::uint64_t words = getU64(in);
        DmaTransfer t;
        for (std::uint64_t k = 0; k < words; ++k) {
            t.wordAddrs.push_back(getU64(in));
            t.values.push_back(getU64(in));
        }
        s.dma.emplace_back(std::move(t), slot);
    }
    const std::uint64_t commits = getU64(in);
    for (std::uint64_t i = 0; i < commits; ++i) {
        CommitRecord c;
        c.proc = static_cast<ProcId>(getU64(in));
        c.seq = getU64(in);
        c.size = getU64(in);
        c.accAfter = getU64(in);
        s.commits.push_back(c);
    }
    return s;
}

std::vector<std::uint8_t>
compressPayload(const std::string &raw)
{
    Lz77Stream stream;
    stream.append(reinterpret_cast<const std::uint8_t *>(raw.data()),
                  raw.size());
    return stream.finish();
}

std::uint64_t
readU64At(const std::uint8_t *bytes, std::size_t offset)
{
    return serialize_detail::loadU64(bytes + offset);
}

void
runIndexed(std::unique_ptr<WorkerPool> &pool, unsigned threads,
           std::vector<std::function<void()>> tasks,
           std::vector<std::exception_ptr> &errors)
{
    errors.assign(tasks.size(), nullptr);
    if (tasks.size() == 1) {
        // A lone task (e.g. the one segment of a bounded seek) runs
        // here: no pool is built for it and no worker is woken.
        try {
            tasks[0]();
        } catch (...) {
            errors[0] = std::current_exception();
        }
        return;
    }
    std::vector<std::function<void()>> wrapped;
    wrapped.reserve(tasks.size());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        wrapped.push_back([&tasks, &errors, i] {
            try {
                tasks[i]();
            } catch (...) {
                errors[i] = std::current_exception();
            }
        });
    }
    if (!pool)
        pool = std::make_unique<WorkerPool>(threads);
    pool->runBatch(wrapped);
}

} // namespace archive_detail

// ----- options --------------------------------------------------------------

unsigned
defaultArchiveIoThreads()
{
    return campaignJobs();
}

unsigned
ArchiveIoOptions::resolvedIoThreads() const
{
    return ioThreads ? ioThreads : defaultArchiveIoThreads();
}

// ----- errors ---------------------------------------------------------------

const char *
archiveSectionName(ArchiveSection section)
{
    switch (section) {
    case ArchiveSection::kFileHeader:
        return "file header";
    case ArchiveSection::kSegment:
        return "segment";
    case ArchiveSection::kFooter:
        return "footer";
    case ArchiveSection::kTrailer:
        return "trailer";
    case ArchiveSection::kCheckpointIndex:
        return "checkpoint index";
    }
    return "unknown";
}

namespace
{

std::string
archiveErrorMessage(ArchiveSection section, std::size_t segment,
                    const std::string &what)
{
    std::string msg = "archive ";
    msg += archiveSectionName(section);
    if (section == ArchiveSection::kSegment
        && segment != ArchiveError::kNoSegment)
        msg += " " + std::to_string(segment);
    msg += ": " + what;
    return msg;
}

} // namespace

ArchiveError::ArchiveError(ArchiveSection section, std::size_t segment,
                           const std::string &what)
    : RecordingFormatError(archiveErrorMessage(section, segment, what)),
      section_(section), segment_(segment)
{
}

CheckpointOutOfRangeError::CheckpointOutOfRangeError(
    std::size_t index, std::size_t available, const std::string &what)
    : ArchiveError(ArchiveSection::kCheckpointIndex,
                   ArchiveError::kNoSegment, what),
      index_(index), available_(available)
{
}

// ----- writer ---------------------------------------------------------------

void
ArchiveWriter::putBytes(const std::uint8_t *data, std::size_t size)
{
    out_->write(reinterpret_cast<const char *>(data),
                static_cast<std::streamsize>(size));
    offset_ += size;
}

void
ArchiveWriter::putU64(std::uint64_t v)
{
    std::uint8_t bytes[8];
    for (int i = 0; i < 8; ++i)
        bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
    putBytes(bytes, 8);
}

void
ArchiveWriter::write(const Recording &rec)
{
    if (!segments_.empty())
        throw std::logic_error("ArchiveWriter::write called twice");
    for (std::size_t i = 1; i < rec.checkpoints.size(); ++i)
        if (rec.checkpoints[i].gcc <= rec.checkpoints[i - 1].gcc)
            throw RecordingFormatError(
                "checkpoints are not in ascending GCC order");

    putU64(kArchiveMagic);
    putU64(kArchiveVersion);

    const unsigned n = rec.machine.numProcs;

    // Exact per-proc log write-pointer positions at each boundary:
    // scratch logs replicate the recorder's variable-width packing.
    PiLog scratch_pi(n);
    std::vector<CsLog> scratch_cs(n, CsLog(rec.mode));
    const unsigned strata_counter_bits =
        rec.stratified()
            ? Stratifier(n, rec.mode.stratifyChunksPerProc)
                  .counterBits()
            : 0;

    Boundary zero; // state before the first segment
    zero.committed.assign(n, 0);
    zero.ioIdx.assign(n, 0);

    // Boundary chain first, serially: checkpoint-alignment errors
    // surface here in segment order, exactly as they always have.
    const std::size_t seg_count = rec.checkpoints.size() + 1;
    std::vector<Boundary> bounds;
    bounds.reserve(seg_count + 1);
    bounds.push_back(std::move(zero));
    for (std::size_t i = 0; i < rec.checkpoints.size(); ++i)
        bounds.push_back(
            boundaryAtCheckpoint(rec, rec.checkpoints[i], i));
    bounds.push_back(boundaryAtEnd(rec));

    // Fan payload build + LZ77 + CRC across the codec pool. Segments
    // are independent given their boundaries; the commit loop below
    // emits them in segment order, so the container bytes are
    // identical at any ioThreads (and with ioThreads=1 the pool runs
    // inline on this thread — the serial path *is* the 1-thread
    // case). The first failing segment's error is rethrown, lowest
    // index first, independent of worker scheduling.
    struct PackedSegment
    {
        std::uint64_t rawBytes = 0;
        std::vector<std::uint8_t> comp;
        std::uint64_t crc = 0;
    };
    std::vector<PackedSegment> packed(seg_count);
    {
        std::vector<std::function<void()>> tasks;
        tasks.reserve(seg_count);
        for (std::size_t i = 0; i < seg_count; ++i) {
            tasks.push_back([&rec, &bounds, &packed, i] {
                const std::string raw = buildSegmentPayload(
                    rec, bounds[i], bounds[i + 1]);
                PackedSegment &seg = packed[i];
                seg.rawBytes = raw.size();
                seg.comp = compressPayload(raw);
                seg.crc = crc32(seg.comp.data(), seg.comp.size());
            });
        }
        std::unique_ptr<WorkerPool> pool;
        std::vector<std::exception_ptr> errors;
        runIndexed(pool, io_.resolvedIoThreads(), std::move(tasks),
                   errors);
        for (const std::exception_ptr &e : errors)
            if (e)
                std::rethrow_exception(e);
    }

    for (std::size_t i = 0; i < seg_count; ++i) {
        const bool tail = i == rec.checkpoints.size();
        const Boundary &prev = bounds[i];
        const Boundary &cur = bounds[i + 1];
        PackedSegment &seg = packed[i];

        ArchiveSegmentInfo info;
        info.endGcc = cur.gcc;
        info.fileOffset = offset_;
        info.rawBytes = seg.rawBytes;
        info.compBytes = seg.comp.size();
        info.crc32 = seg.crc;
        advanceScratchLogs(rec, prev, cur, scratch_pi, scratch_cs);
        info.piBitsEnd = scratch_pi.sizeBits();
        info.strataBitsEnd = static_cast<std::uint64_t>(cur.strataIdx)
                             * n * strata_counter_bits;
        for (ProcId p = 0; p < n; ++p)
            info.csBitsEnd.push_back(scratch_cs[p].sizeBits());
        info.hasCheckpoint = !tail;

        putU64(kSegmentMagic);
        putU64(i);
        putU64(info.rawBytes);
        putU64(info.compBytes);
        putU64(info.crc32);
        putBytes(seg.comp.data(), seg.comp.size());
        segments_.push_back(std::move(info));
        // Committed; release the payload instead of holding every
        // segment's compressed bytes until the loop ends.
        std::vector<std::uint8_t>().swap(seg.comp);
    }

    // Footer: metadata + segment index, compressed like the segments.
    const std::string footer_raw = buildFooterRaw(rec, segments_);
    const std::vector<std::uint8_t> footer_comp =
        compressPayload(footer_raw);
    const std::uint64_t footer_offset = offset_;
    putBytes(footer_comp.data(), footer_comp.size());

    putU64(footer_offset);
    putU64(footer_comp.size());
    putU64(footer_raw.size());
    putU64(crc32(footer_comp.data(), footer_comp.size()));
    putU64(kArchiveEndMagic);

    if (!*out_)
        throw std::runtime_error("failed to write archive");
}

void
writeArchive(const Recording &rec, std::ostream &out,
             const ArchiveIoOptions &io)
{
    ArchiveWriter writer(out, io);
    writer.write(rec);
}

void
writeArchiveFile(const Recording &rec, const std::string &path,
                 const ArchiveIoOptions &io)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        throw std::runtime_error("cannot open " + path + " for write");
    writeArchive(rec, out, io);
}

// ----- streaming writer -----------------------------------------------------

/**
 * Two-thread pipeline. The *feeder* (recording) thread cuts segment
 * payloads synchronously — boundary math, buildSegmentPayload and the
 * scratch-log replication all read the live recording, which keeps
 * growing after each hook returns — and pushes owned Pending items
 * onto `staging`. The *flusher* thread compresses, CRCs and writes a
 * snatched batch; while it runs, the feeder keeps staging without
 * blocking (double buffering). Handoff is by join: the feeder only
 * touches `flushing`, `segments`, the pool and the stream after
 * observing flush_done and joining, so no mutex is needed.
 */
struct StreamingArchiveWriter::Impl
{
    std::ostream *out;
    ArchiveIoOptions io;
    std::uint64_t offset = 0;

    bool initialized = false;
    bool is_closed = false;

    // Scratch logs replicating the recorder's bit packing (footer
    // bit-position index); see ArchiveWriter::write.
    unsigned n = 0;
    unsigned strata_counter_bits = 0;
    PiLog scratch_pi{1};
    std::vector<CsLog> scratch_cs;

    Boundary last;                 ///< frontier at the last cut
    std::uint64_t last_gcc = 0;    ///< last checkpoint GCC
    std::size_t fed = 0;           ///< checkpoints consumed
    std::size_t staged = 0;        ///< segments cut so far

    /// A cut segment between payload build and file commit.
    struct Pending
    {
        ArchiveSegmentInfo info; ///< compBytes/crc/offset filled late
        std::string raw;
    };
    std::vector<Pending> staging;  ///< feeder-owned accumulation
    std::vector<Pending> flushing; ///< flusher-owned batch
    std::thread flusher;
    std::atomic<bool> flush_done{true};
    std::exception_ptr flush_error;
    std::unique_ptr<WorkerPool> pool;
    std::vector<ArchiveSegmentInfo> segments; ///< committed, in order

    explicit Impl(std::ostream &o, const ArchiveIoOptions &opts)
        : out(&o), io(opts)
    {
    }

    ~Impl()
    {
        if (flusher.joinable())
            flusher.join();
    }

    void
    putBytes(const std::uint8_t *data, std::size_t size)
    {
        out->write(reinterpret_cast<const char *>(data),
                   static_cast<std::streamsize>(size));
        offset += size;
    }

    void
    putU64(std::uint64_t v)
    {
        std::uint8_t bytes[8];
        for (int i = 0; i < 8; ++i)
            bytes[i] = static_cast<std::uint8_t>(v >> (8 * i));
        putBytes(bytes, 8);
    }

    void
    ensureInit(const Recording &rec)
    {
        if (initialized)
            return;
        n = rec.machine.numProcs;
        scratch_pi = PiLog(n);
        scratch_cs.assign(n, CsLog(rec.mode));
        strata_counter_bits =
            rec.stratified()
                ? Stratifier(n, rec.mode.stratifyChunksPerProc)
                      .counterBits()
                : 0;
        last = Boundary{};
        last.committed.assign(n, 0);
        last.ioIdx.assign(n, 0);
        putU64(kArchiveMagic);
        putU64(kArchiveVersion);
        initialized = true;
    }

    /** Rethrow a flusher failure on the feeder thread. */
    void
    rethrowFlushError()
    {
        if (flush_error) {
            is_closed = true; // poisoned: the stream is mid-segment
            std::exception_ptr e = flush_error;
            flush_error = nullptr;
            std::rethrow_exception(e);
        }
    }

    /**
     * Compress the current `flushing` batch over the codec pool, then
     * commit the segments to the stream in order. Runs on the flusher
     * thread (or inline from close() for the final drain).
     */
    void
    flushBatch()
    {
        const std::size_t count = flushing.size();
        std::vector<std::vector<std::uint8_t>> comp(count);
        std::vector<std::function<void()>> tasks;
        tasks.reserve(count);
        for (std::size_t i = 0; i < count; ++i)
            tasks.push_back([this, &comp, i] {
                comp[i] = compressPayload(flushing[i].raw);
            });
        std::vector<std::exception_ptr> errors;
        runIndexed(pool, io.resolvedIoThreads(), std::move(tasks),
                   errors);
        for (const std::exception_ptr &e : errors)
            if (e)
                std::rethrow_exception(e);
        for (std::size_t i = 0; i < count; ++i) {
            Pending &p = flushing[i];
            p.info.fileOffset = offset;
            p.info.compBytes = comp[i].size();
            p.info.crc32 = crc32(comp[i].data(), comp[i].size());
            putU64(kSegmentMagic);
            putU64(segments.size());
            putU64(p.info.rawBytes);
            putU64(p.info.compBytes);
            putU64(p.info.crc32);
            putBytes(comp[i].data(), comp[i].size());
            segments.push_back(std::move(p.info));
            std::vector<std::uint8_t>().swap(comp[i]);
        }
        flushing.clear();
        if (!*out)
            throw std::runtime_error("failed to write archive");
    }

    /**
     * Hand staged work to the flusher. Non-blocking while a batch is
     * in flight; when the flusher is idle, join it, surface its
     * error (if any), and launch it on the accumulated batch.
     */
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

    /** Block until the flusher is idle and its batch is committed. */
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

    /**
     * Cut the segment (last, hi] and stage it for the flusher. Its
     * checkpoint, if any, is the recording's next one; the footer
     * reads it from the finished recording at close().
     */
    void
    stage(const Recording &rec, const Boundary &hi, bool has_checkpoint)
    {
        Pending p;
        p.raw = buildSegmentPayload(rec, last, hi);
        p.info.endGcc = hi.gcc;
        p.info.rawBytes = p.raw.size();
        advanceScratchLogs(rec, last, hi, scratch_pi, scratch_cs);
        p.info.piBitsEnd = scratch_pi.sizeBits();
        p.info.strataBitsEnd =
            static_cast<std::uint64_t>(hi.strataIdx) * n
            * strata_counter_bits;
        for (ProcId q = 0; q < n; ++q)
            p.info.csBitsEnd.push_back(scratch_cs[q].sizeBits());
        p.info.hasCheckpoint = has_checkpoint;
        staging.push_back(std::move(p));
        last = hi;
        ++staged;
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
            stage(rec, hi, true);
            last_gcc = ckpt.gcc;
            ++fed;
        }
    }
};

StreamingArchiveWriter::StreamingArchiveWriter(
    std::ostream &out, const ArchiveIoOptions &io)
    : impl_(std::make_unique<Impl>(out, io))
{
}

StreamingArchiveWriter::~StreamingArchiveWriter() = default;

void
StreamingArchiveWriter::onCheckpoint(const Recording &rec)
{
    if (impl_->is_closed)
        throw std::logic_error(
            "StreamingArchiveWriter used after close");
    impl_->feed(rec);
    impl_->pump();
}

void
StreamingArchiveWriter::close(const Recording &rec)
{
    Impl &im = *impl_;
    if (im.is_closed)
        throw std::logic_error(
            "StreamingArchiveWriter::close called twice");
    im.feed(rec);
    im.stage(rec, boundaryAtEnd(rec), false); // tail segment
    im.drain();

    const std::string footer_raw = buildFooterRaw(rec, im.segments);
    const std::vector<std::uint8_t> footer_comp =
        compressPayload(footer_raw);
    const std::uint64_t footer_offset = im.offset;
    im.putBytes(footer_comp.data(), footer_comp.size());
    im.putU64(footer_offset);
    im.putU64(footer_comp.size());
    im.putU64(footer_raw.size());
    im.putU64(crc32(footer_comp.data(), footer_comp.size()));
    im.putU64(kArchiveEndMagic);
    if (!*im.out)
        throw std::runtime_error("failed to write archive");
    im.out->flush();
    im.is_closed = true;
}

bool
StreamingArchiveWriter::closed() const
{
    return impl_->is_closed;
}

std::size_t
StreamingArchiveWriter::segmentCount() const
{
    return impl_->staged;
}

// ----- reader ---------------------------------------------------------------

bool
ArchiveReader::looksLikeArchive(const std::uint8_t *bytes,
                                std::size_t size)
{
    if (size < 8)
        return false;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(bytes[i]) << (8 * i);
    return v == kArchiveMagic;
}

bool
ArchiveReader::fileLooksLikeArchive(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::uint8_t head[8];
    in.read(reinterpret_cast<char *>(head), 8);
    return in && looksLikeArchive(head, 8);
}

ArchiveReader::ArchiveReader(ArchiveReader &&) noexcept = default;
ArchiveReader &
ArchiveReader::operator=(ArchiveReader &&) noexcept = default;
ArchiveReader::~ArchiveReader() = default;

ArchiveReader
ArchiveReader::fromBytes(std::vector<std::uint8_t> bytes,
                         const ArchiveIoOptions &io)
{
    ArchiveReader reader;
    reader.owned_ = std::move(bytes);
    reader.data_ = reader.owned_.data();
    reader.size_ = reader.owned_.size();
    reader.io_ = io;
    reader.parse();
    return reader;
}

ArchiveReader
ArchiveReader::fromFile(const std::string &path,
                        const ArchiveIoOptions &io)
{
    if (io.mmapReads) {
        ArchiveReader reader;
        if (reader.map_.open(path)) {
            reader.data_ = reader.map_.data();
            reader.size_ = reader.map_.size();
            reader.io_ = io;
            reader.parse();
            return reader;
        }
        // Fall through to the buffered path: mapping is best-effort
        // and both paths parse and fail identically.
    }
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot open " + path);
    std::vector<std::uint8_t> bytes(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    return fromBytes(std::move(bytes), io);
}

void
ArchiveReader::parse()
{
    if (size_ < kHeaderBytes
        || readU64At(data_, 0) != kArchiveMagic)
        throw ArchiveError(ArchiveSection::kFileHeader,
                           ArchiveError::kNoSegment,
                           "not a DeLorean archive");
    if (readU64At(data_, 8) != kArchiveVersion)
        throw ArchiveError(ArchiveSection::kFileHeader,
                           ArchiveError::kNoSegment,
                           "unsupported archive version "
                               + std::to_string(readU64At(data_, 8)));
    if (size_ < kHeaderBytes + kTrailerBytes)
        throw ArchiveError(ArchiveSection::kTrailer,
                           ArchiveError::kNoSegment,
                           "file too small for a trailer");

    const std::size_t trailer = size_ - kTrailerBytes;
    if (readU64At(data_, trailer + 32) != kArchiveEndMagic)
        throw ArchiveError(ArchiveSection::kTrailer,
                           ArchiveError::kNoSegment,
                           "end magic missing (truncated archive?)");
    const std::uint64_t footer_offset = readU64At(data_, trailer);
    const std::uint64_t footer_comp = readU64At(data_, trailer + 8);
    const std::uint64_t footer_raw = readU64At(data_, trailer + 16);
    const std::uint64_t footer_crc = readU64At(data_, trailer + 24);
    if (footer_offset < kHeaderBytes || footer_comp > size_
        || footer_offset + footer_comp > trailer)
        throw ArchiveError(ArchiveSection::kTrailer,
                           ArchiveError::kNoSegment,
                           "footer location out of bounds");

    if (crc32(data_ + footer_offset,
              static_cast<std::size_t>(footer_comp))
        != footer_crc)
        throw ArchiveError(ArchiveSection::kFooter,
                           ArchiveError::kNoSegment,
                           "footer CRC mismatch");

    try {
        const Lz77 codec;
        footer_ = codec.decompress(
            data_ + footer_offset,
            static_cast<std::size_t>(footer_comp));
    } catch (const RecordingFormatError &e) {
        throw ArchiveError(ArchiveSection::kFooter,
                           ArchiveError::kNoSegment, e.what());
    }
    if (footer_.size() != footer_raw)
        throw ArchiveError(ArchiveSection::kFooter,
                           ArchiveError::kNoSegment,
                           "footer decompressed size mismatch");

    try {
        ByteCursor in(footer_.data(), footer_.size());
        machine_ = getMachine(in);
        mode_ = getMode(in);
        validateRecordingConfigs(machine_, mode_);
        app_name_ = getString(in);
        workload_seed_ = getU64(in);
        iterations_percent_ = static_cast<unsigned>(getU64(in));
        for (int k = 0; k < 8; ++k)
            stats_[k] = getU64(in);
        const std::uint64_t procs = getU64(in);
        if (procs != machine_.numProcs)
            throw RecordingFormatError(
                "fingerprint per-proc count does not match numProcs");
        for (std::uint64_t p = 0; p < procs; ++p) {
            per_proc_acc_.push_back(getU64(in));
            per_proc_retired_.push_back(getU64(in));
        }
        final_mem_hash_ = getU64(in);
        const std::uint64_t seg_count = getU64(in);
        if (seg_count == 0 || seg_count > kMaxSegments)
            throw RecordingFormatError(
                "segment count " + std::to_string(seg_count)
                + " outside [1, " + std::to_string(kMaxSegments)
                + "]");
        for (std::uint64_t i = 0; i < seg_count; ++i) {
            ArchiveSegmentInfo info;
            info.endGcc = getU64(in);
            info.fileOffset = getU64(in);
            info.rawBytes = getU64(in);
            info.compBytes = getU64(in);
            info.crc32 = getU64(in);
            info.piBitsEnd = getU64(in);
            info.strataBitsEnd = getU64(in);
            const std::uint64_t cs_count = getU64(in);
            if (cs_count != machine_.numProcs)
                throw RecordingFormatError(
                    "segment " + std::to_string(i)
                    + " CS bit-position count does not match numProcs");
            for (std::uint64_t p = 0; p < cs_count; ++p)
                info.csBitsEnd.push_back(getU64(in));
            info.hasCheckpoint = getU64(in) != 0;
            if (info.hasCheckpoint) {
                // Walk the image, don't decode it: the walk makes
                // every check the decode would, so checkpointAt()
                // cannot fail later on bytes accepted here.
                const CheckpointExtent image = scanCheckpoint(
                    footer_.data() + in.offset(), in.remaining(),
                    in.remaining());
                if (image.contexts != machine_.numProcs)
                    throw RecordingFormatError(
                        "segment " + std::to_string(i)
                        + " checkpoint context count does not match "
                          "numProcs");
                if (image.gcc != info.endGcc)
                    throw RecordingFormatError(
                        "segment " + std::to_string(i)
                        + " checkpoint GCC disagrees with the index");
                image_spans_.push_back({in.offset(), image.bytes});
                in.take(image.bytes);
            }
            segments_.push_back(std::move(info));
        }
    } catch (const ArchiveError &) {
        throw;
    } catch (const RecordingFormatError &e) {
        throw ArchiveError(ArchiveSection::kFooter,
                           ArchiveError::kNoSegment, e.what());
    }

    // Index sanity: offsets in bounds, boundaries ascending, only the
    // tail segment may lack a checkpoint.
    std::uint64_t prev_gcc = 0;
    for (std::size_t i = 0; i < segments_.size(); ++i) {
        const ArchiveSegmentInfo &info = segments_[i];
        if (info.fileOffset < kHeaderBytes
            || info.compBytes > size_
            || info.fileOffset + kSegmentHeaderBytes + info.compBytes
                   > footer_offset)
            throw ArchiveError(ArchiveSection::kFooter,
                               ArchiveError::kNoSegment,
                               "segment " + std::to_string(i)
                                   + " location out of bounds");
        if (i > 0 && info.endGcc < prev_gcc)
            throw ArchiveError(ArchiveSection::kFooter,
                               ArchiveError::kNoSegment,
                               "segment boundaries not ascending");
        prev_gcc = info.endGcc;
        const bool tail = i + 1 == segments_.size();
        if (tail == info.hasCheckpoint)
            throw ArchiveError(
                ArchiveSection::kFooter, ArchiveError::kNoSegment,
                tail ? "tail segment carries a checkpoint"
                     : "non-tail segment "
                           + std::to_string(i)
                           + " lacks a checkpoint");
    }
    images_.resize(image_spans_.size());
}

std::size_t
ArchiveReader::checkpointCount() const
{
    return segments_.size() - 1;
}

std::vector<std::uint64_t>
ArchiveReader::checkpointGccs() const
{
    // Index GCCs: parse() checked each equals its image's GCC.
    std::vector<std::uint64_t> gccs;
    gccs.reserve(checkpointCount());
    for (std::size_t i = 0; i < checkpointCount(); ++i)
        gccs.push_back(segments_[i].endGcc);
    return gccs;
}

const SystemCheckpoint &
ArchiveReader::checkpointAt(std::size_t index) const
{
    if (index >= checkpointCount())
        throw CheckpointOutOfRangeError(
            index, checkpointCount(),
            "checkpoint " + std::to_string(index) + " of "
                + std::to_string(checkpointCount()));
    return image(index);
}

const SystemCheckpoint &
ArchiveReader::image(std::size_t index) const
{
    std::unique_ptr<const SystemCheckpoint> &slot = images_[index];
    if (!slot) {
        const ImageSpan span = image_spans_[index];
        try {
            slot = std::make_unique<const SystemCheckpoint>(
                decodeCheckpoint(footer_.data() + span.offset,
                                 span.bytes));
        } catch (const RecordingFormatError &e) {
            throw ArchiveError(ArchiveSection::kFooter, index,
                               std::string("checkpoint image: ")
                                   + e.what());
        }
    }
    return *slot;
}

std::vector<std::uint8_t>
ArchiveReader::segmentPayload(std::size_t index) const
{
    const ArchiveSegmentInfo &info = segments_[index];
    const std::size_t off =
        static_cast<std::size_t>(info.fileOffset);
    if (readU64At(data_, off) != kSegmentMagic)
        throw ArchiveError(ArchiveSection::kSegment, index,
                           "segment magic missing at offset "
                               + std::to_string(off));
    if (readU64At(data_, off + 8) != index)
        throw ArchiveError(ArchiveSection::kSegment, index,
                           "segment header id "
                               + std::to_string(readU64At(data_,
                                                          off + 8))
                               + " disagrees with the index");
    if (readU64At(data_, off + 16) != info.rawBytes
        || readU64At(data_, off + 24) != info.compBytes
        || readU64At(data_, off + 32) != info.crc32)
        throw ArchiveError(ArchiveSection::kSegment, index,
                           "segment header disagrees with the footer "
                           "index");
    const std::uint8_t *payload = data_ + off + kSegmentHeaderBytes;
    if (crc32(payload, static_cast<std::size_t>(info.compBytes))
        != info.crc32)
        throw ArchiveError(ArchiveSection::kSegment, index,
                           "payload CRC mismatch");
    std::vector<std::uint8_t> raw;
    try {
        const Lz77 codec;
        raw = codec.decompress(
            payload, static_cast<std::size_t>(info.compBytes));
    } catch (const RecordingFormatError &e) {
        throw ArchiveError(ArchiveSection::kSegment, index, e.what());
    }
    if (raw.size() != info.rawBytes)
        throw ArchiveError(ArchiveSection::kSegment, index,
                           "decompressed size mismatch");
    return raw;
}

namespace archive_detail
{

SegmentSlice
decodeSegment(const std::vector<std::uint8_t> &raw, unsigned num_procs,
              std::size_t index)
{
    try {
        return parseSegmentPayload(raw, num_procs);
    } catch (const ArchiveError &) {
        throw;
    } catch (const RecordingFormatError &e) {
        throw ArchiveError(ArchiveSection::kSegment, index, e.what());
    }
}

Recording
skeletonRecording(const MachineConfig &machine, const ModeConfig &mode,
                  const std::string &app, std::uint64_t seed,
                  unsigned iterations)
{
    Recording rec;
    rec.machine = machine;
    rec.mode = mode;
    rec.appName = app;
    rec.workloadSeed = seed;
    rec.iterationsPercent = iterations;
    rec.pi = PiLog(machine.numProcs);
    rec.cs.assign(machine.numProcs, CsLog(mode));
    rec.interrupts = InterruptLog(machine.numProcs);
    rec.io = IoLog(machine.numProcs);
    return rec;
}

void
appendSlice(Recording &rec, const SegmentSlice &slice,
            std::vector<std::uint64_t> &io_base, std::size_t segment)
{
    const unsigned n = rec.machine.numProcs;
    for (const ProcId p : slice.pi) {
        if (p >= n && p != kDmaProcId)
            throw ArchiveError(ArchiveSection::kSegment, segment,
                               "PI entry names proc "
                                   + std::to_string(p));
        rec.pi.append(p);
    }
    for (const Stratum &s : slice.strata)
        rec.strata.push_back(s);
    for (ProcId p = 0; p < n; ++p) {
        for (const CsEntry &e : slice.cs[p]) {
            if (rec.mode.mode == ExecMode::kOrderAndSize)
                rec.cs[p].appendCommittedSize(e.seq, e.size, e.maxSize);
            else
                rec.cs[p].appendTruncation(e.seq, e.size);
        }
        for (const InterruptRecord &e : slice.interrupts[p])
            rec.interrupts.append(p, e);
        for (std::size_t k = 0; k < slice.io[p].size(); ++k)
            rec.io.append(p, io_base[p] + k, slice.io[p][k]);
        io_base[p] += slice.io[p].size();
    }
    for (const auto &[xfer, slot] : slice.dma)
        rec.dma.append(xfer, slot);
    for (const CommitRecord &c : slice.commits)
        rec.fingerprint.commits.push_back(c);
}

void
appendSyntheticPrefix(Recording &rec, const SystemCheckpoint &start)
{
    const unsigned n = rec.machine.numProcs;
    std::uint64_t chunk0 = 0;
    for (const ChunkSeq c : start.committedChunks)
        chunk0 += c;
    const std::size_t dma0 = start.dmaConsumed;

    if (rec.stratified()) {
        for (std::size_t i = 0; i < dma0; ++i) {
            Stratum s;
            s.isDma = true;
            s.counts.assign(n, 0);
            rec.strata.push_back(std::move(s));
        }
        std::vector<std::uint64_t> need(start.committedChunks.begin(),
                                        start.committedChunks.end());
        const std::uint64_t cap = std::max<std::uint64_t>(
            1, rec.mode.stratifyChunksPerProc);
        bool any = true;
        while (any) {
            any = false;
            Stratum s;
            s.counts.assign(n, 0);
            for (unsigned p = 0; p < n; ++p) {
                const std::uint64_t take =
                    std::min<std::uint64_t>(need[p], cap);
                s.counts[p] = static_cast<std::uint8_t>(take);
                need[p] -= take;
                any = any || take;
            }
            if (any)
                rec.strata.push_back(std::move(s));
        }
    } else if (rec.mode.mode != ExecMode::kPicoLog) {
        for (std::size_t i = 0; i < dma0; ++i)
            rec.pi.append(kDmaProcId);
        for (std::uint64_t i = 0; i < start.gcc - dma0; ++i)
            rec.pi.append(0);
    }
    for (std::size_t i = 0; i < dma0; ++i)
        rec.dma.append(DmaTransfer{}, 0);
    rec.fingerprint.commits.assign(static_cast<std::size_t>(chunk0),
                                   CommitRecord{});
}

} // namespace archive_detail

Recording
ArchiveReader::readAll() const
{
    Recording rec = skeletonRecording(machine_, mode_, app_name_,
                                      workload_seed_,
                                      iterations_percent_);
    std::vector<std::uint64_t> io_base(machine_.numProcs, 0);

    // CRC + decompress + parse every segment in parallel, then append
    // in segment order. Each segment's decode error (or successful
    // slice) lands in its own slot, and the append loop consumes the
    // slots in order — the first error to surface is the one the old
    // serial decode-then-append loop would have hit, at any ioThreads.
    const std::size_t count = segments_.size();
    std::vector<SegmentSlice> slices(count);
    {
        std::vector<std::function<void()>> tasks;
        tasks.reserve(count);
        for (std::size_t i = 0; i < count; ++i)
            tasks.push_back([this, &slices, i] {
                slices[i] = decodeSegment(segmentPayload(i),
                                          machine_.numProcs, i);
                if (segments_[i].hasCheckpoint)
                    image(i); // each task fills only its own slot
            });
        std::vector<std::exception_ptr> errors;
        runIndexed(pool_, io_.resolvedIoThreads(), std::move(tasks),
                   errors);
        for (std::size_t i = 0; i < count; ++i) {
            if (errors[i])
                std::rethrow_exception(errors[i]);
            appendSlice(rec, slices[i], io_base, i);
            slices[i] = SegmentSlice(); // free as we go
            if (segments_[i].hasCheckpoint)
                rec.checkpoints.push_back(image(i));
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

Recording
ArchiveReader::readInterval(std::size_t from, std::size_t to) const
{
    if (from >= checkpointCount())
        throw CheckpointOutOfRangeError(
            from, checkpointCount(),
            "interval start checkpoint " + std::to_string(from)
                + " of " + std::to_string(checkpointCount()));
    const std::size_t last_seg =
        to == kToEnd ? segments_.size() - 1 : to;
    if (to != kToEnd && (to <= from || to >= checkpointCount()))
        throw CheckpointOutOfRangeError(
            to, checkpointCount(),
            "interval [" + std::to_string(from) + ", "
                + std::to_string(to)
                + ") is not a valid checkpoint pair");

    Recording rec = skeletonRecording(machine_, mode_, app_name_,
                                      workload_seed_,
                                      iterations_percent_);
    const unsigned n = machine_.numProcs;
    const SystemCheckpoint &start = image(from);

    // Synthetic prefix (consumed by the replay skip logic), then only
    // the segments covering the interval.
    appendSyntheticPrefix(rec, start);
    std::vector<std::uint64_t> io_base;
    for (const ThreadContext &ctx : start.contexts)
        io_base.push_back(ctx.ioLoadCount);
    const std::size_t first = from + 1;
    const std::size_t count = last_seg - from;
    std::vector<SegmentSlice> slices(count);
    {
        std::vector<std::function<void()>> tasks;
        tasks.reserve(count);
        for (std::size_t k = 0; k < count; ++k)
            tasks.push_back([this, &slices, first, n, k] {
                slices[k] = decodeSegment(segmentPayload(first + k),
                                          n, first + k);
            });
        std::vector<std::exception_ptr> errors;
        runIndexed(pool_, io_.resolvedIoThreads(), std::move(tasks),
                   errors);
        for (std::size_t k = 0; k < count; ++k) {
            if (errors[k])
                std::rethrow_exception(errors[k]);
            appendSlice(rec, slices[k], io_base, first + k);
            slices[k] = SegmentSlice();
        }
    }

    rec.fingerprint.perProcAcc = per_proc_acc_;
    rec.fingerprint.perProcRetired = per_proc_retired_;
    rec.fingerprint.finalMemHash = final_mem_hash_;
    rec.checkpoints.push_back(start);
    if (to != kToEnd)
        rec.checkpoints.push_back(image(to));
    validateRecording(rec);
    return rec;
}

} // namespace delorean
