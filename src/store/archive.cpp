#include "store/archive.hpp"

#include <algorithm>
#include <exception>
#include <fstream>
#include <functional>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "compress/lz77.hpp"
#include "core/serialize.hpp"
#include "core/serialize_detail.hpp"
#include "sim/campaign.hpp"
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
using serialize_detail::scanImage;

namespace
{

constexpr std::uint64_t kArchiveMagic = 0x766372416F4C6544ull;  // "DeLoArcv"
constexpr std::uint64_t kSegmentMagic = 0x2E6765536F4C6544ull;  // "DeLoSeg."
constexpr std::uint64_t kArchiveEndMagic = 0x5A6372416F4C6544ull; // "DeLoArcZ"
// v2: the machine footer carries an arbiter count (12 u64s, the last
// always 1) and every PI slice a has-masks flag (always 0).
// v3: a footer checkpoint is a keyframe or a delta (its kind replaces
// the has-checkpoint flag).
// v4: images are encoded as gap lists and context diffs, and the
// footer is stored raw (CRC-checked, no LZ77); the trailer lost its
// compressed-size field.
// v5: a segment is a record (archive_detail::kRecordHeaderBytes) that
// holds its end checkpoint's image, so each image is stored once, and
// the footer holds only the run metadata and the record index.
// v6: the two constant v2 fields are gone: the machine header is 11
// u64s and a PI slice starts with its entry count. Readers reject any
// other version.
constexpr std::uint64_t kArchiveVersion = 6;
constexpr std::size_t kHeaderBytes = 16;
constexpr std::size_t kTrailerBytes = 32;
/// Image and payload size cap of one record: fences OOM on garbage.
/// The writer refuses a larger part (recordHeader).
constexpr std::uint64_t kMaxRecordPartBytes = 1ull << 30;

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

/** Decoded counterpart of buildSegmentPayload. */
struct SegmentSlice
{
    std::vector<ProcId> pi;
    std::vector<Stratum> strata;
    std::vector<std::vector<CsEntry>> cs;
    std::vector<std::vector<InterruptRecord>> interrupts;
    std::vector<std::vector<std::uint64_t>> io;
    std::vector<std::pair<DmaTransfer, std::uint64_t>> dma;
    std::vector<CommitRecord> commits;
};

/** Parse a raw (decompressed) payload for @p n processors. */
SegmentSlice
parseSegmentPayload(const std::vector<std::uint8_t> &raw, unsigned n)
{
    ByteCursor in(raw.data(), raw.size());
    SegmentSlice s;
    const std::uint64_t pi_count = getU64(in);
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

/** Append one decoded segment slice onto @p rec's logs. */
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

/**
 * Append the synthetic pre-interval prefix implied by @p start onto a
 * fresh skeleton: filler PI entries / capped strata, empty DMA
 * transfers and zeroed fingerprint commits sized so the replay skip
 * logic consumes exactly the recording prefix the interval omits.
 */
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

} // namespace

namespace archive_detail
{

std::vector<std::uint8_t>
compressPayload(const std::string &raw)
{
    Lz77Stream stream;
    stream.append(reinterpret_cast<const std::uint8_t *>(raw.data()),
                  raw.size());
    return stream.finish();
}

std::vector<std::uint8_t>
decodePayload(const std::uint8_t *comp, const ArchiveSegmentInfo &info,
              std::size_t segment)
{
    const auto bytes = static_cast<std::size_t>(info.compBytes);
    if (crc32(comp, bytes) != info.crc32)
        throw ArchiveError(ArchiveSection::kSegment, segment,
                           "payload CRC mismatch");
    std::vector<std::uint8_t> raw;
    try {
        raw = Lz77().decompress(comp, bytes);
    } catch (const RecordingFormatError &e) {
        throw ArchiveError(ArchiveSection::kSegment, segment,
                           std::string("payload: ") + e.what());
    }
    if (raw.size() != info.rawBytes)
        throw ArchiveError(ArchiveSection::kSegment, segment,
                           "payload decompressed size mismatch");
    return raw;
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

void
FinalStats::put(std::ostream &out, const Recording &rec)
{
    serialize_detail::putU64(out, rec.stats.totalCycles);
    serialize_detail::putU64(out, rec.stats.retiredInstrs);
    serialize_detail::putU64(out, rec.stats.executedInstrs);
    serialize_detail::putU64(out, rec.stats.committedChunks);
    serialize_detail::putU64(out, rec.stats.squashes);
    serialize_detail::putU64(out, rec.stats.overflowTruncations);
    serialize_detail::putU64(out, rec.stats.collisionTruncations);
    serialize_detail::putU64(out, rec.stats.hardTruncations);
    serialize_detail::putU64(out, rec.fingerprint.perProcAcc.size());
    for (std::size_t p = 0; p < rec.fingerprint.perProcAcc.size(); ++p) {
        serialize_detail::putU64(out, rec.fingerprint.perProcAcc[p]);
        serialize_detail::putU64(out, rec.fingerprint.perProcRetired[p]);
    }
    serialize_detail::putU64(out, rec.fingerprint.finalMemHash);
}

FinalStats
FinalStats::get(ByteCursor &in, unsigned num_procs)
{
    FinalStats f;
    f.engine.totalCycles = getU64(in);
    f.engine.retiredInstrs = getU64(in);
    f.engine.executedInstrs = getU64(in);
    f.engine.committedChunks = getU64(in);
    f.engine.squashes = getU64(in);
    f.engine.overflowTruncations = getU64(in);
    f.engine.collisionTruncations = getU64(in);
    f.engine.hardTruncations = getU64(in);
    if (getU64(in) != num_procs)
        throw RecordingFormatError(
            "fingerprint per-proc count does not match numProcs");
    for (unsigned p = 0; p < num_procs; ++p) {
        f.perProcAcc.push_back(getU64(in));
        f.perProcRetired.push_back(getU64(in));
    }
    f.finalMemHash = getU64(in);
    return f;
}

void
FinalStats::applyTo(Recording &rec, bool engine_stats) const
{
    rec.fingerprint.perProcAcc = perProcAcc;
    rec.fingerprint.perProcRetired = perProcRetired;
    rec.fingerprint.finalMemHash = finalMemHash;
    if (engine_stats)
        rec.stats = engine;
}

std::string
recordHeader(const CutSegment &seg)
{
    // scanRecord rejects a larger part, so never write one.
    if (seg.image.size() > kMaxRecordPartBytes
        || seg.raw.size() > kMaxRecordPartBytes
        || seg.comp.size() > kMaxRecordPartBytes)
        throw std::length_error(
            "segment " + std::to_string(seg.index)
            + ": image or payload above the 1 GiB record cap; "
              "checkpoint more often");
    const auto crc = [](const auto &bytes) {
        return crc32(reinterpret_cast<const std::uint8_t *>(bytes.data()),
                     bytes.size());
    };
    const std::uint64_t fields[] = {
        kSegmentMagic,    seg.index,      seg.startGcc,
        seg.endGcc,       seg.imageKind,  seg.image.size(),
        crc(seg.image),   seg.raw.size(), seg.comp.size(),
        crc(seg.comp)};
    std::string header(kRecordHeaderBytes, '\0');
    auto *p = reinterpret_cast<std::uint8_t *>(header.data());
    for (std::size_t k = 0; k < std::size(fields); ++k)
        serialize_detail::storeU64(p + 8 * k, fields[k]);
    serialize_detail::storeU64(p + kRecordHeaderBytes - 8,
                               crc32(p, kRecordHeaderBytes - 8));
    return header;
}

std::uint64_t
writeRecord(std::ostream &out, const CutSegment &seg)
{
    out.write(seg.header.data(),
              static_cast<std::streamsize>(seg.header.size()));
    out.write(seg.image.data(),
              static_cast<std::streamsize>(seg.image.size()));
    out.write(reinterpret_cast<const char *>(seg.comp.data()),
              static_cast<std::streamsize>(seg.comp.size()));
    return seg.header.size() + seg.image.size() + seg.comp.size();
}

ArchiveSegmentInfo
scanRecordHeader(const std::uint8_t *data, std::uint64_t extent)
{
    if (extent < kRecordHeaderBytes)
        throw RecordingFormatError("shorter than a record header");
    if (readU64At(data, 0) != kSegmentMagic)
        throw RecordingFormatError("segment magic missing");
    if (crc32(data, kRecordHeaderBytes - 8)
        != readU64At(data, kRecordHeaderBytes - 8))
        throw RecordingFormatError("header CRC mismatch");
    ArchiveSegmentInfo info;
    info.index = readU64At(data, 8);
    info.startGcc = readU64At(data, 16);
    info.endGcc = readU64At(data, 24);
    const std::uint64_t kind = readU64At(data, 32);
    info.imageBytes = readU64At(data, 40);
    info.imageCrc = readU64At(data, 48);
    info.rawBytes = readU64At(data, 56);
    info.compBytes = readU64At(data, 64);
    info.crc32 = readU64At(data, 72);
    if (kind > static_cast<std::uint64_t>(ImageKind::kDelta))
        throw RecordingFormatError("image kind " + std::to_string(kind)
                                   + " is not 0, 1 or 2");
    info.hasCheckpoint = kind != 0;
    info.keyframe = kind == static_cast<std::uint64_t>(ImageKind::kKeyframe);
    if (info.index == 0 && info.hasCheckpoint && !info.keyframe)
        throw RecordingFormatError(
            "record 0 holds a delta: no chain head precedes it");
    if (info.endGcc < info.startGcc)
        throw RecordingFormatError("GCC interval not ascending");
    // Every size is capped first, so the sum below cannot wrap.
    if (info.imageBytes > kMaxRecordPartBytes)
        throw RecordingFormatError("implausible checkpoint image size");
    if (info.rawBytes > kMaxRecordPartBytes
        || info.compBytes > kMaxRecordPartBytes)
        throw RecordingFormatError("implausible payload size");
    info.recordBytes = kRecordHeaderBytes + info.imageBytes + info.compBytes;
    if (info.recordBytes > extent)
        throw RecordingFormatError("record runs past its extent (torn?)");
    if (!info.hasCheckpoint && info.imageBytes != 0)
        throw RecordingFormatError("tail record holds an image");
    return info;
}

void
scanRecordImage(const ArchiveSegmentInfo &info, const std::uint8_t *image,
                unsigned num_procs)
{
    if (!info.hasCheckpoint)
        return;
    const std::size_t bytes = static_cast<std::size_t>(info.imageBytes);
    if (crc32(image, bytes) != info.imageCrc)
        throw RecordingFormatError("checkpoint image CRC mismatch");
    // Walk the image, don't decode it: the walk checks its structure,
    // so only its word lists' contents or memory hash can fail later.
    const CheckpointExtent ext = scanImage(
        info.keyframe ? ImageKind::kKeyframe : ImageKind::kDelta, image,
        bytes);
    if (ext.bytes != bytes)
        throw RecordingFormatError("checkpoint image size mismatch");
    if (ext.gcc != info.endGcc || ext.contexts != num_procs
        || (!info.keyframe && ext.baseGcc != info.startGcc))
        throw RecordingFormatError(
            "end checkpoint disagrees with the header");
}

ArchiveSegmentInfo
scanRecord(const std::uint8_t *data, std::size_t size, unsigned num_procs)
{
    const ArchiveSegmentInfo info = scanRecordHeader(data, size);
    scanRecordImage(info, data + kRecordHeaderBytes, num_procs);
    return info;
}

void
putRunMeta(std::ostream &out, const Recording &rec)
{
    putMachine(out, rec.machine);
    putMode(out, rec.mode);
    putString(out, rec.appName);
    serialize_detail::putU64(out, rec.workloadSeed);
    serialize_detail::putU64(out, rec.iterationsPercent);
}

void
RecordIndex::put(std::ostream &out, const std::vector<Entry> &records,
                 const Recording *rec)
{
    serialize_detail::putU64(out, rec ? 1 : 0);
    serialize_detail::putU64(out, records.size());
    for (const auto &[where, bytes] : records) {
        serialize_detail::putU64(out, where);
        serialize_detail::putU64(out, bytes);
    }
    if (rec)
        FinalStats::put(out, *rec);
}

RecordIndex
RecordIndex::get(ByteCursor &in, unsigned num_procs)
{
    RecordIndex index;
    index.clean = getU64(in) != 0;
    const std::uint64_t count = getU64(in);
    if (count > kMaxRecords)
        throw RecordingFormatError("record count " + std::to_string(count)
                                   + " above " + std::to_string(kMaxRecords));
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint64_t where = getU64(in);
        index.records.emplace_back(where, getU64(in));
    }
    if (index.clean)
        index.final = FinalStats::get(in, num_procs);
    return index;
}

} // namespace archive_detail

std::uint64_t
ArchiveSegmentInfo::imageOffset() const
{
    return fileOffset + kRecordHeaderBytes;
}

std::uint64_t
ArchiveSegmentInfo::payloadOffset() const
{
    return imageOffset() + imageBytes;
}

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

/**
 * The `.dla` container's steps on the shared SegmentPipeline: the
 * commit step appends each record to the stream and notes where it
 * lies; finish writes the footer and trailer.
 */
struct StreamingArchiveWriter::Impl
{
    std::ostream *out;
    std::string name; ///< named by write errors
    std::uint64_t offset = 0;
    std::vector<RecordIndex::Entry> records; ///< (offset, bytes), in order
    SegmentPipeline<Impl> pipeline;          ///< last: see its doc

    Impl(std::ostream &o, const ArchiveIoOptions &io, std::string n)
        : out(&o), name(std::move(n)),
          pipeline(*this, "StreamingArchiveWriter", io)
    {
    }

    void
    begin(const Recording &)
    {
        serialize_detail::putU64(*out, kArchiveMagic);
        serialize_detail::putU64(*out, kArchiveVersion);
        offset = kHeaderBytes;
    }

    void
    commit(std::vector<CutSegment> &batch)
    {
        for (const CutSegment &seg : batch) {
            const std::uint64_t bytes = writeRecord(*out, seg);
            records.emplace_back(offset, bytes);
            offset += bytes;
        }
        if (!*out)
            throw std::runtime_error("failed to write " + name);
    }

    /**
     * Footer: the run metadata and the record index with the final
     * stats, stored raw with its CRC. Record i ends at
     * rec.checkpoints[i] (every checkpoint cuts one segment, in
     * order), and the last is the tail.
     */
    void
    finish(const Recording &rec)
    {
        if (records.size() != rec.checkpoints.size() + 1)
            throw std::logic_error(
                "archive footer: segments and checkpoints disagree");
        std::ostringstream footer(std::ios::binary);
        putRunMeta(footer, rec);
        RecordIndex::put(footer, records, &rec);
        const std::string bytes = std::move(footer).str();
        out->write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
        serialize_detail::putU64(*out, offset);
        serialize_detail::putU64(*out, bytes.size());
        serialize_detail::putU64(
            *out, crc32(reinterpret_cast<const std::uint8_t *>(bytes.data()),
                        bytes.size()));
        serialize_detail::putU64(*out, kArchiveEndMagic);
        if (!*out)
            throw std::runtime_error("failed to write " + name);
        out->flush();
    }
};

StreamingArchiveWriter::StreamingArchiveWriter(
    std::ostream &out, const ArchiveIoOptions &io, std::string name)
    : impl_(std::make_unique<Impl>(out, io, std::move(name)))
{
}

StreamingArchiveWriter::~StreamingArchiveWriter() = default;

void
StreamingArchiveWriter::onCheckpoint(const Recording &rec)
{
    impl_->pipeline.onCheckpoint(rec);
}

void
StreamingArchiveWriter::close(const Recording &rec)
{
    impl_->pipeline.close(rec);
}

bool
StreamingArchiveWriter::closed() const
{
    return impl_->pipeline.closed();
}

std::size_t
StreamingArchiveWriter::segmentCount() const
{
    return impl_->pipeline.segmentsCut();
}

// ----- shared reader -------------------------------------------------------

namespace archive_detail
{

ContainerReader::ContainerReader() = default;
ContainerReader::ContainerReader(ContainerReader &&) noexcept = default;
ContainerReader &
ContainerReader::operator=(ContainerReader &&) noexcept = default;
ContainerReader::~ContainerReader() = default;

const SystemCheckpoint &
ContainerReader::checkpointAt(std::size_t index) const
{
    if (index >= checkpointCount())
        throw CheckpointOutOfRangeError(
            index, checkpointCount(),
            "checkpoint " + std::to_string(index) + " of "
                + std::to_string(checkpointCount()));
    return image(index);
}

std::vector<std::uint64_t>
ContainerReader::checkpointGccs() const
{
    std::vector<std::uint64_t> gccs;
    gccs.reserve(checkpointCount());
    for (std::size_t i = 0; i < checkpointCount(); ++i)
        gccs.push_back(segments_[i].endGcc);
    return gccs;
}

void
ContainerReader::getRunMeta(ByteCursor &in)
{
    machine_ = getMachine(in);
    mode_ = getMode(in);
    validateRecordingConfigs(machine_, mode_);
    app_name_ = getString(in);
    workload_seed_ = getU64(in);
    iterations_percent_ = static_cast<unsigned>(getU64(in));
}

void
ContainerReader::indexSegments(std::vector<ArchiveSegmentInfo> segments)
{
    // Checkpoint i ends record i; only the last record may be the
    // tail, which ends at none.
    std::size_t count = 0;
    while (count < segments.size() && segments[count].hasCheckpoint)
        ++count;
    for (std::size_t i = 0; i < count; ++i) {
        if (segments[i].keyframe)
            continue;
        if (i == 0)
            throw RecordingFormatError(
                "checkpoint 0 is a delta: no chain head precedes it");
        if (segments[i].startGcc != segments[i - 1].endGcc)
            throw RecordingFormatError(
                "checkpoint " + std::to_string(i) + "'s delta base GCC "
                + std::to_string(segments[i].startGcc)
                + " is not the previous checkpoint's GCC "
                + std::to_string(segments[i - 1].endGcc));
    }
    segments_ = std::move(segments);
    images_.clear();
    images_.resize(count);
}

SystemCheckpoint
ContainerReader::decodeAt(serialize_detail::ChainDecoder &walk,
                          std::size_t index) const
{
    std::vector<std::uint8_t> buffer;
    const ArchiveSegmentInfo &seg = segments_[index];
    const std::uint8_t *image = storedImage(index, buffer);
    const std::size_t size = static_cast<std::size_t>(seg.imageBytes);
    try {
        return seg.keyframe ? walk.keyframe(image, size)
                            : walk.delta(image, size);
    } catch (const RecordingFormatError &e) {
        throw ArchiveError(ArchiveSection::kSegment, index,
                           std::string("checkpoint image: ") + e.what());
    }
}

const SystemCheckpoint &
ContainerReader::image(std::size_t index) const
{
    if (!images_[index]) {
        std::size_t head = index;
        while (!segments_[head].keyframe)
            --head; // indexSegments() put a keyframe at index 0
        decodeChain(head, index + 1);
    }
    return *images_[index];
}

void
ContainerReader::decodeChain(std::size_t head, std::size_t end) const
{
    // A chain's decoded images are always a prefix of it: walk on
    // from the last one, or from the keyframe when there is none.
    serialize_detail::ChainDecoder walk;
    std::size_t next = head;
    while (next < end && images_[next])
        ++next;
    if (next > head)
        walk.resume(*images_[next - 1]);
    for (; next < end; ++next)
        images_[next] =
            std::make_unique<const SystemCheckpoint>(decodeAt(walk, next));
}

void
ContainerReader::checkInterval(std::size_t from, std::size_t to) const
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
}

Recording
ContainerReader::intervalView(std::size_t from, std::size_t to) const
{
    checkInterval(from, to);
    return assemble(from + 1, to == kToEnd ? segments_.size() : to + 1,
                    from, to);
}

Recording
ContainerReader::assemble(std::size_t first, std::size_t end,
                          std::size_t from, std::size_t to) const
{
    const bool whole = from == kWholeRun;
    const unsigned n = machine_.numProcs;
    Recording rec;
    rec.machine = machine_;
    rec.mode = mode_;
    rec.appName = app_name_;
    rec.workloadSeed = workload_seed_;
    rec.iterationsPercent = iterations_percent_;
    rec.pi = PiLog(n);
    rec.cs.assign(n, CsLog(mode_));
    rec.interrupts = InterruptLog(n);
    rec.io = IoLog(n);
    std::vector<std::uint64_t> io_base(n, 0);
    if (!whole) {
        // Synthetic prefix (consumed by the replay skip logic), then
        // only the segments covering the interval.
        const SystemCheckpoint &start = image(from);
        appendSyntheticPrefix(rec, start);
        io_base.clear();
        for (const ThreadContext &ctx : start.contexts)
            io_base.push_back(ctx.ioLoadCount);
    }

    // CRC + decompress + parse every segment in parallel, then append
    // in segment order. Each segment's decode error (or slice) lands
    // in its own slot and the append loop consumes the slots in
    // order, so the first error to surface is the lowest segment's at
    // any ioThreads. A whole-run read also decodes (and verifies)
    // every checkpoint chain in the same batch, one task per chain
    // filling only its own image slots; a chain that fails is
    // resumed by image() in the append loop, which raises its error
    // in checkpoint order. The recording shares the decoded images.
    const std::size_t count = end - first;
    std::vector<SegmentSlice> slices(count);
    std::vector<std::function<void()>> tasks;
    tasks.reserve(count);
    for (std::size_t k = 0; k < count; ++k)
        tasks.push_back([this, &slices, first, n, k] {
            const std::size_t i = first + k;
            const std::vector<std::uint8_t> raw = segmentPayload(i);
            try {
                slices[k] = parseSegmentPayload(raw, n);
            } catch (const RecordingFormatError &e) {
                throw ArchiveError(ArchiveSection::kSegment, i, e.what());
            }
        });
    if (whole) {
        for (std::size_t head = 0; head < checkpointCount();) {
            std::size_t next = head + 1;
            while (next < checkpointCount() && !segments_[next].keyframe)
                ++next;
            tasks.push_back([this, head, next] { decodeChain(head, next); });
            head = next;
        }
    }
    std::vector<std::exception_ptr> errors;
    runIndexed(pool_, io_.resolvedIoThreads(), std::move(tasks), errors);
    for (std::size_t k = 0; k < count; ++k) {
        const std::size_t i = first + k;
        if (errors[k])
            std::rethrow_exception(errors[k]);
        appendSlice(rec, slices[k], io_base, i);
        slices[k] = SegmentSlice(); // free as we go
        if (whole && i + 1 < end)
            rec.checkpoints.push_back(image(i));
    }

    final_.applyTo(rec, whole);
    if (!whole) {
        rec.checkpoints.push_back(image(from));
        if (to != kToEnd)
            rec.checkpoints.push_back(image(to));
    }
    validateRecording(rec);
    return rec;
}

} // namespace archive_detail

// ----- .dla reader ----------------------------------------------------------

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
    ArchiveReader reader;
    if (reader.map_.open(path)) {
        reader.data_ = reader.map_.data();
        reader.size_ = reader.map_.size();
        reader.io_ = io;
        reader.parse();
        return reader;
    }
    // Mapping is best-effort: fall back to a buffered read, which
    // parses and fails identically.
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
    if (readU64At(data_, trailer + 24) != kArchiveEndMagic)
        throw ArchiveError(ArchiveSection::kTrailer,
                           ArchiveError::kNoSegment,
                           "end magic missing (truncated archive?)");
    const std::uint64_t footer_offset = readU64At(data_, trailer);
    const std::uint64_t footer_bytes = readU64At(data_, trailer + 8);
    const std::uint64_t footer_crc = readU64At(data_, trailer + 16);
    // Written so no sum can wrap: every field is attacker-chosen.
    if (footer_offset < kHeaderBytes || footer_offset > trailer
        || footer_bytes > trailer - footer_offset)
        throw ArchiveError(ArchiveSection::kTrailer,
                           ArchiveError::kNoSegment,
                           "footer location out of bounds");
    const std::uint8_t *footer = data_ + footer_offset;
    if (crc32(footer, static_cast<std::size_t>(footer_bytes)) != footer_crc)
        throw ArchiveError(ArchiveSection::kFooter,
                           ArchiveError::kNoSegment, "footer CRC mismatch");

    RecordIndex index;
    try {
        ByteCursor in(footer, static_cast<std::size_t>(footer_bytes));
        getRunMeta(in);
        index = RecordIndex::get(in, machine_.numProcs);
        if (!index.clean)
            throw RecordingFormatError("footer lacks the final stats");
        if (index.records.empty())
            throw RecordingFormatError("footer indexes no record");
        final_ = std::move(index.final);
    } catch (const RecordingFormatError &e) {
        throw ArchiveError(ArchiveSection::kFooter,
                           ArchiveError::kNoSegment, e.what());
    }

    // Each record must lie between the header and the footer (checked
    // so no sum can wrap: every field is attacker-chosen), chain on
    // from the one before it, and only the last may be the tail.
    std::vector<ArchiveSegmentInfo> segments;
    for (std::size_t i = 0; i < index.records.size(); ++i) {
        const auto [offset, bytes] = index.records[i];
        if (offset < kHeaderBytes || offset > footer_offset
            || bytes > footer_offset - offset)
            throw ArchiveError(ArchiveSection::kFooter,
                               ArchiveError::kNoSegment,
                               "segment " + std::to_string(i)
                                   + " location out of bounds");
        ArchiveSegmentInfo info;
        try {
            info = scanRecord(data_ + offset, static_cast<std::size_t>(bytes),
                              machine_.numProcs);
        } catch (const RecordingFormatError &e) {
            throw ArchiveError(ArchiveSection::kSegment, i, e.what());
        }
        info.fileOffset = offset;
        const bool tail = i + 1 == index.records.size();
        const char *lie =
            info.recordBytes != bytes ? "record size disagrees with the index"
            : info.index != i         ? "record id disagrees with the index"
            : info.startGcc != (i ? segments.back().endGcc : 0)
                ? "record does not start where the one before it ends"
            : tail == info.hasCheckpoint
                ? (tail ? "tail segment carries a checkpoint"
                        : "non-tail segment lacks a checkpoint")
                : nullptr;
        if (lie)
            throw ArchiveError(ArchiveSection::kSegment, i, lie);
        segments.push_back(info);
    }
    try {
        indexSegments(std::move(segments));
    } catch (const RecordingFormatError &e) {
        throw ArchiveError(ArchiveSection::kSegment, ArchiveError::kNoSegment,
                           e.what());
    }
}

const std::uint8_t *
ArchiveReader::storedImage(std::size_t index, std::vector<std::uint8_t> &) const
{
    return data_ + segments_[index].imageOffset();
}

std::vector<std::uint8_t>
ArchiveReader::segmentPayload(std::size_t index) const
{
    return decodePayload(data_ + segments_[index].payloadOffset(),
                         segments_[index], index);
}

Recording
ArchiveReader::readAll() const
{
    return assemble(0, segments_.size(), kWholeRun, kToEnd);
}

Recording
ArchiveReader::readInterval(std::size_t from, std::size_t to) const
{
    return intervalView(from, to);
}

} // namespace delorean
