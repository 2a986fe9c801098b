#include "core/serialize.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "common/errors.hpp"
#include "core/serialize_detail.hpp"
#include "trace/app_profile.hpp"

namespace delorean
{

using serialize_detail::getCheckpoint;
using serialize_detail::getMachine;
using serialize_detail::getMode;
using serialize_detail::getString;
using serialize_detail::getU64;
using serialize_detail::putCheckpoint;
using serialize_detail::putContext;
using serialize_detail::putMachine;
using serialize_detail::putMode;
using serialize_detail::putString;
using serialize_detail::putU64;

namespace
{

constexpr std::uint64_t kMagic = 0x44654C6F5265634Full; // "DeLoRecO"
/// v2 adds two constant fields: the machine header's arbiter count
/// (always 1) and, after the PI entries, a has-masks flag (always 0).
/// Loaders reject any other value. v1 recordings lack both and still
/// load.
constexpr std::uint32_t kVersion = 2;

/** Throw RecordingFormatError unless cond; @p what names the field. */
void
require(bool cond, const std::string &what)
{
    if (!cond)
        throw RecordingFormatError(what);
}

/**
 * Field-range checks for the machine/mode headers. Run before the
 * loader allocates anything sized by these fields, so a corrupted
 * header cannot drive a huge allocation, a division by zero in the
 * cache geometry, or an out-of-range shift in the directory's 64-bit
 * sharer masks.
 */
void
validateConfigs(const MachineConfig &m, const ModeConfig &mode)
{
    require(m.numProcs >= 1 && m.numProcs <= 64,
            "numProcs " + std::to_string(m.numProcs)
                + " outside [1, 64]");
    require(m.mem.l1Ways >= 1 && m.mem.l2Ways >= 1,
            "cache associativity must be at least 1");
    require(m.mem.l1SizeBytes / kLineBytes / m.mem.l1Ways >= 1,
            "L1 smaller than one set");
    require(m.mem.l2SizeBytes / kLineBytes / m.mem.l2Ways >= 1,
            "L2 smaller than one set");
    require(m.bulk.maxConcurrentCommits >= 1
                && m.bulk.maxConcurrentCommits <= 1024,
            "maxConcurrentCommits outside [1, 1024]");
    require(m.bulk.simultaneousChunks >= 1
                && m.bulk.simultaneousChunks <= 1024,
            "simultaneousChunks outside [1, 1024]");
    require(m.bulk.collisionBackoffThreshold >= 1,
            "collisionBackoffThreshold must be at least 1");

    require(mode.mode == ExecMode::kOrderAndSize
                || mode.mode == ExecMode::kOrderOnly
                || mode.mode == ExecMode::kPicoLog,
            "unknown execution mode");
    require(mode.chunkSize >= 1 && mode.chunkSize <= (1u << 30),
            "chunkSize outside [1, 2^30]");
    require(mode.varSizeTruncatePercent <= 100,
            "varSizeTruncatePercent above 100");
    require(mode.csDistanceBits >= 1 && mode.csDistanceBits <= 64,
            "csDistanceBits outside [1, 64]");
    require(mode.csSizeBits >= 1 && mode.csSizeBits <= 64,
            "csSizeBits outside [1, 64]");
    require(mode.piProcIdBits >= 1 && mode.piProcIdBits <= 32,
            "piProcIdBits outside [1, 32]");
    require(mode.stratifyChunksPerProc <= 255,
            "stratifyChunksPerProc above 255");
}

} // namespace

void
validateRecordingConfigs(const MachineConfig &machine,
                         const ModeConfig &mode)
{
    validateConfigs(machine, mode);
}

void
validateRecording(const Recording &rec)
{
    validateConfigs(rec.machine, rec.mode);
    const unsigned n = rec.machine.numProcs;

    bool known_app = true;
    try {
        AppTable::byName(rec.appName);
    } catch (const std::out_of_range &) {
        known_app = false;
    }
    require(known_app, "unknown application '" + rec.appName + "'");
    require(rec.iterationsPercent >= 1,
            "iterationsPercent must be at least 1");

    for (std::size_t i = 0; i < rec.pi.entryCount(); ++i) {
        const ProcId p = rec.pi.entryAt(i);
        require(p < n || p == kDmaProcId,
                "PI entry " + std::to_string(i) + " names proc "
                    + std::to_string(p));
    }

    for (std::size_t i = 0; i < rec.strata.size(); ++i) {
        const Stratum &s = rec.strata[i];
        if (s.isDma)
            continue;
        require(s.counts.size() == n,
                "stratum " + std::to_string(i) + " has "
                    + std::to_string(s.counts.size())
                    + " counters for " + std::to_string(n)
                    + " processors");
        if (rec.stratified()) {
            for (const auto c : s.counts)
                require(c <= rec.mode.stratifyChunksPerProc,
                        "stratum " + std::to_string(i)
                            + " counter exceeds the per-processor "
                              "maximum");
        }
    }

    require(rec.cs.size() == n, "CS log count does not match numProcs");
    for (ProcId p = 0; p < n; ++p) {
        for (const CsEntry &e : rec.cs[p].entries())
            require(e.size <= rec.mode.chunkSize,
                    "CS entry for proc " + std::to_string(p)
                        + " chunk " + std::to_string(e.seq)
                        + " exceeds chunkSize");
    }

    require(rec.interrupts.numProcs() == n,
            "interrupt log count does not match numProcs");
    require(rec.io.numProcs() == n,
            "I/O log count does not match numProcs");

    for (std::size_t i = 0; i < rec.dma.count(); ++i) {
        const DmaTransfer &t = rec.dma.transferAt(i);
        require(t.wordAddrs.size() == t.values.size(),
                "DMA transfer " + std::to_string(i)
                    + " addr/value lists differ in length");
    }

    for (std::size_t i = 0; i < rec.fingerprint.commits.size(); ++i)
        require(rec.fingerprint.commits[i].proc < n,
                "fingerprint commit " + std::to_string(i)
                    + " names an out-of-range proc");
    require(rec.fingerprint.perProcAcc.size() == n
                && rec.fingerprint.perProcRetired.size() == n,
            "fingerprint per-proc vectors do not match numProcs");

    for (std::size_t i = 0; i < rec.checkpoints.size(); ++i) {
        const SystemCheckpoint &c = rec.checkpoints[i];
        require(c.contexts.size() == n
                    && c.committedChunks.size() == n,
                "checkpoint " + std::to_string(i)
                    + " context count does not match numProcs");
        require(c.rrNext < n,
                "checkpoint " + std::to_string(i)
                    + " rrNext out of range");
        require(c.dmaConsumed <= rec.dma.count(),
                "checkpoint " + std::to_string(i)
                    + " dmaConsumed exceeds the DMA log");
    }
}

void
saveRecording(const Recording &rec, std::ostream &out)
{
    putU64(out, kMagic);
    putU64(out, kVersion);
    putMachine(out, rec.machine);
    putMode(out, rec.mode);
    putString(out, rec.appName);
    putU64(out, rec.workloadSeed);
    putU64(out, rec.iterationsPercent);

    // PI log: entries, then the v2 has-masks flag (always 0).
    putU64(out, rec.pi.entryCount());
    for (std::size_t i = 0; i < rec.pi.entryCount(); ++i)
        putU64(out, rec.pi.entryAt(i));
    putU64(out, 0);

    // Strata.
    putU64(out, rec.strata.size());
    for (const Stratum &s : rec.strata) {
        putU64(out, s.isDma ? 1 : 0);
        putU64(out, s.counts.size());
        for (const auto c : s.counts)
            putU64(out, c);
    }

    // CS logs.
    putU64(out, rec.cs.size());
    for (const CsLog &log : rec.cs) {
        putU64(out, log.entryCount());
        for (const CsEntry &e : log.entries()) {
            putU64(out, e.seq);
            putU64(out, e.size);
            putU64(out, e.maxSize ? 1 : 0);
        }
    }

    // Interrupt log.
    putU64(out, rec.machine.numProcs);
    for (ProcId p = 0; p < rec.machine.numProcs; ++p) {
        const auto &entries = rec.interrupts.entries(p);
        putU64(out, entries.size());
        for (const InterruptRecord &e : entries) {
            putU64(out, e.chunkSeq);
            putU64(out, e.type);
            putU64(out, e.data);
        }
    }

    // I/O log (dense per processor, indexed from 0).
    for (ProcId p = 0; p < rec.machine.numProcs; ++p) {
        const std::uint64_t count = rec.io.countFor(p);
        putU64(out, count);
        for (std::uint64_t i = 0; i < count; ++i)
            putU64(out, rec.io.valueAt(p, i));
    }

    // DMA log.
    putU64(out, rec.dma.count());
    for (std::size_t i = 0; i < rec.dma.count(); ++i) {
        const DmaTransfer &t = rec.dma.transferAt(i);
        putU64(out, rec.dma.slotAt(i));
        putU64(out, t.wordAddrs.size());
        for (std::size_t k = 0; k < t.wordAddrs.size(); ++k) {
            putU64(out, t.wordAddrs[k]);
            putU64(out, t.values[k]);
        }
    }

    // Fingerprint.
    putU64(out, rec.fingerprint.commits.size());
    for (const CommitRecord &c : rec.fingerprint.commits) {
        putU64(out, c.proc);
        putU64(out, c.seq);
        putU64(out, c.size);
        putU64(out, c.accAfter);
    }
    putU64(out, rec.fingerprint.perProcAcc.size());
    for (std::size_t p = 0; p < rec.fingerprint.perProcAcc.size();
         ++p) {
        putU64(out, rec.fingerprint.perProcAcc[p]);
        putU64(out, rec.fingerprint.perProcRetired[p]);
    }
    putU64(out, rec.fingerprint.finalMemHash);

    // Headline statistics.
    putU64(out, rec.stats.totalCycles);
    putU64(out, rec.stats.retiredInstrs);
    putU64(out, rec.stats.executedInstrs);
    putU64(out, rec.stats.committedChunks);
    putU64(out, rec.stats.squashes);
    putU64(out, rec.stats.overflowTruncations);
    putU64(out, rec.stats.collisionTruncations);
    putU64(out, rec.stats.hardTruncations);

    // Checkpoints.
    putU64(out, rec.checkpoints.size());
    for (const SystemCheckpoint &ckpt : rec.checkpoints)
        putCheckpoint(out, ckpt);

    if (!out)
        throw std::runtime_error("failed to write recording");
}

Recording
loadRecording(std::istream &in)
{
    if (getU64(in) != kMagic)
        throw RecordingFormatError("not a DeLorean recording");
    const std::uint64_t version = getU64(in);
    if (version != 1 && version != kVersion)
        throw RecordingFormatError("unsupported recording version");
    const bool legacy_v1 = version == 1;

    Recording rec;
    rec.machine = getMachine(in, legacy_v1);
    rec.mode = getMode(in);
    // Everything below is sized or indexed by the header fields, so
    // they must be in range before any section is materialized.
    validateConfigs(rec.machine, rec.mode);
    rec.appName = getString(in);
    rec.workloadSeed = getU64(in);
    rec.iterationsPercent = static_cast<unsigned>(getU64(in));

    rec.pi = PiLog(rec.machine.numProcs);
    const std::uint64_t pi_count = getU64(in);
    for (std::uint64_t i = 0; i < pi_count; ++i) {
        const ProcId p = static_cast<ProcId>(getU64(in));
        require(p < rec.machine.numProcs || p == kDmaProcId,
                "PI entry " + std::to_string(i) + " names proc "
                    + std::to_string(p));
        rec.pi.append(p);
    }
    if (!legacy_v1) {
        const std::uint64_t has_masks = getU64(in);
        require(has_masks == 0,
                "PI has-masks flag " + std::to_string(has_masks)
                    + " is not 0");
    }

    const std::uint64_t strata_count = getU64(in);
    for (std::uint64_t i = 0; i < strata_count; ++i) {
        Stratum s;
        s.isDma = getU64(in) != 0;
        const std::uint64_t n = getU64(in);
        for (std::uint64_t k = 0; k < n; ++k)
            s.counts.push_back(static_cast<std::uint8_t>(getU64(in)));
        rec.strata.push_back(std::move(s));
    }

    const std::uint64_t cs_count = getU64(in);
    require(cs_count == rec.machine.numProcs,
            "CS log count does not match numProcs");
    rec.cs.assign(cs_count, CsLog(rec.mode));
    for (std::uint64_t p = 0; p < cs_count; ++p) {
        const std::uint64_t n = getU64(in);
        for (std::uint64_t k = 0; k < n; ++k) {
            const ChunkSeq seq = getU64(in);
            const InstrCount size = getU64(in);
            const bool max = getU64(in) != 0;
            if (rec.mode.mode == ExecMode::kOrderAndSize)
                rec.cs[p].appendCommittedSize(seq, size, max);
            else
                rec.cs[p].appendTruncation(seq, size);
        }
    }

    const std::uint64_t irq_procs = getU64(in);
    require(irq_procs == rec.machine.numProcs,
            "interrupt log count does not match numProcs");
    rec.interrupts = InterruptLog(static_cast<unsigned>(irq_procs));
    for (ProcId p = 0; p < irq_procs; ++p) {
        const std::uint64_t n = getU64(in);
        for (std::uint64_t k = 0; k < n; ++k) {
            InterruptRecord e;
            e.chunkSeq = getU64(in);
            e.type = static_cast<std::uint8_t>(getU64(in));
            e.data = getU64(in);
            rec.interrupts.append(p, e);
        }
    }

    rec.io = IoLog(rec.machine.numProcs);
    for (ProcId p = 0; p < rec.machine.numProcs; ++p) {
        const std::uint64_t n = getU64(in);
        for (std::uint64_t i = 0; i < n; ++i)
            rec.io.append(p, i, getU64(in));
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
        rec.dma.append(t, slot);
    }

    const std::uint64_t commits = getU64(in);
    for (std::uint64_t i = 0; i < commits; ++i) {
        CommitRecord c;
        c.proc = static_cast<ProcId>(getU64(in));
        c.seq = getU64(in);
        c.size = getU64(in);
        c.accAfter = getU64(in);
        rec.fingerprint.commits.push_back(c);
    }
    const std::uint64_t procs = getU64(in);
    for (std::uint64_t p = 0; p < procs; ++p) {
        rec.fingerprint.perProcAcc.push_back(getU64(in));
        rec.fingerprint.perProcRetired.push_back(getU64(in));
    }
    rec.fingerprint.finalMemHash = getU64(in);

    rec.stats.totalCycles = getU64(in);
    rec.stats.retiredInstrs = getU64(in);
    rec.stats.executedInstrs = getU64(in);
    rec.stats.committedChunks = getU64(in);
    rec.stats.squashes = getU64(in);
    rec.stats.overflowTruncations = getU64(in);
    rec.stats.collisionTruncations = getU64(in);
    rec.stats.hardTruncations = getU64(in);

    const std::uint64_t ckpts = getU64(in);
    for (std::uint64_t i = 0; i < ckpts; ++i)
        rec.checkpoints.push_back(getCheckpoint(in));
    validateRecording(rec);
    return rec;
}

void
saveRecordingFile(const Recording &rec, const std::string &path)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        throw std::runtime_error("cannot open " + path + " for write");
    saveRecording(rec, out);
}

Recording
loadRecordingFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot open " + path);
    return loadRecording(in);
}

} // namespace delorean
