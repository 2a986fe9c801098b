#include "core/serialize.hpp"

#include <fstream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "common/errors.hpp"
#include "memory/cache.hpp"
#include "trace/app_profile.hpp"

namespace delorean
{

namespace
{

/**
 * Throw RecordingFormatError unless cond. @p what names the field: a
 * string, or a callable returning one, called only on failure so the
 * per-entry checks format no message while they pass.
 */
template <typename What>
void
require(bool cond, What &&what)
{
    if (cond)
        return;
    if constexpr (std::is_invocable_v<What>)
        throw RecordingFormatError(what());
    else
        throw RecordingFormatError(what);
}

/**
 * Field-range checks for the machine/mode headers. Run before the
 * loader allocates anything sized by these fields, so a corrupted
 * header cannot drive a huge allocation, a division by zero in the
 * cache geometry, a set-index mask that simulates a different cache
 * from the one the header names, or an out-of-range shift in the
 * directory's 64-bit sharer masks.
 */
void
validateConfigs(const MachineConfig &m, const ModeConfig &mode)
{
    require(m.numProcs >= 1 && m.numProcs <= 64, [&] {
        return "numProcs " + std::to_string(m.numProcs)
               + " outside [1, 64]";
    });
    const char *l1 = cacheGeometryError(m.mem.l1SizeBytes, m.mem.l1Ways);
    require(!l1, [&] { return std::string("L1 ") + l1; });
    const char *l2 = cacheGeometryError(m.mem.l2SizeBytes, m.mem.l2Ways);
    require(!l2, [&] { return std::string("L2 ") + l2; });
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
    require(known_app, [&] {
        return "unknown application '" + rec.appName + "'";
    });
    require(rec.iterationsPercent >= 1,
            "iterationsPercent must be at least 1");

    for (std::size_t i = 0; i < rec.pi.entryCount(); ++i) {
        const ProcId p = rec.pi.entryAt(i);
        require(p < n || p == kDmaProcId, [&] {
            return "PI entry " + std::to_string(i) + " names proc "
                   + std::to_string(p);
        });
    }

    for (std::size_t i = 0; i < rec.strata.size(); ++i) {
        const Stratum &s = rec.strata[i];
        if (s.isDma)
            continue;
        require(s.counts.size() == n, [&] {
            return "stratum " + std::to_string(i) + " has "
                   + std::to_string(s.counts.size())
                   + " counters for " + std::to_string(n)
                   + " processors";
        });
        if (rec.stratified()) {
            for (const auto c : s.counts)
                require(c <= rec.mode.stratifyChunksPerProc, [&] {
                    return "stratum " + std::to_string(i)
                           + " counter exceeds the per-processor "
                             "maximum";
                });
        }
    }

    require(rec.cs.size() == n, "CS log count does not match numProcs");
    for (ProcId p = 0; p < n; ++p) {
        for (const CsEntry &e : rec.cs[p].entries())
            require(e.size <= rec.mode.chunkSize, [&] {
                return "CS entry for proc " + std::to_string(p)
                       + " chunk " + std::to_string(e.seq)
                       + " exceeds chunkSize";
            });
    }

    require(rec.interrupts.numProcs() == n,
            "interrupt log count does not match numProcs");
    require(rec.io.numProcs() == n,
            "I/O log count does not match numProcs");

    for (std::size_t i = 0; i < rec.dma.count(); ++i) {
        const DmaTransfer &t = rec.dma.transferAt(i);
        require(t.wordAddrs.size() == t.values.size(), [&] {
            return "DMA transfer " + std::to_string(i)
                   + " addr/value lists differ in length";
        });
    }

    for (std::size_t i = 0; i < rec.fingerprint.commits.size(); ++i)
        require(rec.fingerprint.commits[i].proc < n, [&] {
            return "fingerprint commit " + std::to_string(i)
                   + " names an out-of-range proc";
        });
    require(rec.fingerprint.perProcAcc.size() == n
                && rec.fingerprint.perProcRetired.size() == n,
            "fingerprint per-proc vectors do not match numProcs");

    for (std::size_t i = 0; i < rec.checkpoints.size(); ++i) {
        const SystemCheckpoint &c = rec.checkpoints[i];
        require(c.contexts.size() == n
                    && c.committedChunks.size() == n, [&] {
            return "checkpoint " + std::to_string(i)
                   + " context count does not match numProcs";
        });
        require(c.rrNext < n, [&] {
            return "checkpoint " + std::to_string(i)
                   + " rrNext out of range";
        });
        require(c.dmaConsumed <= rec.dma.count(), [&] {
            return "checkpoint " + std::to_string(i)
                   + " dmaConsumed exceeds the DMA log";
        });
    }
}

void
saveRecording(const Recording &rec, std::ostream &out,
              const ArchiveIoOptions &io)
{
    StreamingArchiveWriter(out, io).close(rec);
}

void
saveRecordingFile(const Recording &rec, const std::string &path,
                  const ArchiveIoOptions &io)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        throw std::runtime_error("cannot open " + path + " for write");
    StreamingArchiveWriter(out, io, path).close(rec);
    // Close before checking: the last buffer is flushed only here.
    out.close();
    if (!out)
        throw std::runtime_error("failed to write " + path);
}

} // namespace delorean
