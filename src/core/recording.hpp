/**
 * @file
 * Recording bundle: everything a DeLorean recording produces, plus
 * the statistics the evaluation section reports.
 */

#ifndef DELOREAN_CORE_RECORDING_HPP_
#define DELOREAN_CORE_RECORDING_HPP_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/stats.hpp"
#include "compress/lz77.hpp"
#include "core/checkpoint.hpp"
#include "core/cs_log.hpp"
#include "core/fingerprint.hpp"
#include "core/input_logs.hpp"
#include "core/pi_log.hpp"
#include "core/stratifier.hpp"
#include "memory/directory.hpp"

namespace delorean
{

/** Engine statistics (backs Figures 10-12 and Table 6). */
struct EngineStats
{
    Cycle totalCycles = 0;
    InstrCount retiredInstrs = 0;   ///< committed instructions
    InstrCount executedInstrs = 0;  ///< including squashed work
    /// Every dynamic instruction the generators produced, including
    /// squashed and re-executed work — the "simulated instructions"
    /// denominator for harness throughput (instrs/sec).
    InstrCount generatedInstrs = 0;
    /// Host wall-clock seconds the run took (record or replay). Not
    /// architectural: never part of fingerprints or serialized logs.
    double wallSeconds = 0.0;
    std::uint64_t committedChunks = 0;
    std::uint64_t squashes = 0;
    std::uint64_t overflowTruncations = 0;
    std::uint64_t collisionTruncations = 0;
    std::uint64_t hardTruncations = 0; ///< I/O, special instructions
    std::uint64_t replaySplitChunks = 0; ///< unexpected-overflow splits

    // --- commit fast path (arbiter conflict filtering) -----------------
    /// Signature pairs whose per-bank summaries intersected, forcing
    /// the full word walk.
    std::uint64_t sigSummaryHits = 0;
    /// Signature pairs rejected by the summary filter alone — full
    /// 2048-bit intersections avoided.
    std::uint64_t sigSummaryRejects = 0;
    /// Commit-time conflict sweeps that walked no processor: every
    /// per-processor in-flight union missed the write signature (or
    /// the other processors were idle).
    std::uint64_t unionSweepSkips = 0;
    /// Commit-time conflict sweeps that did walk running chunks.
    std::uint64_t conflictSweeps = 0;
    /// Same-cycle arbiter wakeups merged into one drain pass.
    std::uint64_t arbiterWakeupsCoalesced = 0;
    /// 64-bit accumulator spills across the PI and CS log writers.
    std::uint64_t logWordFlushes = 0;

    /// Cycles processors spent stalled with all simultaneous chunks
    /// completed but uncommitted (Table 6 "Stall Cycles").
    std::vector<std::uint64_t> perProcStallCycles;

    // --- replay -------------------------------------------------------
    /// Chunks in flight at each parallel-replay execution batch
    /// (filled by ParallelReplayer; the serial engine retires one
    /// commit at a time and leaves it empty).
    RunningStat replayWindowOccupancy;
    /// Cycles a completed chunk sat ready while the log head named a
    /// processor whose chunk was still executing (the serialization
    /// cost of retiring in logged order).
    std::uint64_t replayHeadStallCycles = 0;
    /// Stratified replay: commits retired while another processor
    /// still had budget in the same stratum — commits that exploited
    /// the intra-stratum (conflict-free) ordering freedom.
    std::uint64_t strataRelaxedRetires = 0;

    // --- PicoLog commit-token statistics (Table 6) ---------------------
    RunningStat readyProcsAtCommit; ///< procs with a ready chunk
    RunningStat parallelCommits;    ///< commits overlapping at initiation
    std::uint64_t tokenArrivalsReady = 0;
    std::uint64_t tokenArrivalsNotReady = 0;
    RunningStat waitForTokenCycles;    ///< ready: completion -> token
    RunningStat waitForCompleteCycles; ///< not ready: token -> completion
    RunningStat tokenRoundtripCycles;

    TrafficStats traffic;

    /** Fraction of total machine cycles spent stalled. */
    double
    stallFraction() const
    {
        if (!totalCycles || perProcStallCycles.empty())
            return 0.0;
        std::uint64_t sum = 0;
        for (const auto s : perProcStallCycles)
            sum += s;
        return static_cast<double>(sum)
               / (static_cast<double>(totalCycles)
                  * static_cast<double>(perProcStallCycles.size()));
    }

    /** Percentage of token arrivals that found the processor ready. */
    double
    procReadyPercent() const
    {
        const std::uint64_t total =
            tokenArrivalsReady + tokenArrivalsNotReady;
        return total ? 100.0 * static_cast<double>(tokenArrivalsReady)
                           / static_cast<double>(total)
                     : 0.0;
    }

    /** Simulated cycles per host wall-clock second. */
    double
    simCyclesPerSecond() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(totalCycles) / wallSeconds
                   : 0.0;
    }

    /** Simulated (generated) instructions per host wall-clock second. */
    double
    simInstrsPerSecond() const
    {
        return wallSeconds > 0.0
                   ? static_cast<double>(generatedInstrs) / wallSeconds
                   : 0.0;
    }
};

/** Raw and LZ77-compressed sizes of one log. */
struct LogSize
{
    std::uint64_t rawBits = 0;
    std::uint64_t compressedBits = 0;
};

/** Memory-ordering log sizes of a recording. */
struct LogSizeReport
{
    LogSize pi;          ///< PI log (or stratified PI log if enabled)
    LogSize cs;          ///< all CS logs combined
    InstrCount retiredInstrs = 0;
    unsigned numProcs = 1;

    /** Paper metric: bits per processor per kilo-instruction. */
    double
    bitsPerProcPerKiloInstr(bool compressed) const
    {
        // retiredInstrs counts all processors, so dividing by total
        // kilo-instructions already yields a per-processor figure.
        const double kilo_instrs =
            static_cast<double>(retiredInstrs) / 1000.0;
        const double bits = static_cast<double>(
            compressed ? pi.compressedBits + cs.compressedBits
                       : pi.rawBits + cs.rawBits);
        return kilo_instrs > 0 ? bits / kilo_instrs : 0.0;
    }

    double
    piBitsPerProcPerKiloInstr(bool compressed) const
    {
        const double kilo_instrs =
            static_cast<double>(retiredInstrs) / 1000.0;
        const double bits = static_cast<double>(
            compressed ? pi.compressedBits : pi.rawBits);
        return kilo_instrs > 0 ? bits / kilo_instrs : 0.0;
    }

    double
    csBitsPerProcPerKiloInstr(bool compressed) const
    {
        const double kilo_instrs =
            static_cast<double>(retiredInstrs) / 1000.0;
        const double bits = static_cast<double>(
            compressed ? cs.compressedBits : cs.rawBits);
        return kilo_instrs > 0 ? bits / kilo_instrs : 0.0;
    }
};

/** Everything produced by recording one execution. */
struct Recording
{
    MachineConfig machine;
    ModeConfig mode;
    std::string appName;
    std::uint64_t workloadSeed = 0;
    unsigned iterationsPercent = 100;

    PiLog pi{8};
    std::vector<Stratum> strata; ///< filled when mode.stratify... != 0
    std::vector<CsLog> cs;       ///< one per processor
    InterruptLog interrupts{8};
    IoLog io{8};
    DmaLog dma;

    ExecutionFingerprint fingerprint;
    EngineStats stats;

    /// System checkpoints taken during recording (Figure 2), at the
    /// GCC values requested through EngineOptions::checkpointGccs.
    std::vector<SystemCheckpoint> checkpoints;

    bool stratified() const { return mode.stratifyChunksPerProc != 0; }

    /**
     * Expected fingerprint of I(ckpt.gcc, end), derived from the
     * checkpoint's own per-processor commit counts instead of a PI-log
     * scan — the count of chunk commits before the boundary is
     * sum(committedChunks), for every mode (including stratified
     * recordings, whose PI log has no per-commit entries).
     */
    ExecutionFingerprint
    fingerprintFromCheckpoint(const SystemCheckpoint &ckpt) const
    {
        std::uint64_t chunk_commits = 0;
        for (const ChunkSeq c : ckpt.committedChunks)
            chunk_commits += c;
        ExecutionFingerprint fp = fingerprint;
        fp.commits.erase(fp.commits.begin(),
                         fp.commits.begin()
                             + static_cast<long>(std::min<std::size_t>(
                                 chunk_commits, fp.commits.size())));
        return fp;
    }

    /**
     * Expected fingerprint of the bounded interval I(from, to): the
     * chunk commits between the two checkpoints, with the final state
     * (per-thread acc/retired and memory hash) taken from @p to.
     * @p from may be null for an interval starting at GCC 0.
     */
    ExecutionFingerprint
    fingerprintBetween(const SystemCheckpoint *from,
                       const SystemCheckpoint &to) const
    {
        std::uint64_t lo = 0;
        if (from)
            for (const ChunkSeq c : from->committedChunks)
                lo += c;
        std::uint64_t hi = 0;
        for (const ChunkSeq c : to.committedChunks)
            hi += c;
        lo = std::min<std::uint64_t>(lo, fingerprint.commits.size());
        hi = std::min<std::uint64_t>(hi, fingerprint.commits.size());
        ExecutionFingerprint fp;
        fp.commits.assign(fingerprint.commits.begin()
                              + static_cast<long>(lo),
                          fingerprint.commits.begin()
                              + static_cast<long>(std::max(lo, hi)));
        for (const ThreadContext &ctx : to.contexts) {
            fp.perProcAcc.push_back(ctx.acc);
            fp.perProcRetired.push_back(ctx.retired);
        }
        fp.finalMemHash = to.memory.hash();
        return fp;
    }

    /**
     * Expected fingerprint of a replay from @p start (null: GCC 0) to
     * @p stop (null: program end) — the reference both replayers and
     * the checked entry points judge a replayed stream against.
     */
    ExecutionFingerprint
    expectedFingerprint(const SystemCheckpoint *start,
                        const SystemCheckpoint *stop) const
    {
        if (stop)
            return fingerprintBetween(start, *stop);
        if (start)
            return fingerprintFromCheckpoint(*start);
        return fingerprint;
    }

    /** Measure raw + compressed memory-ordering log sizes. */
    LogSizeReport
    logSizes() const
    {
        const Lz77 codec;
        LogSizeReport report;
        report.retiredInstrs = stats.retiredInstrs;
        report.numProcs = machine.numProcs;

        if (mode.mode != ExecMode::kPicoLog) {
            if (stratified()) {
                Stratifier packer(machine.numProcs,
                                  mode.stratifyChunksPerProc);
                // Recompute packing from stored strata.
                std::uint64_t raw = 0;
                BitWriter writer;
                for (const auto &s : strata) {
                    for (const auto c : s.counts) {
                        writer.write(c, packer.counterBits());
                        raw += packer.counterBits();
                    }
                }
                report.pi.rawBits = raw;
                report.pi.compressedBits =
                    codec.compressedBits(writer.bytes());
            } else {
                report.pi.rawBits = pi.sizeBits();
                report.pi.compressedBits =
                    codec.compressedBits(pi.packedBytes());
            }
        }

        for (const auto &log : cs) {
            report.cs.rawBits += log.sizeBits();
            report.cs.compressedBits +=
                codec.compressedBits(log.packedBytes());
        }
        return report;
    }
};

} // namespace delorean

#endif // DELOREAN_CORE_RECORDING_HPP_
