/**
 * @file
 * Machine and execution-mode configuration.
 *
 * Defaults follow Table 5 of the paper (8-processor 5 GHz CMP, BulkSC
 * memory system) and the preferred per-mode DeLorean parameters.
 */

#ifndef DELOREAN_COMMON_CONFIG_HPP_
#define DELOREAN_COMMON_CONFIG_HPP_

#include <cstdint>

#include "common/types.hpp"

namespace delorean
{

/** DeLorean execution modes (Table 2). */
enum class ExecMode : std::uint8_t
{
    kOrderAndSize, ///< non-deterministic chunking, recorded commit order
    kOrderOnly,    ///< deterministic chunking, recorded commit order
    kPicoLog,      ///< deterministic chunking, predefined commit order
};

/** Short printable name of an execution mode. */
const char *execModeName(ExecMode mode);

/** Memory hierarchy latencies and geometry (Table 5, "Memory"). */
struct MemoryConfig
{
    unsigned l1SizeBytes = 32 * 1024; ///< private write-back D-L1
    unsigned l1Ways = 4;
    Cycle l1RoundTrip = 2;
    unsigned l1Mshrs = 8;

    unsigned l2SizeBytes = 8 * 1024 * 1024; ///< shared L2
    unsigned l2Ways = 8;
    Cycle l2RoundTrip = 13;
    unsigned l2Mshrs = 32;

    Cycle memRoundTrip = 300;
};

/** Processor throughput parameters (Table 5, "Processor"). */
struct ProcessorConfig
{
    double ghz = 5.0;          ///< clock frequency (for GB/day estimates)
    unsigned fetchWidth = 6;
    unsigned issueWidth = 4;
    unsigned commitWidth = 5;
    unsigned robSize = 176;
    Cycle branchPenalty = 17;
    /// Fraction (per mille) of dynamic instructions that are
    /// mispredicted branches; drives the branch-penalty component of
    /// the timing model.
    unsigned branchMissPerMille = 8;
};

/** BulkSC / chunking parameters (Table 5, "BulkSC"). */
struct BulkConfig
{
    unsigned signatureBits = 2048;      ///< R and W signature size
    Cycle commitArbitration = 30;       ///< arbiter round trip
    unsigned maxConcurrentCommits = 4;
    unsigned simultaneousChunks = 2;    ///< in-flight chunks per proc
    unsigned numDirectories = 1;
    /// After this many squashes of the same chunk, halve its target
    /// size (BulkSC repeated-collision back-off, Section 4.2.3).
    unsigned collisionBackoffThreshold = 4;
    /// Arbiter disambiguation: true uses exact per-chunk line sets
    /// (idealized signatures — BulkSC reports negligible aliasing in
    /// its tuned hardware signatures); false uses the Bloom-banked
    /// Signature model including its false-positive squashes. The
    /// signature-aliasing ablation bench flips this.
    bool exactDisambiguation = true;
};

/** Full machine configuration. */
struct MachineConfig
{
    unsigned numProcs = 8;
    ProcessorConfig proc;
    MemoryConfig mem;
    BulkConfig bulk;
};

/**
 * Per-mode DeLorean configuration (Table 5, "Preferred DeLorean
 * Configurations").
 */
struct ModeConfig
{
    ExecMode mode = ExecMode::kOrderOnly;

    /// Standard chunk size in dynamic instructions (maximum size in
    /// Order&Size, where chunking is not deterministic).
    InstrCount chunkSize = 2000;

    /// Order&Size only: fraction (percent) of chunks artificially
    /// truncated to a uniform size in [1, chunkSize] to model an
    /// environment with variable-sized chunks (Section 5).
    unsigned varSizeTruncatePercent = 25;

    /// CS log entry widths. OrderOnly: 21-bit distance + 11-bit size;
    /// PicoLog: 22-bit distance + 10-bit size (Table 5). Order&Size
    /// ignores these and uses the variable 1/12-bit encoding.
    unsigned csDistanceBits = 21;
    unsigned csSizeBits = 11;

    /// PI log entry width; 4 bits encode 8 processors plus the DMA.
    unsigned piProcIdBits = 4;

    /// Stratify the PI log (Section 4.3). 0 = off; otherwise the
    /// maximum number of committed chunks per processor per stratum.
    unsigned stratifyChunksPerProc = 0;

    /** Preferred Order&Size configuration. */
    static ModeConfig
    orderAndSize()
    {
        ModeConfig c;
        c.mode = ExecMode::kOrderAndSize;
        c.chunkSize = 2000;
        return c;
    }

    /** Preferred OrderOnly configuration. */
    static ModeConfig
    orderOnly()
    {
        ModeConfig c;
        c.mode = ExecMode::kOrderOnly;
        c.chunkSize = 2000;
        c.csDistanceBits = 21;
        c.csSizeBits = 11;
        return c;
    }

    /** Preferred PicoLog configuration. */
    static ModeConfig
    picoLog()
    {
        ModeConfig c;
        c.mode = ExecMode::kPicoLog;
        c.chunkSize = 1000;
        c.csDistanceBits = 22;
        c.csSizeBits = 10;
        return c;
    }
};

} // namespace delorean

#endif // DELOREAN_COMMON_CONFIG_HPP_
