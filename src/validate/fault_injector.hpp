/**
 * @file
 * Fault injector: mutate recording files, assert grace.
 *
 * rr-style robustness testing for the load and replay pipeline. A
 * recording is saved as its one file (a `.dla`, core/serialize.hpp), a
 * deterministic mutation is applied to the bytes, and the mutant is
 * pushed through ArchiveReader (open, readAll()), a checked replay and,
 * when the mutant still exposes checkpoints, an interval replay off
 * readInterval(). The acceptable outcomes are exactly:
 *
 *   - the reader rejects it with a RecordingFormatError (an
 *     ArchiveError naming the failing section, and segment when it
 *     can),
 *   - the replay reproduces the recording (mutation hit dead bytes,
 *     e.g. a statistics field),
 *   - the checked replay returns a structured DivergenceReport (typed
 *     replay error, or a localized divergence).
 *
 * Crashes, hangs (fenced by the replay event budget) and any other
 * exception type are sweep failures, counted as kUnexpected.
 *
 * A ring directory (store/ring) has its own crash-and-rot family
 * (RingMutationKind), classified and summarized the same way.
 */

#ifndef DELOREAN_VALIDATE_FAULT_INJECTOR_HPP_
#define DELOREAN_VALIDATE_FAULT_INJECTOR_HPP_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/recording.hpp"
#include "store/ring.hpp"
#include "validate/replay_check.hpp"

namespace delorean
{

/**
 * Mutation classes applied to a recording file. The byte kinds damage
 * bytes as storage would; the others are *resealed forgeries*: each
 * rewrites one field and recomputes every CRC that covers it, so only
 * the reader's semantic checks and the checked replay can catch it.
 */
enum class MutationKind : std::uint8_t
{
    kRecordBitFlip, ///< flip 1-8 bits inside one segment record
    kTruncate,      ///< cut the file at a random byte offset
    kIndexCorrupt,  ///< scribble on the footer, then reseal the trailer
    /// Decode one segment payload, flip bits in it, duplicate one of
    /// its 8-byte words or swap two, then recompress and reseal it, so
    /// forged logs reach the checked replay.
    kLogForgery,
    // Chain forgeries (kinds kLogMutationKinds and up): each forges one
    // field of a stored checkpoint image and reseals its record, so
    // the reader must reject it (a file without a fitting image is
    // left unchanged).
    kKeyframeWordCount, ///< change a keyframe's word count
    kDeltaBaseGcc,      ///< forge a delta's base GCC
    kDeltaMemoryHash,   ///< forge a delta's memory hash
    kOrphanDelta,       ///< store checkpoint 0, a chain head, as a delta
    kNonMinimalVarint,  ///< pad one address gap's varint with a zero byte
};

constexpr unsigned kMutationKinds = 9;

/// The kinds before the chain forgeries: they need no checkpoint image,
/// so they apply to a recording without checkpoints too.
constexpr unsigned kLogMutationKinds = 4;

/** Short printable name of a mutation kind. */
const char *mutationKindName(MutationKind kind);

/**
 * Deterministically mutate the recording file @p bytes (seed => same
 * mutant). The mutator reads the file's own index to aim; a file that
 * does not open gets a plain bit flip (a truncation stays one). The
 * result may be any length, including empty.
 */
std::vector<std::uint8_t>
mutateRecording(const std::vector<std::uint8_t> &bytes, MutationKind kind,
                std::uint64_t seed);

/** How one mutant fared. */
enum class MutantOutcome : std::uint8_t
{
    kRejectedAtLoad,    ///< RecordingFormatError from the reader
    kReplayedIdentically, ///< mutation did not change replay-relevant bytes
    kDivergenceDetected, ///< structured report with a localized chunk
    kReplayErrorReported, ///< typed ReplayError converted to a report
    kUnexpected,        ///< anything else — a sweep failure
};

/** Short printable name of a mutant outcome. */
const char *mutantOutcomeName(MutantOutcome outcome);

/** One mutant's result. */
struct MutantResult
{
    MutationKind kind = MutationKind::kRecordBitFlip;
    std::uint64_t seed = 0;
    MutantOutcome outcome = MutantOutcome::kUnexpected;
    /// True when the rejection was a typed ArchiveError (so the
    /// failing section — and, for segments, the segment id — was
    /// named), rather than a generic RecordingFormatError.
    bool typedArchiveError = false;
    /// Failing segment id when typedArchiveError named one, else
    /// ArchiveError::kNoSegment.
    std::size_t segment = static_cast<std::size_t>(-1);
    std::string message;
};

struct RingMutantResult;

/** The container a fault sweep mutates; it names describe()'s line. */
enum class SweepTarget : std::uint8_t
{
    kRecording, ///< a recording file ("fault sweep")
    kRing,      ///< a ring directory ("ring fault sweep")
};

/**
 * Aggregate of a fault-injection sweep. Adding a ring mutant's result
 * sets the target to match.
 */
struct FaultSweepSummary
{
    SweepTarget target = SweepTarget::kRecording;
    std::uint64_t total = 0;
    std::uint64_t rejectedAtLoad = 0;
    std::uint64_t replayedIdentically = 0;
    std::uint64_t divergenceDetected = 0;
    std::uint64_t replayErrorReported = 0;
    std::uint64_t unexpected = 0;
    /// Ring mutants recovery salvaged (opened with drops or a dead
    /// index); describe() prints it for ring sweeps.
    std::uint64_t salvaged = 0;
    /// The failing mutants, one "<kind> seed <n>: <message>" line each
    /// (empty when the sweep is clean).
    std::vector<std::string> unexpectedResults;

    bool ok() const { return unexpected == 0; }
    void add(const MutantResult &r);
    void add(const RingMutantResult &r);
    std::string describe() const;
};

/**
 * Which ArchiveReader entry point a sweep pushes its mutants through.
 * Both are required to produce identical typed errors on identical
 * bytes; sweeping each path certifies that the zero-copy mmap reader
 * fences corruption exactly like the buffered one.
 */
enum class ArchiveLoadPath : std::uint8_t
{
    kBuffered, ///< ArchiveReader::fromBytes on an in-memory copy
    kMmapFile, ///< write to a temp file, ArchiveReader::fromFile with
               ///< mmap enabled (buffered fallback where unsupported)
};

/**
 * Run one mutant: mutate @p file, then drive the full reader pipeline
 * — open, readAll(), checked replay with @p opts, and (when the mutant
 * still exposes checkpoints) an interval-replay leg through
 * readInterval().
 */
MutantResult runMutant(const std::vector<std::uint8_t> &file,
                       MutationKind kind, std::uint64_t seed,
                       const ReplayCheckOptions &opts = {},
                       ArchiveLoadPath load_path = ArchiveLoadPath::kBuffered);

/**
 * Sweep @p mutants_per_kind mutants of every kind over the file of
 * @p rec. Mutation seeds derive from @p seed0. The chain forgeries
 * need a recording with checkpoints (record with a checkpoint period);
 * so does the interval leg. Runs on the calling thread; callers
 * wanting parallelism fan runMutant() out themselves (see
 * bench/validate_sweep.cpp).
 */
FaultSweepSummary runFaultSweep(const Recording &rec,
                                unsigned mutants_per_kind,
                                std::uint64_t seed0,
                                const ReplayCheckOptions &opts = {},
                                ArchiveLoadPath load_path =
                                    ArchiveLoadPath::kBuffered);

// ----- ring-level fault injection (src/store/ring directory container) ------

/**
 * Mutation classes applied to a ring *directory*. These model the
 * crash-and-rot shapes an always-on recorder actually leaves behind:
 * history holes from eviction racing a crash, a final segment torn
 * mid-write, and an index file that survived but lies about the
 * directory it describes.
 */
enum class RingMutationKind : std::uint8_t
{
    kEvictedGap, ///< delete one retained non-newest segment file
    kTornTail,   ///< truncate the newest segment file at a random byte
    kStaleIndex, ///< ring.index lies: deleted, bit-flipped, or
                 ///< rewritten with a *valid* CRC over false contents
};

constexpr unsigned kRingMutationKinds = 3;

/** Short printable name of a ring mutation kind. */
const char *ringMutationKindName(RingMutationKind kind);

/**
 * Deterministically mutate ring directory @p dir in place
 * (seed => same mutant). @p dir should be a scratch copy.
 */
void mutateRing(const std::string &dir, RingMutationKind kind,
                std::uint64_t seed);

/** One ring mutant's result. */
struct RingMutantResult
{
    RingMutationKind kind = RingMutationKind::kEvictedGap;
    std::uint64_t seed = 0;
    MutantOutcome outcome = MutantOutcome::kUnexpected;
    /// Recovery opened the ring but had to drop files or ignore the
    /// index (RingRecoveryInfo was not a clean, index-certified open).
    bool salvaged = false;
    /// Segment files recovery dropped (from RingRecoveryInfo).
    std::size_t droppedSegments = 0;
    std::string message;
};

/**
 * Run one ring mutant: copy @p ring_dir to a scratch directory,
 * mutate it, then drive RingArchiveReader::open plus a bounded
 * interval-replay leg over whatever window recovery retained (and an
 * unbounded leg when the mutant still reads as cleanly closed). The
 * acceptable outcomes mirror runMutant: a typed rejection, a
 * successful salvage that replays identically, or a structured
 * divergence. Crashes, hangs and untyped exceptions are kUnexpected.
 */
RingMutantResult runRingMutant(const std::string &ring_dir,
                               RingMutationKind kind,
                               std::uint64_t seed,
                               const ReplayCheckOptions &opts = {});

/**
 * Sweep @p mutants_per_kind ring mutants of every kind over @p rec,
 * recorded once into a scratch ring with @p ring_opts. Record @p rec
 * with a checkpoint period so recovery has replay starting points.
 */
FaultSweepSummary
runRingFaultSweep(const Recording &rec, unsigned mutants_per_kind,
                  std::uint64_t seed0,
                  const ReplayCheckOptions &opts = {},
                  const RingOptions &ring_opts = {});

} // namespace delorean

#endif // DELOREAN_VALIDATE_FAULT_INJECTOR_HPP_
