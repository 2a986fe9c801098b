/**
 * @file
 * Log fault injector: mutate serialized recordings, assert grace.
 *
 * rr-style robustness testing for the replay pipeline. A recording is
 * serialized, a deterministic mutation is applied to the byte stream
 * (bit flips, truncation at an arbitrary offset, 8-byte record-word
 * duplication or reordering, header corruption), and the mutant is
 * pushed through loadRecording() + checkedReplay(). The acceptable
 * outcomes are exactly:
 *
 *   - the loader rejects it with a RecordingFormatError,
 *   - the replay reproduces the recording (mutation hit dead bytes,
 *     e.g. a statistics field),
 *   - checkedReplay returns a structured DivergenceReport (typed
 *     replay error, or a localized divergence).
 *
 * Crashes, hangs (fenced by the replay event budget) and any other
 * exception type are sweep failures, counted as kUnexpected.
 */

#ifndef DELOREAN_VALIDATE_FAULT_INJECTOR_HPP_
#define DELOREAN_VALIDATE_FAULT_INJECTOR_HPP_

#include <cstdint>
#include <string>
#include <vector>

#include "core/recording.hpp"
#include "store/ring.hpp"
#include "validate/replay_check.hpp"

namespace delorean
{

/** Mutation classes applied to the serialized byte stream. */
enum class MutationKind : std::uint8_t
{
    kBitFlip,       ///< flip 1-8 random bits anywhere
    kTruncate,      ///< cut the stream at a random byte offset
    kDuplicateWord, ///< duplicate a random aligned 8-byte record word
    kReorderWords,  ///< swap two random aligned 8-byte record words
    kHeaderCorrupt, ///< scribble on the magic/version/config header
    // Checkpoint-chain mutants (kinds kStreamMutationKinds and up):
    // each forges one field of a stored chain image, so the loader
    // must reject it (a stream without a fitting image is left
    // unchanged).
    kKeyframeWordCount, ///< change a keyframe's word count
    kDeltaBaseGcc,      ///< forge a delta's base GCC
    kDeltaMemoryHash,   ///< forge a delta's memory hash
    kOrphanDelta,       ///< store checkpoint 0, a chain head, as a delta
    kNonMinimalVarint,  ///< pad one address gap's varint with a zero byte
};

constexpr unsigned kMutationKinds = 10;

/// The kinds before the chain kinds: they mutate any stream byte.
constexpr unsigned kStreamMutationKinds = 5;

/** Short printable name of a mutation kind. */
const char *mutationKindName(MutationKind kind);

/**
 * Deterministically mutate @p bytes (seed => same mutant). The result
 * may be any length, including empty.
 */
std::string mutateSerialized(const std::string &bytes,
                             MutationKind kind, std::uint64_t seed);

/** How one mutant fared. */
enum class MutantOutcome : std::uint8_t
{
    kRejectedAtLoad,    ///< RecordingFormatError from the loader
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
    MutationKind kind = MutationKind::kBitFlip;
    std::uint64_t seed = 0;
    MutantOutcome outcome = MutantOutcome::kUnexpected;
    DivergenceReport report;
};

struct ArchiveMutantResult;
struct RingMutantResult;

/** The container a fault sweep mutates; it names describe()'s line. */
enum class SweepTarget : std::uint8_t
{
    kRecording, ///< a serialized recording ("fault sweep")
    kArchive,   ///< a `.dla` archive ("archive fault sweep")
    kRing,      ///< a ring directory ("ring fault sweep")
};

/**
 * Aggregate of a fault-injection sweep over any container. Adding an
 * archive or ring mutant's result sets the target to match.
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
    void add(const ArchiveMutantResult &r);
    void add(const RingMutantResult &r);
    std::string describe() const;
};

/**
 * Run one mutant: serialize-side mutation of @p serialized, then
 * load + checked replay with @p opts.
 */
MutantResult runMutant(const std::string &serialized, MutationKind kind,
                       std::uint64_t seed,
                       const ReplayCheckOptions &opts = {});

/**
 * Sweep @p mutants_per_kind mutants of every kind over @p rec.
 * Mutation seeds derive from @p seed0. The chain kinds forge @p rec's
 * checkpoint images, so they need a recording with checkpoints. For a
 * full-run check, which never reads a checkpoint, the other kinds
 * mutate @p rec's serialization without its checkpoints: images are
 * most of a stream's bytes and would otherwise absorb nearly every
 * mutant meant for the logs. Runs on the calling thread; callers
 * wanting parallelism fan runMutant() out themselves (see
 * bench/validate_sweep.cpp).
 */
FaultSweepSummary runFaultSweep(const Recording &rec,
                                unsigned mutants_per_kind,
                                std::uint64_t seed0,
                                const ReplayCheckOptions &opts = {});

// ----- archive-level fault injection (src/store container) ------------------

/**
 * Mutation classes applied to an archive byte stream. Unlike the
 * serialized-recording mutations above, these target the container's
 * structural layers: the segment records (header, checkpoint image,
 * compressed payload), the footer, and the footer's record index
 * (where the CRC is *valid* but the index lies, so the reader's
 * cross-checks — not the checksum — must catch it).
 */
enum class ArchiveMutationKind : std::uint8_t
{
    kSegmentBitFlip, ///< flip 1-8 bits inside one segment record
    kFooterTruncate, ///< cut the stream inside the footer or trailer
    kIndexCorrupt,   ///< scribble on the raw footer, then rebuild a
                     ///< *valid* trailer (size and CRC)
};

constexpr unsigned kArchiveMutationKinds = 3;

/** Short printable name of an archive mutation kind. */
const char *archiveMutationKindName(ArchiveMutationKind kind);

/**
 * Deterministically mutate archive @p bytes (seed => same mutant).
 * @p bytes must be a well-formed archive (the mutator reads its own
 * index to aim at the right region); malformed input falls back to a
 * plain bit flip.
 */
std::vector<std::uint8_t>
mutateArchive(const std::vector<std::uint8_t> &bytes,
              ArchiveMutationKind kind, std::uint64_t seed);

/** One archive mutant's result. */
struct ArchiveMutantResult
{
    ArchiveMutationKind kind = ArchiveMutationKind::kSegmentBitFlip;
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
 * Run one archive mutant: mutate @p archive, then drive the full
 * reader pipeline — parse, readAll(), checked replay, and (when the
 * mutant still exposes checkpoints) an interval-replay leg through
 * readInterval(). Acceptable outcomes mirror runMutant(): a typed
 * rejection, an identical replay, or a structured divergence. Crashes
 * and untyped exceptions are kUnexpected.
 */
ArchiveMutantResult
runArchiveMutant(const std::vector<std::uint8_t> &archive,
                 ArchiveMutationKind kind, std::uint64_t seed,
                 const ReplayCheckOptions &opts = {},
                 ArchiveLoadPath load_path = ArchiveLoadPath::kBuffered);

/**
 * Sweep @p mutants_per_kind archive mutants of every kind over the
 * archived form of @p rec. Record @p rec with checkpoints (e.g. a
 * checkpoint period) so the interval-replay leg has seek targets.
 */
FaultSweepSummary
runArchiveFaultSweep(const Recording &rec, unsigned mutants_per_kind,
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
 * acceptable outcomes mirror runArchiveMutant: a typed rejection, a
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
