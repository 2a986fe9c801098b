/**
 * @file
 * Shared internals of the archive containers (library-private).
 *
 * The batch `.dla` writer/reader (store/archive) and the ring
 * container (store/ring) serialize exactly the same per-segment log
 * slices: both cut a recording at checkpoint boundaries and store the
 * slice between two consecutive boundaries as one LZ77-compressed
 * payload. This header exposes the slice machinery — boundary math,
 * payload build/parse, the interval-reconstruction scaffold — so the
 * two containers stay byte-compatible by construction: a ring
 * segment's payload for a given checkpoint interval is identical to
 * the batch archive's, and an interval Recording reconstructed from
 * either container is byte-identical under saveRecording().
 *
 * Everything here is an implementation detail: not installed, not
 * part of the public API, subject to change with the container
 * formats.
 */

#ifndef DELOREAN_STORE_ARCHIVE_DETAIL_HPP_
#define DELOREAN_STORE_ARCHIVE_DETAIL_HPP_

#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/recording.hpp"
#include "sim/campaign.hpp"

namespace delorean
{
namespace archive_detail
{

/**
 * Per-segment boundary state: where every log cursor stands at the
 * end of a segment's GCC interval. Consecutive boundaries define the
 * half-open slice ranges a segment's payload holds.
 */
struct Boundary
{
    std::uint64_t gcc = 0;        ///< PI entries consumed (flat modes)
    std::uint64_t chunkCommits = 0; ///< fingerprint commits consumed
    std::size_t strataIdx = 0;
    std::size_t dmaIdx = 0;
    std::vector<ChunkSeq> committed;  ///< per-proc chunk seq frontier
    std::vector<std::uint64_t> ioIdx; ///< per-proc I/O value frontier
};

/**
 * Boundary at @p ckpt; @p segment only labels alignment errors.
 * Throws RecordingFormatError when the checkpoint does not land on a
 * stratum boundary of a stratified recording.
 */
Boundary boundaryAtCheckpoint(const Recording &rec,
                              const SystemCheckpoint &ckpt,
                              std::size_t segment);

/** Boundary at the end of the (complete) recording. */
Boundary boundaryAtEnd(const Recording &rec);

/** Serialize the log slices between boundaries @p lo and @p hi. */
std::string buildSegmentPayload(const Recording &rec, const Boundary &lo,
                                const Boundary &hi);

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
SegmentSlice parseSegmentPayload(const std::vector<std::uint8_t> &raw,
                                 unsigned n);

/**
 * Decode + parse one segment, attributing parse errors to it as a
 * typed ArchiveError naming segment @p index.
 */
SegmentSlice decodeSegment(const std::vector<std::uint8_t> &raw,
                           unsigned num_procs, std::size_t index);

/** LZ77-compress one payload (or footer) blob. */
std::vector<std::uint8_t> compressPayload(const std::string &raw);

/** Little-endian u64 at @p offset (caller guarantees bounds). */
std::uint64_t readU64At(const std::uint8_t *bytes, std::size_t offset);

/**
 * Run @p tasks over a pool, collecting each task's exception (if any)
 * by index; the caller decides rethrow order. Task results land in
 * caller-owned index-keyed slots, so outcomes are independent of the
 * worker count — the parallel-codec analogue of the campaign runner's
 * determinism rule.
 */
void runIndexed(WorkerPool &pool,
                std::vector<std::function<void()>> tasks,
                std::vector<std::exception_ptr> &errors);

/** Shared recording scaffold for whole-container and interval reads. */
Recording skeletonRecording(const MachineConfig &machine,
                            const ModeConfig &mode,
                            const std::string &app, std::uint64_t seed,
                            unsigned iterations);

/** Append one decoded segment slice onto @p rec's logs. */
void appendSlice(Recording &rec, const SegmentSlice &slice,
                 std::vector<std::uint64_t> &io_base,
                 std::size_t segment);

/**
 * Append the synthetic pre-interval prefix implied by @p start onto a
 * fresh skeleton: filler PI entries / capped strata, empty DMA
 * transfers and zeroed fingerprint commits sized so the replay skip
 * logic consumes exactly the recording prefix the interval omits.
 */
void appendSyntheticPrefix(Recording &rec,
                           const SystemCheckpoint &start);

} // namespace archive_detail
} // namespace delorean

#endif // DELOREAN_STORE_ARCHIVE_DETAIL_HPP_
