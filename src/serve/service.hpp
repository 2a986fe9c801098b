/**
 * @file
 * Streaming record/replay service: a pipelined multi-session daemon.
 *
 * A *session* is one unit of client work over a recording identified
 * by a RecordJob: record it (and stream its archive to disk while the
 * simulation still runs), replay it, or run a checked validation
 * replay. The service multiplexes many heterogeneous sessions over
 * one WorkerPool:
 *
 *  - **Content-addressed dedupe.** Every session resolves its initial
 *    execution through a RecordingCache keyed on the full RecordJob,
 *    so N sessions over the same (app, seed, scale, machine, mode,
 *    env) pay for exactly one simulation — whichever session arrives
 *    first records; the rest reuse the recording.
 *  - **Incremental archive emission.** The recording session streams
 *    the .dla archive through a StreamingArchiveWriter wired into the
 *    engine's checkpoint hook, overlapping LZ77/CRC/file I/O with the
 *    rest of the simulation. The streamed bytes are byte-identical to
 *    saveRecordingFile() of the finished recording.
 *  - **Always-on ring emission.** With a ring directory set, each
 *    distinct recording also streams a rotating segmented ring
 *    (store/ring) through the same checkpoint hook: a bounded-budget
 *    sliding window that stays replayable — and crash-recoverable —
 *    while the session is still recording. Ring counters (segments
 *    cut, evicted, retained bytes) are deterministic and appear in
 *    the ledger.
 *  - **Scheduling.** Sessions dispatch in submission order; the pool
 *    width bounds how many run at once.
 *  - **Deterministic ledger.** The final JSON ledger (sessions in
 *    submission order, recordings keyed and sorted by cache key) is
 *    byte-identical at any worker count; wall-clock throughput lives
 *    in a separable section that benchmarks opt into.
 */

#ifndef DELOREAN_SERVE_SERVICE_HPP_
#define DELOREAN_SERVE_SERVICE_HPP_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/campaign.hpp"
#include "store/archive.hpp"
#include "store/ring.hpp"

namespace delorean
{

/** What a session does with its recording. */
enum class ServeClass
{
    kRecord,   ///< record (and archive, when an archive dir is set)
    kReplay,   ///< plain deterministic replay
    kValidate, ///< checkedReplay with full divergence fencing
};

const char *serveClassName(ServeClass cls);

/** One client session. */
struct ServeJob
{
    ServeClass cls = ServeClass::kRecord;
    RecordJob record;                 ///< identifies the recording
    std::uint64_t replayEnvSeed = 99; ///< replay/validate env seed
};

/**
 * Parse one job-file line into @p job. Format (class first, then
 * key=value fields in any order):
 *
 *   record   app=radix seed=7 scale=30 procs=8 mode=order-and-size env=1
 *   replay   app=radix seed=7 scale=30 mode=order-only renv=5
 *   validate app=fft mode=order-only-strat strat=4 renv=9
 *
 * modes: the modeConfigName() spellings (order-and-size, order-only,
 * order-only-strat, picolog); order-only-strat takes
 * strat=<chunks per proc per stratum>, default 4. Omitted
 * fields keep ServeJob/RecordJob defaults. Empty lines and lines
 * starting with '#' return false with an empty @p error; malformed
 * lines return false with a diagnostic.
 */
bool parseServeJob(const std::string &line, ServeJob &job,
                   std::string &error);

/**
 * Parse a whole job stream (one job per line). Throws
 * std::runtime_error naming the first malformed line.
 */
std::vector<ServeJob> parseServeJobs(std::istream &in);

/** Service knobs. */
struct ServeOptions
{
    /// Worker-pool width; 0 uses campaignJobs() (DELOREAN_JOBS).
    unsigned jobs = 0;

    /// Directory for streamed .dla archives (created if missing);
    /// empty disables archive emission.
    std::string archiveDir;

    /// Checkpoint (= archive segment) period in global commits for
    /// recordings made by the service.
    std::uint64_t checkpointPeriod = 50;

    /// Directory for always-on ring archives (created if missing);
    /// each distinct recording streams a rotating segmented ring into
    /// <ringDir>/<id>.ring while the simulation runs. Empty disables
    /// ring emission.
    std::string ringDir;

    /// Per-recording ring disk budget (RingOptions::budgetBytes).
    std::uint64_t ringBudgetBytes = 4u << 20;

    /// Cross-check every hook-fed archive against saveRecording of the
    /// finished recording (the same writer fed at close); a mismatch
    /// fails the recording session.
    bool verifyArchives = false;

    /// Codec/I/O knobs for the streaming writers.
    ArchiveIoOptions archiveIo{};

    /// Live progress: one JSON line per completed session (completion
    /// order, so only for humans/monitors — the ledger is the
    /// deterministic artifact). Null disables.
    std::ostream *progress = nullptr;
};

/** Outcome of one session, in submission order. */
struct ServeSessionResult
{
    bool ok = false;
    /// Classified failure (exception text or divergence kind); empty
    /// when ok.
    std::string error;
    /// This session performed the initial execution. Scheduling-
    /// dependent at jobs > 1 (excluded from the ledger); the *count*
    /// of fresh sessions equals the distinct-key count and is not.
    bool fresh = false;
    double seconds = 0.0; ///< session wall time (throughput only)
};

/** Everything known about one distinct recording the service made. */
struct ServeRecordingInfo
{
    std::string key;          ///< recordJobKey — the sort key
    std::string app;
    std::string modeName;
    std::uint64_t archiveBytes = 0;   ///< 0 when not archived
    std::uint64_t archiveSegments = 0;
    std::string archivePath;          ///< empty when not archived
    std::uint64_t ringBytes = 0;      ///< retained ring bytes
    std::uint64_t ringSegments = 0;   ///< ring segments cut
    std::uint64_t ringEvicted = 0;    ///< ring segments evicted
    std::string ringPath;             ///< empty when no ring
    std::uint64_t sessions = 0;       ///< sessions resolving to this key
};

/** Service outcome. */
struct ServeReport
{
    std::vector<ServeSessionResult> sessions; ///< submission order
    std::vector<ServeRecordingInfo> recordings; ///< sorted by key
    std::uint64_t cacheHits = 0;
    std::uint64_t cacheMisses = 0;
    unsigned jobs = 1;         ///< pool width used
    double wallSeconds = 0.0;

    std::uint64_t okCount() const;
    std::uint64_t archiveBytesTotal() const;

    /**
     * The JSON ledger. Without @p include_throughput the text is
     * byte-identical at any ServeOptions::jobs; with it, a trailing
     * "throughput" section adds wall-clock figures.
     */
    std::string ledgerJson(bool include_throughput = false) const;
};

/** The multiplexer. One run() per instance. */
class ServeService
{
  public:
    explicit ServeService(const ServeOptions &opts = {});

    /** Execute every session; blocks until all complete. */
    ServeReport run(const std::vector<ServeJob> &jobs);

  private:
    ServeOptions opts_;
};

} // namespace delorean

#endif // DELOREAN_SERVE_SERVICE_HPP_
