/**
 * @file
 * ring_overhead: always-on recording ledger -> BENCH_ring.json.
 *
 * Measures what the ring archive (src/store/ring) costs over the
 * batch pipeline it replaces in production, across a checkpointPeriod
 * x ringBudget grid:
 *
 *   - steady-state recording overhead: wall time of a record run that
 *     streams every checkpoint interval into a RingArchiveWriter
 *     (compression, eviction and index rewrites overlapped on the
 *     flusher) versus the batch baseline of the same record run plus
 *     a saveRecording() pass (the `.dla`);
 *   - worst-case seek-to-replay latency, in both commits (the
 *     replay-start lag the availability contract bounds by T) and
 *     wall time (open + time-travel seek + bounded interval decode);
 *   - the contract checks themselves: writer worstStartLag <= T and
 *     the widest seekable gap <= T on every cell, clean recovery on
 *     every cell, eviction actually exercised on the tight cells, an
 *     infeasible (budget, period, T) rejected with a typed
 *     ConfigError, and ring interval views byte-identical to the
 *     batch archive's.
 *
 * The headline number is the overhead ratio at the default checkpoint
 * period (50) with nothing evicted; the gate in the JSON is <= 1.10x.
 * Timings are best-of-N; stdout carries only deterministic facts,
 * wall-clock goes to the JSON and stderr. Exit status reflects the
 * contract checks, never speed. Path override: DELOREAN_RING_JSON.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/errors.hpp"
#include "core/recorder.hpp"
#include "core/serialize.hpp"
#include "ledger.hpp"
#include "store/archive.hpp"
#include "store/ring.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

using namespace delorean;
using namespace delorean_bench;

namespace
{

constexpr std::uint64_t kPeriods[] = {25, 50, 100};
constexpr std::uint64_t kDefaultPeriod = 50;
constexpr int kCodecReps = 3;  ///< cheap codec/seek passes
constexpr int kRecordReps = 2; ///< full simulation passes
/// "No eviction" budget; still feasible for RingOptions::validate().
constexpr std::uint64_t kUnbounded = ~std::uint64_t{0} >> 1;

using Clock = std::chrono::steady_clock;

/** Best-of-@p reps wall time for @p fn, in seconds. */
template <typename Fn>
double
timeBestN(int reps, Fn &&fn)
{
    double best = 1e300;
    for (int rep = 0; rep < reps; ++rep) {
        const Clock::time_point t0 = Clock::now();
        fn();
        const double s =
            std::chrono::duration<double>(Clock::now() - t0).count();
        if (s < best)
            best = s;
    }
    return best;
}

std::string
savedBytes(const Recording &rec)
{
    std::ostringstream out(std::ios::binary);
    saveRecording(rec, out);
    return std::move(out).str();
}

bool
fail(const char *what)
{
    std::fprintf(stderr, "FAIL: %s\n", what);
    return false;
}

/**
 * Widest gap a time-travel seek can land in: the replay-start lag of
 * the worst in-window cycle (commits re-executed from the checkpoint
 * the seek resolves to). Bounded by T when the placement contract
 * holds.
 */
std::uint64_t
worstSeekLag(const RingArchiveReader &ring)
{
    const std::vector<std::uint64_t> gccs = ring.checkpointGccs();
    if (gccs.empty())
        return ~std::uint64_t{0};
    std::uint64_t worst = ring.endGcc() - gccs.back();
    for (std::size_t i = 0; i + 1 < gccs.size(); ++i)
        worst = std::max(worst, gccs[i + 1] - gccs[i]);
    return worst;
}

} // namespace

int
main()
{
    header("ring_overhead: always-on ring vs batch archiving",
           "ring recording <= 1.10x (record + saveRecording) at the "
           "default period; replay-start lag <= T on every cell");

    const unsigned scale = benchScale(15);
    MachineConfig machine;
    machine.numProcs = 8;
    const Workload workload("ocean", machine.numProcs, kSeed,
                            WorkloadScale{scale});
    const Recorder recorder(ModeConfig::orderAndSize(), machine);
    const ArchiveIoOptions io{4};

    std::string base = "ring_overhead.tmp";
#if defined(__unix__) || defined(__APPLE__)
    base = "/tmp/ring_overhead." + std::to_string(::getpid());
#endif
    std::filesystem::create_directories(base);

    JsonLedger ledger("ring_overhead");
    ledger.open("config");
    ledger.field("app", "ocean");
    ledger.field("procs", machine.numProcs);
    ledger.field("scalePercent", scale);
    ledger.field("defaultPeriod", kDefaultPeriod);
    ledger.field("ioThreads", io.ioThreads);
    ledger.close();

    // Contract check 0: a zero period places no checkpoints and must
    // be rejected before any work, with the typed error.
    bool infeasible_rejected = false;
    try {
        RingOptions bad;
        bad.checkpointPeriod = 0;
        bad.validate();
    } catch (const ConfigError &) {
        infeasible_rejected = true;
    }

    bool ok = infeasible_rejected;
    if (!infeasible_rejected)
        fail("infeasible (zero period) config was not rejected");

    double default_overhead = 0.0;

    for (const std::uint64_t period : kPeriods) {
        // Batch baseline at this period: plain record, then the batch
        // container write the ring replaces.
        Recording rec;
        const double record_s = timeBestN(kRecordReps, [&] {
            rec = recorder.record(workload, /*env_seed=*/1, true, {},
                                  period);
        });
        std::string container;
        const double archive_s = timeBestN(kCodecReps, [&] {
            std::ostringstream out(std::ios::binary);
            saveRecording(rec, out, io);
            container = std::move(out).str();
        });
        const std::vector<std::uint8_t> container_bytes(
            container.begin(), container.end());
        const ArchiveReader batch =
            ArchiveReader::fromBytes(container_bytes);

        // Size one full ring to derive the evicting budgets.
        RingOptions probe_opts;
        probe_opts.budgetBytes = kUnbounded;
        probe_opts.checkpointPeriod = period;
        probe_opts.io = io;
        const std::string probe_dir =
            base + "/probe-p" + std::to_string(period);
        const RingWriterStats probe =
            writeRing(rec, probe_dir, probe_opts);
        std::filesystem::remove_all(probe_dir);

        std::printf("period %llu: %zu checkpoints, %zu archive "
                    "bytes, %llu ring bytes unbounded\n",
                    static_cast<unsigned long long>(period),
                    rec.checkpoints.size(), container.size(),
                    static_cast<unsigned long long>(probe.liveBytes));

        ledger.open("period" + std::to_string(period));
        ledger.field("recordSeconds", record_s);
        ledger.field("archiveSeconds", archive_s);
        ledger.field("archiveBytes", container.size());
        ledger.field("checkpoints", rec.checkpoints.size());

        const std::pair<const char *, std::uint64_t> budgets[] = {
            {"unbounded", kUnbounded},
            {"half", std::max<std::uint64_t>(1, probe.liveBytes / 2)},
            // Room for about four segments: eviction is exercised
            // hard but the retained window still has seek targets.
            {"tight",
             std::max<std::uint64_t>(
                 1, 4 * (probe.liveBytes / probe.segmentsCut))},
        };
        for (const auto &[label, budget] : budgets) {
            const std::string dir = base + "/p"
                                    + std::to_string(period) + "-"
                                    + label;
            RingOptions ropts;
            ropts.budgetBytes = budget;
            ropts.checkpointPeriod = period;
            ropts.io = io;

            // Steady state: the same record run, streaming into the
            // ring from the checkpoint hook.
            RingWriterStats stats;
            const double ring_s = timeBestN(kRecordReps, [&] {
                RingArchiveWriter ring(dir, ropts);
                const Recording r = recorder.record(
                    workload, /*env_seed=*/1, true, {}, period,
                    [&ring](const Recording &rr) {
                        ring.onCheckpoint(rr);
                    });
                ring.close(r);
                stats = ring.stats();
            });
            const double overhead =
                ring_s / (record_s + archive_s);
            if (period == kDefaultPeriod && budget == kUnbounded)
                default_overhead = overhead;

            if (stats.worstStartLag > ropts.resolvedLag())
                ok = fail("writer worstStartLag exceeded T");
            if (stats.maxCheckpointSpacing > period)
                ok = fail("checkpoint spacing exceeded the period");
            if (budget != kUnbounded && stats.segmentsEvicted == 0)
                ok = fail("bounded budget evicted nothing");

            const RingArchiveReader ring =
                RingArchiveReader::open(dir, io);
            if (!ring.recovery().clean || !ring.recovery().usedIndex)
                ok = fail("clean close did not recover cleanly");
            if (ring.checkpointCount() < 2)
                ok = fail("too few retained checkpoints to seek");
            const std::uint64_t seek_lag = worstSeekLag(ring);
            if (seek_lag > ropts.resolvedLag())
                ok = fail("worst-case seek lag exceeded T");

            // Byte-identity with the batch container (full history
            // retained): readAll and a couple of interval views.
            if (budget == kUnbounded) {
                if (ring.checkpointCount() != batch.checkpointCount())
                    ok = fail("ring lost checkpoints vs the archive");
                if (savedBytes(ring.readAll()) != savedBytes(rec))
                    ok = fail("ring readAll not byte-identical");
                const std::size_t mid = ring.checkpointCount() / 2;
                for (const std::size_t i : {std::size_t{0}, mid})
                    if (i + 1 < ring.checkpointCount()
                        && savedBytes(ring.readInterval(i, i + 1))
                               != savedBytes(
                                   batch.readInterval(i, i + 1)))
                        ok = fail("ring interval view diverged from "
                                  "the archive's");
            }

            // Seek-to-replay wall: open the directory cold, time-
            // travel to a mid-window cycle, decode one bounded
            // interval.
            std::size_t sink = 0;
            const double seek_s = timeBestN(kCodecReps, [&] {
                const RingArchiveReader r =
                    RingArchiveReader::open(dir, io);
                const std::vector<std::uint64_t> gccs =
                    r.checkpointGccs();
                const std::size_t from = r.newestCheckpointAtOrBefore(
                    gccs[gccs.size() / 2]);
                const Recording v = r.readInterval(
                    from, from + 1 < gccs.size()
                              ? from + 1
                              : RingArchiveReader::kToEnd);
                sink += v.checkpoints.size();
            });
            if (sink == 0)
                ok = fail("seek decoded an empty view");

            ledger.open(label);
            ledger.field("budgetBytes", budget);
            ledger.field("ringSeconds", ring_s);
            ledger.field("overheadVsBatch", overhead);
            ledger.field("segmentsCut", stats.segmentsCut);
            ledger.field("segmentsEvicted", stats.segmentsEvicted);
            ledger.field("liveBytes", stats.liveBytes);
            ledger.field("budgetOverruns", stats.budgetOverruns);
            ledger.field("retainedCheckpoints",
                         ring.checkpointCount());
            ledger.field("lagBoundCommits", ropts.resolvedLag());
            ledger.field("worstStartLagCommits", stats.worstStartLag);
            ledger.field("worstSeekLagCommits", seek_lag);
            ledger.field("seekToReplaySeconds", seek_s);
            ledger.close();

            std::fprintf(stderr,
                         "p=%llu %-9s ring %.3fs vs batch %.3fs "
                         "(%.2fx), seek %.4fs, lag %llu/%llu\n",
                         static_cast<unsigned long long>(period),
                         label, ring_s, record_s + archive_s,
                         overhead, seek_s,
                         static_cast<unsigned long long>(seek_lag),
                         static_cast<unsigned long long>(
                             ropts.resolvedLag()));
            std::filesystem::remove_all(dir);
        }
        ledger.close();
    }
    std::filesystem::remove_all(base);

    const bool meets_gate = default_overhead <= 1.10;
    ledger.open("gate");
    ledger.field("overheadAtDefaultPeriod", default_overhead);
    ledger.field("meetsOverheadGate", meets_gate);
    ledger.close();
    ledger.open("invariants");
    ledger.field("infeasibleConfigRejected", infeasible_rejected);
    ledger.field("contractsHeldEveryCell", ok);
    ledger.close();

    std::fprintf(stderr,
                 "steady-state overhead at period %llu: %.2fx "
                 "(gate 1.10x) -> %s\n",
                 static_cast<unsigned long long>(kDefaultPeriod),
                 default_overhead, meets_gate ? "MET" : "MISSED");
    if (!ledger.writeTo(
            JsonLedger::path("DELOREAN_RING_JSON", "BENCH_ring.json")))
        ok = false;
    std::printf("ring_overhead: contracts %s\n",
                ok ? "HELD" : "BROKEN");
    return ok ? 0 : 1;
}
