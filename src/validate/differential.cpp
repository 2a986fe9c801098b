#include "validate/differential.hpp"

#include <algorithm>
#include <exception>
#include <filesystem>
#include <functional>
#include <sstream>
#include <stdexcept>

#include <unistd.h>

#include "core/recorder.hpp"
#include "core/serialize.hpp"
#include "sim/campaign.hpp"
#include "sim/parallel_replay.hpp"
#include "store/archive.hpp"
#include "store/ring.hpp"
#include "trace/app_profile.hpp"
#include "trace/workload.hpp"
#include "validate/replay_check.hpp"

namespace delorean
{

namespace
{

constexpr std::uint64_t kWorkloadSeed = 20080621;
constexpr std::uint64_t kRecordEnvSeed = 1;
/// Replay environment seed — different from kRecordEnvSeed so
/// determinism is demonstrated, not inherited from timing luck. Every
/// replay also runs under Section 6.2.1 timing perturbation.
constexpr std::uint64_t kReplayEnvSeed = 99;
/// Chunks per processor per stratum for the stratified PI run.
constexpr unsigned kStratifyChunksPerProc = 3;
/// Commits per localizer interval fingerprint.
constexpr std::uint64_t kLocalizerPeriod = 32;
/// Chunks in flight in the chunk-parallel replay leg
/// (ParallelReplayOptions::window).
constexpr unsigned kParallelWindow = 8;
/// A system checkpoint every this many global commits of the record
/// run: the archive legs replay the interval from every checkpoint
/// straight off a `.dla`, and the ring legs check a full-budget and a
/// tight-budget (evicting) ring against it.
constexpr std::uint64_t kCheckpointPeriod = 40;

/** The four (mode, PI-flavor) configurations of one job. */
std::vector<std::pair<std::string, ModeConfig>>
runConfigs()
{
    ModeConfig strat = ModeConfig::orderOnly();
    strat.stratifyChunksPerProc = kStratifyChunksPerProc;
    return {
        {"order-and-size", ModeConfig::orderAndSize()},
        {"order-only", ModeConfig::orderOnly()},
        {"order-only-strat", strat},
        {"picolog", ModeConfig::picoLog()},
    };
}

/**
 * Periodic interval fingerprints of recorded vs replayed streams
 * agree at every boundary. Stratified logs are compared one
 * processor stream at a time (their global interleaving may legally
 * differ between record and replay).
 */
bool
intervalFingerprintsAgree(const ExecutionFingerprint &recorded,
                          const ExecutionFingerprint &replayed,
                          bool stratified, std::uint64_t period)
{
    const auto streamsAgree = [period](const ExecutionFingerprint &a,
                                       const ExecutionFingerprint &b) {
        return IntervalFingerprints::build(a, period).prefixes
               == IntervalFingerprints::build(b, period).prefixes;
    };
    if (!stratified)
        return streamsAgree(recorded, replayed);
    const std::size_t n = std::max(recorded.perProcAcc.size(),
                                   replayed.perProcAcc.size());
    for (std::size_t p = 0; p < n; ++p) {
        ExecutionFingerprint a, b;
        a.commits = recorded.procStream(static_cast<ProcId>(p));
        b.commits = replayed.procStream(static_cast<ProcId>(p));
        if (!streamsAgree(a, b))
            return false;
    }
    return true;
}

/**
 * A parallel replay leg agrees with the serial replay: matching
 * fingerprint (exact; per-processor streams when stratified) and
 * matching periodic interval fingerprints.
 */
bool
agreesWithSerial(const ExecutionFingerprint &serial,
                 const ExecutionFingerprint &parallel, bool stratified,
                 std::uint64_t period)
{
    const bool states = stratified ? parallel.matchesPerProc(serial)
                                   : parallel.matchesExact(serial);
    return states
           && intervalFingerprintsAgree(serial, parallel, stratified,
                                        period);
}

/** Record + round-trip + checked replay of one configuration. */
DifferentialRun
runOne(const DifferentialJob &job, const std::string &label,
       const ModeConfig &mode)
{
    DifferentialRun run;
    run.label = label;
    run.mode = mode;
    run.stratified = mode.stratifyChunksPerProc != 0;

    MachineConfig machine;
    machine.numProcs = job.numProcs;

    Recording loaded;
    try {
        Workload workload(job.app, job.numProcs, kWorkloadSeed,
                          WorkloadScale{job.scalePercent});
        const Recording rec =
            Recorder(mode, machine)
                .record(workload, kRecordEnvSeed, true, {},
                        kCheckpointPeriod);

        // Save, reload, re-save through the recording's one file (a
        // `.dla` cut at the checkpoints): the replay below runs on the
        // *loaded* copy so the file format itself is under test.
        std::ostringstream first;
        saveRecording(rec, first);
        const std::string bytes = std::move(first).str();
        const ArchiveReader reader =
            ArchiveReader::fromBytes({bytes.begin(), bytes.end()});
        loaded = reader.readAll();
        std::ostringstream second;
        saveRecording(loaded, second);
        run.roundTripIdentical = std::move(second).str() == bytes;
        run.recorded = true;
        run.archiveCheckpoints = reader.checkpointCount();

        // The parallel segment codec must be invisible in the file:
        // save again with a 4-worker codec (the save above is serial)
        // and demand byte identity.
        std::ostringstream par;
        saveRecording(rec, par, ArchiveIoOptions{4});
        run.archiveParallelWriteIdentical = std::move(par).str() == bytes;

        // Then replay the interval from every checkpoint off the file
        // alone.
        run.archiveIntervalsOk = true;
        Workload replay_workload(job.app, job.numProcs, kWorkloadSeed,
                                 WorkloadScale{job.scalePercent});
        Replayer replayer;
        ReplayPerturbation perturb;
        perturb.enabled = true;
        perturb.seed = kReplayEnvSeed * 31 + 7;
        // The functional replayer (checkedReplay's seek path) must
        // reproduce every DES interval fingerprint: exactly for
        // flat logs, per processor for stratified ones.
        run.functionalIntervalsMatch = true;
        const auto checkFunctional = [&](const Recording &view,
                                         const SystemCheckpoint *stop,
                                         const ReplayOutcome &des) {
            ParallelReplayOptions popts;
            popts.jobs = 1;
            popts.startCheckpoint = &view.checkpoints[0];
            popts.stopCheckpoint = stop;
            const ExecutionFingerprint fp =
                ParallelReplayer(popts)
                    .replay(view, replay_workload)
                    .fingerprint;
            if (!(run.stratified ? fp.matchesPerProc(des.fingerprint)
                                 : fp.matchesExact(des.fingerprint)))
                run.functionalIntervalsMatch = false;
            ++run.functionalIntervals;
        };
        for (std::size_t i = 0; i < reader.checkpointCount();
             ++i) {
            const Recording view = reader.readInterval(i);
            const ReplayOutcome out = replayer.replayInterval(
                view, 0, replay_workload, kReplayEnvSeed + i,
                perturb);
            checkFunctional(view, nullptr, out);
            const bool match = run.stratified
                                   ? out.deterministicPerProc
                                   : out.deterministicExact;
            if (!match) {
                run.archiveIntervalsOk = false;
                break;
            }
        }

        // Ring legs. First a full-budget ring: nothing evicted,
        // so readAll() must be byte-identical to the recording
        // and every per-checkpoint view byte-identical to the
        // `.dla` archive's view of the same interval (the two
        // containers share their slice builders; this pins it).
        // mkdtemp, not a name derived from the job: concurrent
        // checkers (ctest runs several binaries at once) may run
        // the identical job and must not share a scratch dir.
        namespace fs = std::filesystem;
        std::string tmpl =
            (fs::temp_directory_path() / "delorean-diff-ring-")
                .string()
            + "XXXXXX";
        if (!mkdtemp(tmpl.data()))
            throw std::runtime_error(
                "cannot create ring scratch dir " + tmpl);
        const fs::path ring_dir = tmpl;
        struct ScratchDir
        {
            fs::path p;
            ~ScratchDir()
            {
                std::error_code ec;
                fs::remove_all(p, ec);
            }
        } scratch{ring_dir};
        RingOptions ropts;
        ropts.budgetBytes = ~std::uint64_t{0} >> 1;
        ropts.checkpointPeriod = kCheckpointPeriod;
        const RingWriterStats full_stats =
            writeRing(rec, ring_dir.string(), ropts);
        const RingArchiveReader ring =
            RingArchiveReader::open(ring_dir.string());

        std::ostringstream whole;
        saveRecording(ring.readAll(), whole);
        run.ringRoundTripIdentical =
            std::move(whole).str() == bytes
            && ring.checkpointCount() == reader.checkpointCount();
        run.ringIntervalsOk = run.ringRoundTripIdentical;
        for (std::size_t i = 0;
             run.ringRoundTripIdentical
             && i < ring.checkpointCount();
             ++i) {
            std::ostringstream rview, aview;
            saveRecording(ring.readInterval(i), rview);
            saveRecording(reader.readInterval(i), aview);
            if (std::move(rview).str() != std::move(aview).str())
                run.ringRoundTripIdentical = false;
        }
        if (run.ringIntervalsOk && ring.checkpointCount() > 1) {
            // One bounded replay straight off the ring; the
            // byte-identity above transfers the archive's
            // per-checkpoint replay coverage to the rest.
            const std::size_t mid =
                (ring.checkpointCount() - 1) / 2;
            const Recording view = ring.readInterval(mid, mid + 1);
            const ReplayOutcome out = replayer.replayInterval(
                view, 0, replay_workload, kReplayEnvSeed + mid,
                perturb, &view.checkpoints[1]);
            checkFunctional(view, &view.checkpoints[1], out);
            run.ringIntervalsOk = run.stratified
                                      ? out.deterministicPerProc
                                      : out.deterministicExact;
        }

        // Then a tight-budget ring sized to roughly three
        // segments: eviction is actually exercised (whenever the
        // run cut more than three), and the retained window's
        // views must still byte-match the archive's over the same
        // GCC intervals.
        fs::remove_all(ring_dir);
        RingOptions topts = ropts;
        topts.budgetBytes = std::max<std::uint64_t>(
            1, 3 * (full_stats.liveBytes
                    / std::max<std::uint64_t>(
                        1, full_stats.segmentsCut)));
        const RingWriterStats tight_stats =
            writeRing(rec, ring_dir.string(), topts);
        run.ringEvicted = tight_stats.segmentsEvicted;
        const RingArchiveReader tight =
            RingArchiveReader::open(ring_dir.string());
        const std::vector<std::uint64_t> all_gccs =
            reader.checkpointGccs();
        const std::vector<std::uint64_t> kept_gccs =
            tight.checkpointGccs();
        const auto base = std::search(
            all_gccs.begin(), all_gccs.end(), kept_gccs.begin(),
            kept_gccs.end());
        // A run short enough to cut zero checkpoints has nothing
        // to window-match (both sides empty, search() == end());
        // a ring that kept none while the archive has some is a
        // real failure.
        run.ringEvictedWindowOk =
            (kept_gccs.empty() ? all_gccs.empty()
                               : base != all_gccs.end())
            && tight_stats.worstStartLag <= topts.resolvedLag();
        const std::size_t off = static_cast<std::size_t>(
            base - all_gccs.begin());
        for (std::size_t i = 0;
             run.ringEvictedWindowOk
             && i + 1 < tight.checkpointCount();
             ++i) {
            std::ostringstream rview, aview;
            saveRecording(tight.readInterval(i, i + 1), rview);
            saveRecording(reader.readInterval(off + i, off + i + 1),
                          aview);
            if (std::move(rview).str() != std::move(aview).str())
                run.ringEvictedWindowOk = false;
        }
    } catch (const std::exception &e) {
        run.error = e.what();
        return run;
    }

    run.sizes = loaded.logSizes();
    run.fingerprint = loaded.fingerprint;

    ReplayCheckOptions opts;
    opts.envSeed = kReplayEnvSeed;
    opts.localizerPeriod = kLocalizerPeriod;
    opts.perturb.enabled = true;
    opts.perturb.seed =
        kReplayEnvSeed * 0x9E3779B97F4A7C15ull + kWorkloadSeed;
    const ReplayCheckResult check = checkedReplay(loaded, opts);
    run.replayOk = check.ok;
    run.report = check.report;
    if (check.replayRan)
        run.intervalsMatch = intervalFingerprintsAgree(
            loaded.fingerprint, check.outcome.fingerprint,
            run.stratified, kLocalizerPeriod);
    if (!check.replayRan)
        return run;

    // Host-parallel chunk bodies on the WorkerPool.
    ParallelReplayOptions popts;
    popts.window = kParallelWindow;
    ReplayCheckOptions fopts;
    fopts.localizerPeriod = kLocalizerPeriod;
    const ReplayCheckResult par =
        checkedParallelReplay(loaded, popts, fopts);
    run.parallelReplayOk = par.ok;
    if (!par.ok)
        run.parallelReport = par.report;
    if (par.replayRan)
        run.parallelMatchesSerial = agreesWithSerial(
            check.outcome.fingerprint, par.outcome.fingerprint,
            run.stratified, kLocalizerPeriod);
    return run;
}

} // namespace

const DifferentialRun *
DifferentialResult::findRun(const std::string &label) const
{
    for (const DifferentialRun &r : runs)
        if (r.label == label)
            return &r;
    return nullptr;
}

std::string
DifferentialResult::describe() const
{
    std::ostringstream out;
    out << "differential " << job.app << " p=" << job.numProcs
        << " scale=" << job.scalePercent << "%: "
        << (ok() ? "OK" : "FAIL");
    for (const DifferentialRun &r : runs) {
        out << "\n  " << r.label << ": ";
        if (!r.recorded) {
            out << "record failed: " << r.error;
            continue;
        }
        out << "pi=" << r.sizes.pi.rawBits << "b cs="
            << r.sizes.cs.rawBits << "b commits="
            << r.fingerprint.commits.size() << " replay="
            << (r.replayOk ? "ok" : "DIVERGED") << " parallel="
            << (r.parallelReplayOk && r.parallelMatchesSerial
                    ? "ok"
                    : "DIVERGED");
        out << " archive="
            << (r.archiveIntervalsOk && r.archiveParallelWriteIdentical
                    ? "ok"
                    : "DIVERGED")
            << "(" << r.archiveCheckpoints << " ckpts)"
            << " ring="
            << (r.ringRoundTripIdentical && r.ringIntervalsOk
                        && r.ringEvictedWindowOk
                    ? "ok"
                    : "DIVERGED")
            << "(" << r.ringEvicted << " evicted)"
            << " functional="
            << (r.functionalIntervalsMatch ? "ok" : "DIVERGED")
            << "(" << r.functionalIntervals << " intervals)";
        out << (r.roundTripIdentical ? "" : " round-trip=NOT-IDENTICAL");
        if (!r.replayOk)
            out << "\n    " << r.report.describe();
        else if (!r.parallelReplayOk)
            out << "\n    " << r.parallelReport.describe();
    }
    for (const std::string &f : failures)
        out << "\n  cross-check: " << f;
    return out.str();
}

DifferentialResult
DifferentialChecker::check(const DifferentialJob &job) const
{
    DifferentialResult result;
    result.job = job;

    const auto configs = runConfigs();
    std::vector<std::function<DifferentialRun()>> tasks;
    tasks.reserve(configs.size());
    for (const auto &[label, mode] : configs) {
        tasks.push_back([&job, label = label, mode = mode] {
            return runOne(job, label, mode);
        });
    }
    result.runs = mapTasks(jobs_, std::move(tasks));

    auto fail = [&result](std::string msg) {
        result.failures.push_back(std::move(msg));
    };

    // Per-run requirements first: each recording must survive the
    // wire format and replay deterministically under perturbation.
    for (const DifferentialRun &r : result.runs) {
        if (!r.recorded) {
            fail(r.label + ": record/serialize failed: " + r.error);
            continue;
        }
        if (!r.roundTripIdentical)
            fail(r.label + ": save/readAll/save not byte-identical");
        if (!r.replayOk) {
            fail(r.label + ": replay diverged ("
                 + divergenceKindName(r.report.kind) + ": "
                 + r.report.message + ")");
            continue;
        }
        if (!r.intervalsMatch)
            fail(r.label + ": interval fingerprints disagree with a "
                 "matching final fingerprint (localizer invariant "
                 "broken)");
        if (!r.parallelReplayOk)
            fail(r.label + ": chunk-parallel replay diverged ("
                 + divergenceKindName(r.parallelReport.kind) + ": "
                 + r.parallelReport.message + ")");
        else if (!r.parallelMatchesSerial)
            fail(r.label + ": chunk-parallel replay fingerprint "
                 "differs from serial replay");
        if (!r.archiveIntervalsOk)
            fail(r.label + ": interval replay off the archive "
                 "diverged from the recording");
        if (!r.archiveParallelWriteIdentical)
            fail(r.label + ": parallel-codec file bytes differ "
                 "from the serially written one");
        if (!r.ringRoundTripIdentical)
            fail(r.label + ": ring views not byte-identical to "
                 "the .dla archive's");
        if (!r.ringIntervalsOk)
            fail(r.label + ": bounded interval replay off the "
                 "ring diverged from the recording");
        if (!r.ringEvictedWindowOk)
            fail(r.label + ": evicting ring's retained window "
                 "disagrees with the .dla archive");
        if (!r.functionalIntervalsMatch)
            fail(r.label + ": functional interval replay "
                 "fingerprint differs from the DES's");
    }
    if (!result.failures.empty())
        return result;

    const DifferentialRun &oands = *result.findRun("order-and-size");
    const DifferentialRun &oo = *result.findRun("order-only");
    const DifferentialRun &strat = *result.findRun("order-only-strat");
    const DifferentialRun &pico = *result.findRun("picolog");

    // Stratification is a PI-log re-encoding, not a different
    // execution: flat and stratified OrderOnly must match exactly.
    if (!strat.fingerprint.matchesExact(oo.fingerprint))
        fail("order-only-strat fingerprint differs from order-only "
             "(stratification changed the execution)");

    // Paper log-size orderings (see header for why PI+CS, not PI).
    if (pico.sizes.pi.rawBits != 0)
        fail("picolog recorded " + std::to_string(pico.sizes.pi.rawBits)
             + " PI bits; the predefined commit order needs none");
    if (strat.sizes.pi.rawBits > oo.sizes.pi.rawBits)
        fail("stratified PI log (" + std::to_string(strat.sizes.pi.rawBits)
             + "b) larger than flat OrderOnly PI log ("
             + std::to_string(oo.sizes.pi.rawBits) + "b)");
    if (oo.totalLogBits() > oands.totalLogBits())
        fail("OrderOnly combined log (" + std::to_string(oo.totalLogBits())
             + "b) larger than Order&Size's ("
             + std::to_string(oands.totalLogBits()) + "b)");
    if (pico.totalLogBits() > oo.totalLogBits())
        fail("PicoLog combined log (" + std::to_string(pico.totalLogBits())
             + "b) larger than OrderOnly's ("
             + std::to_string(oo.totalLogBits()) + "b)");
    return result;
}

std::vector<DifferentialResult>
DifferentialChecker::checkAllApps(const DifferentialJob &base) const
{
    // Apps run sequentially; each check() already fans its four runs
    // across the worker pool.
    std::vector<DifferentialResult> results;
    for (const std::string &app : AppTable::splash2Names()) {
        DifferentialJob job = base;
        job.app = app;
        results.push_back(check(job));
    }
    return results;
}

} // namespace delorean
