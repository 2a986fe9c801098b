/**
 * @file
 * serve_throughput: streaming service session throughput ->
 * BENCH_serve.json.
 *
 * The serving pitch (ISSUE 9) is that a long-lived multiplexer beats
 * one-shot tool invocations on a session stream: the recording cache
 * collapses duplicate record work across sessions that share a key,
 * archive compression/IO overlaps simulation via the streaming
 * writer, and the worker pool keeps heterogeneous sessions in flight
 * together.
 *
 * This harness drives the same 24-session mix (4 recording keys x
 * [1 record + 3 replay + 2 validate]) two ways:
 *
 *   - baseline: sequential one-shot loop — every session re-records
 *     its recording from scratch (no cache, batch archive write for
 *     record sessions), exactly what running one CLI per session
 *     costs today;
 *   - serve: ServeService at jobs {1, 2, 4, 8} with streamed
 *     archives.
 *
 * Acceptance: >= 1.5x sustained aggregate session throughput at
 * jobs >= 4 over the baseline. The exit status enforces it, plus the
 * usual determinism contract: the service ledger must be
 * byte-identical across every width. Wall-clock detail goes to
 * stderr and the JSON ledger (path override: DELOREAN_SERVE_JSON).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench_util.hpp"
#include "core/recorder.hpp"
#include "core/serialize.hpp"
#include "ledger.hpp"
#include "serve/service.hpp"
#include "store/archive.hpp"
#include "validate/replay_check.hpp"

using namespace delorean;
using namespace delorean_bench;

namespace
{

std::vector<ServeJob>
sessionMix(unsigned scale)
{
    ModeConfig strat = ModeConfig::orderOnly();
    strat.stratifyChunksPerProc = 4;
    struct Key
    {
        const char *app;
        ModeConfig mode;
    };
    const Key keys[4] = {
        {"radix", ModeConfig::orderAndSize()},
        {"fft", ModeConfig::orderOnly()},
        {"lu", strat},
        {"ocean", ModeConfig::picoLog()},
    };

    std::vector<ServeJob> jobs;
    for (const Key &key : keys) {
        const auto add = [&](ServeClass cls, std::uint64_t renv) {
            ServeJob job;
            job.cls = cls;
            job.record.app = key.app;
            job.record.workloadSeed = kSeed;
            job.record.scalePercent = scale;
            job.record.mode = key.mode;
            jobs.push_back(job);
            jobs.back().replayEnvSeed = renv;
        };
        add(ServeClass::kRecord, 0);
        add(ServeClass::kReplay, 5);
        add(ServeClass::kReplay, 6);
        add(ServeClass::kReplay, 7);
        add(ServeClass::kValidate, 8);
        add(ServeClass::kValidate, 9);
    }
    return jobs;
}

struct Figures
{
    double wallSeconds = 0;
    double sessionsPerSecond = 0;
    double archiveMb = 0;
    double mbPerSecond = 0;
};

Figures
figuresFor(double wall, std::size_t sessions, std::uint64_t bytes)
{
    Figures f;
    f.wallSeconds = wall;
    f.sessionsPerSecond = wall > 0 ? sessions / wall : 0;
    f.archiveMb = static_cast<double>(bytes) / 1e6;
    f.mbPerSecond = wall > 0 ? f.archiveMb / wall : 0;
    return f;
}

/**
 * Sequential one-shot baseline: each session stands alone, the way a
 * per-session CLI invocation would — re-record the recording it
 * depends on, then run its class. Record sessions pay the batch
 * archive write on top.
 */
Figures
runBaseline(const std::vector<ServeJob> &jobs, unsigned period,
            bool *ok)
{
    std::uint64_t archive_bytes = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (const ServeJob &job : jobs) {
        const Workload w(job.record.app,
                         job.record.machine.numProcs,
                         job.record.workloadSeed,
                         WorkloadScale{job.record.scalePercent});
        const Recorder recorder(job.record.mode, job.record.machine);
        const Recording rec = recorder.record(
            w, job.record.envSeed, job.record.logging, {}, period);
        switch (job.cls) {
        case ServeClass::kRecord: {
            std::ostringstream out(std::ios::binary);
            saveRecording(rec, out, ArchiveIoOptions{});
            archive_bytes += out.tellp();
            break;
        }
        case ServeClass::kReplay: {
            const Replayer replayer;
            const ReplayOutcome out =
                replayer.replay(rec, job.replayEnvSeed);
            *ok = *ok
                  && (out.deterministicExact
                      || (rec.stratified()
                          && out.deterministicPerProc));
            break;
        }
        case ServeClass::kValidate: {
            ReplayCheckOptions vopts;
            vopts.envSeed = job.replayEnvSeed;
            *ok = *ok && checkedReplay(rec, vopts).ok;
            break;
        }
        }
    }
    const double wall = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    return figuresFor(wall, jobs.size(), archive_bytes);
}

void
removeArchives(const ServeReport &report, const std::string &dir)
{
    for (const ServeRecordingInfo &r : report.recordings)
        if (!r.archivePath.empty())
            std::remove(r.archivePath.c_str());
    ::rmdir(dir.c_str());
}

} // namespace

int
main()
{
    header("serve_throughput: multiplexed sessions vs one-shot loop",
           "cache dedupe + streamed archives should clear 1.5x "
           "aggregate throughput at jobs >= 4");

    const unsigned scale = benchScale(8);
    const unsigned period = 50;
    const std::vector<ServeJob> jobs = sessionMix(scale);
    const std::vector<unsigned> widths = {1, 2, 4, 8};

    bool ok = true;
    const Figures base = runBaseline(jobs, period, &ok);
    std::fprintf(stderr,
                 "[serve] baseline: %zu sessions in %.3fs "
                 "(%.2f sess/s, %.2f MB/s)\n",
                 jobs.size(), base.wallSeconds,
                 base.sessionsPerSecond, base.mbPerSecond);

    std::vector<Figures> serve(widths.size());
    std::vector<ServeReport> reports(widths.size());
    std::string ledger0;
    for (std::size_t i = 0; i < widths.size(); ++i) {
        const std::string dir =
            "serve_bench_j" + std::to_string(widths[i]) + "_"
            + std::to_string(::getpid());
        ServeOptions opts;
        opts.jobs = widths[i];
        opts.archiveDir = dir;
        opts.checkpointPeriod = period;
        ServeService service(opts);
        reports[i] = service.run(jobs);
        const ServeReport &r = reports[i];
        serve[i] = figuresFor(r.wallSeconds, r.sessions.size(),
                              r.archiveBytesTotal());
        ok = ok && r.okCount() == jobs.size();
        if (i == 0)
            ledger0 = r.ledgerJson();
        else if (r.ledgerJson() != ledger0) {
            std::fprintf(stderr,
                         "[serve] BUG: ledger differs at jobs=%u\n",
                         widths[i]);
            ok = false;
        }
        std::fprintf(stderr,
                     "[serve] jobs=%u: %.3fs (%.2f sess/s, %.2f "
                     "MB/s, %.2fx baseline)\n",
                     widths[i], serve[i].wallSeconds,
                     serve[i].sessionsPerSecond,
                     serve[i].mbPerSecond,
                     serve[i].sessionsPerSecond
                         / base.sessionsPerSecond);
        removeArchives(r, dir);
    }

    double speedup_at_4plus = 0;
    for (std::size_t i = 0; i < widths.size(); ++i)
        if (widths[i] >= 4)
            speedup_at_4plus =
                std::max(speedup_at_4plus,
                         serve[i].sessionsPerSecond
                             / base.sessionsPerSecond);
    const bool meets = speedup_at_4plus >= 1.5;
    ok = ok && meets;

    // Deterministic facts only on stdout.
    std::printf("sessions=%zu recordings=%zu dedupe=%llu->%llu "
                "ledger-identical-across-widths=%s\n",
                jobs.size(), reports[0].recordings.size(),
                static_cast<unsigned long long>(
                    reports[0].cacheHits + reports[0].cacheMisses),
                static_cast<unsigned long long>(
                    reports[0].cacheMisses),
                ok || ledger0.empty() ? "YES" : "NO");
    std::printf("throughput target (>=1.5x at jobs>=4): %s\n",
                meets ? "MET" : "MISSED");

    // ---- BENCH_serve.json -------------------------------------------
    JsonLedger ledger("serve_throughput");
    ledger.field("sessions", jobs.size());
    ledger.field("recordingKeys", reports[0].recordings.size());
    ledger.field("scalePercent", scale);
    ledger.field("checkpointPeriod", period);
    ledger.open("baseline");
    ledger.field("wallSeconds", base.wallSeconds);
    ledger.field("sessionsPerSecond", base.sessionsPerSecond);
    ledger.field("archiveMb", base.archiveMb);
    ledger.field("mbPerSecond", base.mbPerSecond);
    ledger.close();
    ledger.open("serve");
    for (std::size_t i = 0; i < widths.size(); ++i) {
        ledger.open("jobs" + std::to_string(widths[i]));
        ledger.field("wallSeconds", serve[i].wallSeconds);
        ledger.field("sessionsPerSecond", serve[i].sessionsPerSecond);
        ledger.field("archiveMb", serve[i].archiveMb);
        ledger.field("mbPerSecond", serve[i].mbPerSecond);
        ledger.field("speedupVsBaseline",
                     serve[i].sessionsPerSecond
                         / base.sessionsPerSecond);
        ledger.field("cacheHits", reports[i].cacheHits);
        ledger.field("cacheMisses", reports[i].cacheMisses);
        ledger.close();
    }
    ledger.close();
    ledger.open("summary");
    ledger.field("speedupAtJobs4Plus", speedup_at_4plus);
    ledger.field("meets1p5x", meets);
    ledger.field("allSessionsOk", ok);
    if (!ledger.writeTo(JsonLedger::path("DELOREAN_SERVE_JSON",
                                         "BENCH_serve.json")))
        return 2;

    return ok ? 0 : 1;
}
