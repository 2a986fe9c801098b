/**
 * @file
 * Tier-1 smoke for the streaming record/replay service: a mixed
 * mini-soak that must hold at any DELOREAN_JOBS (ctest pins 4).
 *
 *  - mixed session classes over heterogeneous apps/modes, with
 *    archive streaming + batch-writer cross-verification enabled;
 *  - every session must succeed;
 *  - the deterministic ledger must be byte-identical between a
 *    1-worker and an N-worker run;
 *  - dedupe must collapse the sessions to one recording per distinct
 *    key.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <unistd.h>

#include "serve/service.hpp"

using delorean::ServeClass;
using delorean::ServeJob;
using delorean::ServeOptions;
using delorean::ServeReport;
using delorean::ServeService;

namespace
{

int failures = 0;

void
expect(bool ok, const std::string &what)
{
    if (ok) {
        std::printf("  ok: %s\n", what.c_str());
    } else {
        std::printf("  FAIL: %s\n", what.c_str());
        ++failures;
    }
}

std::vector<ServeJob>
mixedJobs()
{
    std::vector<ServeJob> jobs;
    const auto add = [&jobs](ServeClass cls, const char *app,
                             const delorean::ModeConfig &mode,
                             std::uint64_t renv) {
        ServeJob job;
        job.cls = cls;
        job.record.app = app;
        job.record.machine.numProcs = 4;
        job.record.scalePercent = 4;
        job.record.mode = mode;
        job.replayEnvSeed = renv;
        jobs.push_back(job);
    };
    delorean::ModeConfig strat = delorean::ModeConfig::orderOnly();
    strat.stratifyChunksPerProc = 4;
    const delorean::ModeConfig modes[3] = {
        delorean::ModeConfig::orderAndSize(),
        delorean::ModeConfig::orderOnly(), strat};
    const char *apps[3] = {"radix", "fft", "lu"};
    for (int i = 0; i < 3; ++i) {
        add(ServeClass::kRecord, apps[i], modes[i], 0);
        add(ServeClass::kReplay, apps[i], modes[i], 5);
        add(ServeClass::kReplay, apps[i], modes[i], 6);
        add(ServeClass::kValidate, apps[i], modes[i], 7);
    }
    return jobs;
}

ServeReport
runOnce(const std::vector<ServeJob> &jobs, unsigned width,
        const std::string &dir)
{
    ServeOptions opts;
    opts.jobs = width;
    opts.archiveDir = dir;
    opts.checkpointPeriod = 30;
    opts.verifyArchives = true; // streamed == batch bytes, in-run
    ServeService service(opts);
    return service.run(jobs);
}

void
cleanup(const ServeReport &report, const std::string &dir)
{
    for (const delorean::ServeRecordingInfo &r : report.recordings)
        if (!r.archivePath.empty())
            std::remove(r.archivePath.c_str());
    ::rmdir(dir.c_str());
}

} // namespace

int
main()
{
    const std::vector<ServeJob> jobs = mixedJobs();
    const std::string dir1 =
        "serve_smoke_j1_" + std::to_string(::getpid());
    const std::string dirN =
        "serve_smoke_jN_" + std::to_string(::getpid());

    std::printf("serve_smoke: %zu sessions\n", jobs.size());
    const ServeReport serial = runOnce(jobs, 1, dir1);
    const ServeReport wide = runOnce(jobs, 0, dirN); // DELOREAN_JOBS

    expect(serial.okCount() == jobs.size(), "serial: all sessions ok");
    expect(wide.okCount() == jobs.size(), "wide: all sessions ok");
    for (const delorean::ServeSessionResult &r : wide.sessions)
        if (!r.ok)
            std::printf("    error: %s\n", r.error.c_str());
    expect(serial.cacheMisses == 3 && wide.cacheMisses == 3,
           "dedupe: 12 sessions -> 3 recordings");
    expect(serial.recordings.size() == 3
               && wide.recordings.size() == 3,
           "ledger: one entry per distinct recording");
    expect(serial.ledgerJson() == wide.ledgerJson(),
           "ledger byte-identical at jobs=1 and jobs="
               + std::to_string(wide.jobs));
    for (std::size_t i = 0; i < serial.recordings.size(); ++i)
        expect(serial.recordings[i].archiveBytes
                       == wide.recordings[i].archiveBytes
                   && serial.recordings[i].archiveBytes > 0,
               "archive bytes match for recording "
                   + std::to_string(i));

    cleanup(serial, dir1);
    cleanup(wide, dirN);

    if (failures) {
        std::printf("serve_smoke: %d FAILURES\n", failures);
        return 1;
    }
    std::printf("serve_smoke: all checks passed\n");
    return 0;
}
