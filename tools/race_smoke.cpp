/**
 * @file
 * CI smoke check for the replay-time race detector; wired into ctest
 * as `race_smoke` (tier-1, DELOREAN_JOBS=4). In about a second it:
 *
 *   - records a seeded-race variant ("fft~r3") on 4 simulated cores,
 *     so the workload plants exactly the data races named by
 *     seededRaceManifest(),
 *   - replays with the detector attached under the serial engine and
 *     the chunk-parallel replayer (jobs=4, window=8) and asserts the
 *     two reports are byte-identical,
 *   - asserts the detected word set equals the manifest EXACTLY —
 *     every seeded race found, nothing else reported,
 *   - replays the matching race-free base app ("fft") with the
 *     detector attached and asserts a clean report.
 *
 * The exhaustive matrix (modes x jobs x windows) lives in
 * tests/test_race_detector.cpp.
 */

#include <cstdio>
#include <set>

#include "analysis/race_detector.hpp"
#include "core/recorder.hpp"
#include "trace/app_profile.hpp"
#include "trace/workload.hpp"
#include "validate/replay_check.hpp"

using namespace delorean;

namespace
{

constexpr unsigned kProcs = 4;
constexpr unsigned kScalePercent = 10;
constexpr std::uint64_t kWorkloadSeed = 20080621;
constexpr std::uint64_t kEnvSeed = 1;
constexpr unsigned kJobs = 4;

Recording
record(const char *app)
{
    MachineConfig machine;
    machine.numProcs = kProcs;
    Workload workload(app, kProcs, kWorkloadSeed,
                      WorkloadScale{kScalePercent});
    return Recorder(ModeConfig::orderOnly(), machine)
        .record(workload, kEnvSeed);
}

} // namespace

int
main()
{
    // Seeded-race leg: detection must match the manifest exactly and
    // be byte-identical between the serial and parallel replayers.
    const Recording seeded = record("fft~r3");
    ReplayCheckOptions opts;
    opts.detectRaces = true;

    const ReplayCheckResult serial = checkedReplay(seeded, opts);
    if (!serial.ok) {
        std::fprintf(stderr, "race_smoke: serial replay: %s\n",
                     serial.report.describe().c_str());
        return 1;
    }

    ParallelReplayOptions popts;
    popts.jobs = kJobs;
    popts.window = 8;
    const ReplayCheckResult par =
        checkedParallelReplay(seeded, popts, opts);
    if (!par.ok) {
        std::fprintf(stderr, "race_smoke: parallel replay: %s\n",
                     par.report.describe().c_str());
        return 1;
    }

    if (serial.races.describe() != par.races.describe()) {
        std::fprintf(stderr,
                     "race_smoke: serial and parallel race reports "
                     "differ\n--- serial ---\n%s--- parallel ---\n%s",
                     serial.races.describe().c_str(),
                     par.races.describe().c_str());
        return 1;
    }

    const std::vector<Addr> manifest =
        seededRaceManifest(AppTable::byName(seeded.appName));
    const std::set<Addr> expected(manifest.begin(), manifest.end());
    std::set<Addr> found;
    for (const RaceFinding &f : serial.races.findings)
        found.insert(f.word);
    if (found != expected
        || serial.races.findings.size() != expected.size()) {
        std::fprintf(stderr,
                     "race_smoke: detected %zu finding(s), manifest "
                     "has %zu word(s); report:\n%s",
                     serial.races.findings.size(), expected.size(),
                     serial.races.describe().c_str());
        return 1;
    }

    // Race-free leg: the base app must come back clean.
    const Recording clean = record("fft");
    const ReplayCheckResult base = checkedReplay(clean, opts);
    if (!base.ok) {
        std::fprintf(stderr, "race_smoke: race-free replay: %s\n",
                     base.report.describe().c_str());
        return 1;
    }
    if (!base.races.clean()) {
        std::fprintf(stderr,
                     "race_smoke: false positive(s) on race-free "
                     "app:\n%s",
                     base.races.describe().c_str());
        return 1;
    }

    std::printf("race_smoke: %zu/%zu seeded races detected "
                "(manifest-exact), serial == parallel report "
                "(jobs=%u), race-free app clean "
                "(%llu accesses checked)\n",
                serial.races.findings.size(), expected.size(), kJobs,
                static_cast<unsigned long long>(
                    base.races.accessesChecked));
    return 0;
}
