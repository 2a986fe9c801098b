/**
 * @file
 * CI smoke check for chunk-parallel replay; wired into ctest as
 * `replay_smoke` (tier-1). In a couple of seconds it records a tiny
 * application under all three modes (plus the stratified OrderOnly
 * flavor) and asserts, with four worker threads, that the
 * host-parallel chunk-body replayer at jobs=4 matches both the
 * recording and the serial replay at windows 2 and 8, with the
 * per-processor comparison rule for stratified logs. The
 * exhaustive versions live in tests/test_parallel_replay.cpp and the
 * bench/replay_speed harness.
 */

#include <cstdio>
#include <utility>
#include <vector>

#include "core/recorder.hpp"
#include "sim/parallel_replay.hpp"
#include "trace/workload.hpp"
#include "validate/replay_check.hpp"

using namespace delorean;

namespace
{

constexpr unsigned kProcs = 4;
constexpr unsigned kScalePercent = 8;
constexpr std::uint64_t kWorkloadSeed = 20080621;
constexpr std::uint64_t kEnvSeed = 1;
constexpr unsigned kJobs = 4;

bool
smokeOne(const char *label, const ModeConfig &mode)
{
    MachineConfig machine;
    machine.numProcs = kProcs;
    Workload workload("lu", kProcs, kWorkloadSeed,
                      WorkloadScale{kScalePercent});
    const Recording rec =
        Recorder(mode, machine).record(workload, kEnvSeed);
    const bool strat = rec.stratified();

    const auto matches = [strat](const ExecutionFingerprint &a,
                                 const ExecutionFingerprint &b) {
        return strat ? a.matchesPerProc(b) : a.matchesExact(b);
    };

    ReplayCheckOptions serial_opts;
    const ReplayCheckResult serial = checkedReplay(rec, serial_opts);
    if (!serial.ok) {
        std::fprintf(stderr, "replay_smoke: %s: serial replay: %s\n",
                     label, serial.report.describe().c_str());
        return false;
    }

    for (const unsigned window : {2u, 8u}) {
        ParallelReplayOptions popts;
        popts.window = window;
        popts.jobs = kJobs;
        const ReplayCheckResult par = checkedParallelReplay(rec, popts);
        if (!par.ok
            || !matches(par.outcome.fingerprint,
                        serial.outcome.fingerprint)) {
            std::fprintf(stderr,
                         "replay_smoke: %s: chunk-parallel replay "
                         "(jobs=%u window=%u) diverged\n%s\n",
                         label, kJobs, window,
                         par.report.describe().c_str());
            return false;
        }
    }
    return true;
}

} // namespace

int
main()
{
    ModeConfig strat = ModeConfig::orderOnly();
    strat.stratifyChunksPerProc = 3;

    bool ok = true;
    for (const auto &[label, mode] :
         {std::pair<const char *, ModeConfig>{"order-and-size",
                                              ModeConfig::orderAndSize()},
          {"order-only", ModeConfig::orderOnly()},
          {"order-only-strat", strat},
          {"picolog", ModeConfig::picoLog()}}) {
        ok = smokeOne(label, mode) && ok;
    }
    if (!ok) {
        std::fprintf(stderr, "replay_smoke: FAILED\n");
        return 1;
    }
    std::printf("replay_smoke: serial == parallel replay fingerprints "
                "(jobs=%u, windows {2,8}, all modes)\n",
                kJobs);
    return 0;
}
