/**
 * @file
 * CI smoke check for the validation subsystem; wired into ctest as
 * `validate_smoke` (tier-1). In a few seconds it runs:
 *
 *   - the cross-mode differential check on three applications,
 *   - a small fault-injection sweep (all mutation kinds, all three
 *     modes) asserting the no-crash/no-hang/no-silent-wrong-answer
 *     contract,
 *   - a synthetic divergence, asserting the localizer names the
 *     exact chunk that was tampered with.
 *
 * The exhaustive versions live in the `fuzz`-labeled tests and the
 * validate_sweep bench harness.
 */

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "core/recorder.hpp"
#include "trace/workload.hpp"
#include "validate/differential.hpp"
#include "validate/fault_injector.hpp"
#include "validate/localizer.hpp"

using namespace delorean;

namespace
{

/// The differential checker's workload seed, record environment and
/// checkpoint period.
constexpr std::uint64_t kWorkloadSeed = 20080621;
constexpr std::uint64_t kRecordEnvSeed = 1;
constexpr std::uint64_t kCheckpointPeriod = 40;

bool
differentialSmoke()
{
    const DifferentialChecker checker;
    bool ok = true;
    for (const char *app : {"fft", "ocean", "radix"}) {
        DifferentialJob job;
        job.app = app;
        const DifferentialResult res = checker.check(job);
        if (!res.ok()) {
            std::fprintf(stderr, "validate_smoke: %s\n",
                         res.describe().c_str());
            ok = false;
        }
    }
    return ok;
}

bool
faultSweepSmoke()
{
    const DifferentialJob job;
    MachineConfig machine;
    machine.numProcs = job.numProcs;
    Workload workload(job.app, job.numProcs, kWorkloadSeed,
                      WorkloadScale{job.scalePercent});

    bool ok = true;
    std::uint64_t total = 0;
    for (const ModeConfig &mode :
         {ModeConfig::orderAndSize(), ModeConfig::orderOnly(),
          ModeConfig::picoLog()}) {
        const Recording rec =
            Recorder(mode, machine)
                .record(workload, kRecordEnvSeed, true, {},
                        kCheckpointPeriod);
        const FaultSweepSummary sweep =
            runFaultSweep(rec, /*mutants_per_kind=*/8, /*seed0=*/7);
        total += sweep.total;
        if (!sweep.ok()) {
            std::fprintf(stderr, "validate_smoke: %s\n",
                         sweep.describe().c_str());
            ok = false;
        }
    }
    if (ok)
        std::printf("validate_smoke: %llu mutants, contract held\n",
                    static_cast<unsigned long long>(total));
    return ok;
}

bool
localizerSmoke()
{
    const DifferentialJob job;
    MachineConfig machine;
    machine.numProcs = job.numProcs;
    Workload workload(job.app, job.numProcs, kWorkloadSeed,
                      WorkloadScale{job.scalePercent});
    const Recording rec = Recorder(ModeConfig::orderOnly(), machine)
                              .record(workload, kRecordEnvSeed);

    // Tamper with one commit mid-stream; the localizer must name it.
    const std::size_t victim = rec.fingerprint.commits.size() / 2;
    ExecutionFingerprint tampered = rec.fingerprint;
    tampered.commits[victim].accAfter ^= 0xDEAD;

    const DivergenceReport report =
        localizeDivergence(rec.fingerprint, tampered, &rec);
    if (report.kind != DivergenceKind::kCommitDivergence
        || report.commitIndex != victim
        || report.proc != rec.fingerprint.commits[victim].proc
        || report.logName != "pi" || report.logIndex < 0) {
        std::fprintf(stderr,
                     "validate_smoke: localizer missed tampered commit "
                     "%zu:\n%s\n",
                     victim, report.describe().c_str());
        return false;
    }
    return true;
}

} // namespace

int
main()
{
    bool ok = true;
    ok = differentialSmoke() && ok;
    ok = faultSweepSmoke() && ok;
    ok = localizerSmoke() && ok;
    if (!ok) {
        std::fprintf(stderr, "validate_smoke: FAILED\n");
        return 1;
    }
    std::printf("validate_smoke: differential, fault-injection and "
                "localizer checks passed\n");
    return 0;
}
