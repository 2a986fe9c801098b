/**
 * @file
 * validate_sweep: the exhaustive version of validate_smoke.
 *
 * Runs the cross-mode differential check on every SPLASH-2
 * application and a >=600-mutant fault-injection sweep (the four
 * mutation kinds a recording without checkpoints takes x all three
 * modes), fanning mutants across host cores. Results land in BENCH_validate.json (override the path with
 * DELOREAN_VALIDATE_JSON); campaign throughput is merged into
 * BENCH_campaign.json like every other harness.
 *
 * This is the acceptance gate the PR's ISSUE names: the sweep must
 * complete — under ASan+UBSan in CI — with zero crashes, hangs or
 * silent wrong answers, and the differential check must pass on all
 * eleven applications.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "ledger.hpp"
#include "core/recorder.hpp"
#include "core/serialize.hpp"
#include "trace/app_profile.hpp"
#include "trace/workload.hpp"
#include "validate/differential.hpp"
#include "validate/fault_injector.hpp"

using namespace delorean;
using delorean_bench::BenchCampaign;

namespace
{

constexpr unsigned kMutantsPerKind = 50; // x4 kinds x3 modes = 600
/// The differential checker's workload seed and record environment.
constexpr std::uint64_t kWorkloadSeed = 20080621;
constexpr std::uint64_t kRecordEnvSeed = 1;

void
writeReport(const std::vector<DifferentialResult> &diffs,
            const FaultSweepSummary &sweep, bool ok)
{
    delorean_bench::JsonLedger ledger("validate_sweep");
    ledger.open("differential");
    for (const DifferentialResult &d : diffs) {
        ledger.open(d.job.app);
        ledger.field("ok", d.ok());
        for (const DifferentialRun &r : d.runs)
            ledger.field(r.label + "_bits", r.totalLogBits());
        ledger.close();
    }
    ledger.close();
    ledger.open("fault_sweep");
    ledger.field("total", sweep.total);
    ledger.field("rejected_at_load", sweep.rejectedAtLoad);
    ledger.field("replayed_identically", sweep.replayedIdentically);
    ledger.field("divergence_detected", sweep.divergenceDetected);
    ledger.field("replay_error_reported", sweep.replayErrorReported);
    ledger.field("unexpected", sweep.unexpected);
    ledger.close();
    ledger.field("ok", ok);
    ledger.writeTo(delorean_bench::JsonLedger::path(
        "DELOREAN_VALIDATE_JSON", "BENCH_validate.json"));
}

} // namespace

int
main()
{
    DifferentialJob base;
    base.scalePercent = delorean_bench::benchScale(base.scalePercent);

    delorean_bench::header(
        "validate_sweep",
        "replay of any mode reproduces the recording; corrupt logs "
        "are rejected or produce a localized divergence, never a "
        "crash or hang");

    // Differential check, all applications. The checker fans each
    // job's four mode runs across the worker pool itself.
    const DifferentialChecker checker;
    const std::vector<DifferentialResult> diffs =
        checker.checkAllApps(base);
    bool ok = true;
    unsigned diff_ok = 0;
    for (const DifferentialResult &d : diffs) {
        std::puts(d.describe().c_str());
        ok = ok && d.ok();
        diff_ok += d.ok();
    }
    std::printf("\ndifferential: %u/%zu applications OK\n", diff_ok,
                diffs.size());

    // Fault-injection sweep: record once per mode, then fan every
    // mutant across the campaign pool.
    BenchCampaign campaign("validate_sweep");
    MachineConfig machine;
    machine.numProcs = base.numProcs;
    Workload workload(base.app, base.numProcs, kWorkloadSeed,
                      WorkloadScale{base.scalePercent});

    std::vector<std::function<MutantResult()>> tasks;
    for (const ModeConfig &mode :
         {ModeConfig::orderAndSize(), ModeConfig::orderOnly(),
          ModeConfig::picoLog()}) {
        const Recording rec = Recorder(mode, machine)
                                  .record(workload, kRecordEnvSeed);
        campaign.account(rec.stats);
        std::ostringstream buf;
        saveRecording(rec, buf);
        const std::string saved = std::move(buf).str();
        const auto file = std::make_shared<const std::vector<std::uint8_t>>(
            saved.begin(), saved.end());
        // The byte kinds and the log forgery: this recording takes no
        // checkpoints, so the chain forgeries would leave it unchanged.
        for (unsigned k = 0; k < kLogMutationKinds; ++k) {
            for (unsigned i = 0; i < kMutantsPerKind; ++i) {
                const std::uint64_t seed =
                    kWorkloadSeed * 1'000'003ull + k * 7919ull + i;
                tasks.push_back([file, k, seed] {
                    return runMutant(*file, static_cast<MutationKind>(k),
                                     seed);
                });
            }
        }
    }
    const std::vector<MutantResult> mutants =
        campaign.map(std::move(tasks));

    FaultSweepSummary sweep;
    for (const MutantResult &m : mutants)
        sweep.add(m);
    std::printf("%s\n", sweep.describe().c_str());
    ok = ok && sweep.ok();

    writeReport(diffs, sweep, ok);
    std::printf("\nvalidate_sweep: %s\n", ok ? "OK" : "FAILED");
    return ok ? 0 : 1;
}
