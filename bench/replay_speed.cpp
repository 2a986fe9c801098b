/**
 * @file
 * replay_speed: chunk-parallel replay benchmark -> BENCH_replay.json.
 *
 * For every SPLASH-2-style application and each of the three modes
 * (Order&Size, OrderOnly, PicoLog) this harness records once and then
 * replays two ways:
 *
 *   serial   — the cycle-accurate engine, one commit at a time (the
 *              paper's virtualized-arbiter replay);
 *   parallel — the host-parallel chunk-body replayer (ParallelReplayer,
 *              jobs >= 4, window 8), which drops the timing model and
 *              executes chunk bodies concurrently.
 *
 * Reported per cell: the serial replay-cycles/record-cycles ratio, its
 * head-stall counters, and host replay throughput (retired
 * instructions per wall second) for the serial engine vs. the
 * parallel replayer, plus their speedup ratio. Every cell also
 * asserts that serial and parallel replays produce byte-identical
 * fingerprints and interval fingerprints — the exit status reflects
 * that invariant, not the speedup.
 *
 * Output: stdout table (byte-identical at any DELOREAN_JOBS) plus
 * BENCH_replay.json (path override: DELOREAN_REPLAY_JSON).
 */

#include <algorithm>

#include "bench_util.hpp"
#include "ledger.hpp"
#include "sim/parallel_replay.hpp"
#include "validate/replay_check.hpp"

using namespace delorean;
using namespace delorean_bench;

namespace
{

constexpr unsigned kWindow = 8;
constexpr unsigned kParallelReps = 3; // best-of for wall timings

struct ModeRow
{
    const char *label;
    ModeConfig mode;
};

struct Cell
{
    double recordCycles = 0;
    double serialReplayCycles = 0;
    std::uint64_t headStallCycles = 0;
    std::uint64_t strataRelaxedRetires = 0;
    double serialThroughput = 0;   // retired instrs / wall second
    double parallelThroughput = 0; // ditto, chunk-parallel replayer
    bool fingerprintsIdentical = false;

    /** Replay-cycles / record-cycles (1.0 = replay as fast). */
    double
    serialRatio() const
    {
        return recordCycles > 0 ? serialReplayCycles / recordCycles
                                : 0.0;
    }

    double
    speedup() const
    {
        return serialThroughput > 0
                   ? parallelThroughput / serialThroughput
                   : 0.0;
    }
};

double
throughput(const EngineStats &stats)
{
    return stats.wallSeconds > 0
               ? static_cast<double>(stats.retiredInstrs)
                     / stats.wallSeconds
               : 0.0;
}

bool
identicalFingerprints(const ExecutionFingerprint &serial,
                      const ExecutionFingerprint &other,
                      std::uint64_t period = 64)
{
    // All three bench modes use flat logs, so the comparison is the
    // strict one: identical commit streams and identical interval
    // fingerprints at every boundary.
    return other.matchesExact(serial)
           && IntervalFingerprints::build(serial, period).prefixes
                  == IntervalFingerprints::build(other, period).prefixes;
}

} // namespace

int
main()
{
    header("replay_speed: serial vs chunk-parallel replay",
           "replay/record cycle ratios ~0.82-1.0x; parallel replay "
           ">=1.5x serial replay throughput");

    const unsigned scale = benchScale(25);
    const MachineConfig machine;
    const unsigned jobs = std::max(4u, campaignJobs());

    const ModeRow modes[] = {
        {"order-and-size", ModeConfig::orderAndSize()},
        {"order-only", ModeConfig::orderOnly()},
        {"picolog", ModeConfig::picoLog()},
    };
    const std::vector<std::string> &apps = AppTable::splash2Names();

    BenchCampaign campaign("replay_speed");
    std::vector<std::function<std::vector<Cell>()>> tasks;
    for (const std::string &app : apps) {
        tasks.push_back([&campaign, &machine, &modes, app, scale,
                         jobs]() {
            std::vector<Cell> row;
            for (const ModeRow &m : modes) {
                RecordJob job;
                job.app = app;
                job.workloadSeed = kSeed;
                job.scalePercent = scale;
                job.machine = machine;
                job.mode = m.mode;
                const Recording &rec = campaign.record(job);

                Workload w(app, machine.numProcs, kSeed,
                           WorkloadScale{scale});
                Cell cell;
                cell.recordCycles =
                    static_cast<double>(rec.stats.totalCycles);

                Replayer replayer;
                const ReplayOutcome serial =
                    replayer.replay(rec, w, /*env_seed=*/77);
                campaign.account(serial.stats);
                cell.serialReplayCycles =
                    static_cast<double>(serial.stats.totalCycles);
                cell.serialThroughput = throughput(serial.stats);
                cell.headStallCycles = serial.stats.replayHeadStallCycles;
                cell.strataRelaxedRetires =
                    serial.stats.strataRelaxedRetires;

                ParallelReplayOptions popts;
                popts.window = kWindow;
                popts.jobs = jobs;
                const ParallelReplayer parallel(popts);
                ReplayOutcome par;
                for (unsigned rep = 0; rep < kParallelReps; ++rep) {
                    par = parallel.replay(rec, w);
                    campaign.addSim(0, par.stats.executedInstrs);
                    cell.parallelThroughput = std::max(
                        cell.parallelThroughput, throughput(par.stats));
                }

                cell.fingerprintsIdentical =
                    serial.deterministicExact && par.deterministicExact
                    && identicalFingerprints(serial.fingerprint,
                                             par.fingerprint);
                row.push_back(cell);
            }
            return row;
        });
    }
    const std::vector<std::vector<Cell>> rows =
        campaign.map(std::move(tasks));

    std::printf("%-10s | %-15s | %7s | %9s | %s\n", "app", "mode",
                "ser-r", "speedup", "fp");
    unsigned apps_at_speedup = 0;
    bool all_identical = true;
    std::vector<double> all_speedups;
    for (std::size_t ai = 0; ai < apps.size(); ++ai) {
        std::vector<double> app_speedups;
        for (std::size_t mi = 0; mi < std::size(modes); ++mi) {
            const Cell &cell = rows[ai][mi];
            std::printf("%-10s | %-15s | %7.2f | %8.2fx | %s\n",
                        apps[ai].c_str(), modes[mi].label,
                        cell.serialRatio(), cell.speedup(),
                        cell.fingerprintsIdentical ? "ok" : "MISMATCH");
            all_identical =
                all_identical && cell.fingerprintsIdentical;
            app_speedups.push_back(cell.speedup());
            all_speedups.push_back(cell.speedup());
        }
        if (geoMean(app_speedups) >= 1.5)
            ++apps_at_speedup;
    }
    std::printf("\napps with geomean parallel speedup >= 1.5x: %u/%zu "
                "(jobs=%u, window=%u)\n",
                apps_at_speedup, apps.size(), jobs, kWindow);
    std::printf("serial==parallel fingerprints: %s\n",
                all_identical ? "YES" : "NO (BUG)");

    // ---- BENCH_replay.json ------------------------------------------
    delorean_bench::JsonLedger ledger("replay_speed");
    ledger.field("jobs", jobs);
    ledger.field("window", kWindow);
    ledger.field("scalePercent", scale);
    ledger.open("apps");
    for (std::size_t ai = 0; ai < apps.size(); ++ai) {
        ledger.open(apps[ai]);
        for (std::size_t mi = 0; mi < std::size(modes); ++mi) {
            const Cell &cell = rows[ai][mi];
            ledger.open(modes[mi].label);
            ledger.field("recordCycles", cell.recordCycles);
            ledger.field("serialReplayCycles", cell.serialReplayCycles);
            ledger.field("serialReplayRatio", cell.serialRatio());
            ledger.field("headStallCycles", cell.headStallCycles);
            ledger.field("strataRelaxedRetires",
                         cell.strataRelaxedRetires);
            ledger.field("serialThroughput", cell.serialThroughput);
            ledger.field("parallelThroughput", cell.parallelThroughput);
            ledger.field("parallelSpeedup", cell.speedup());
            ledger.field("fingerprintsIdentical",
                         cell.fingerprintsIdentical);
            ledger.close();
        }
        ledger.close();
    }
    ledger.close();
    ledger.open("summary");
    ledger.field("appsAtOrAbove1.5x", apps_at_speedup);
    ledger.field("appCount", apps.size());
    ledger.field("speedupGeomean", geoMean(all_speedups));
    ledger.field("fingerprintsIdenticalEverywhere", all_identical);
    if (!ledger.writeTo(delorean_bench::JsonLedger::path(
            "DELOREAN_REPLAY_JSON", "BENCH_replay.json")))
        return 2;

    return all_identical ? 0 : 1;
}
