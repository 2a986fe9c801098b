/**
 * @file
 * CI smoke check: runs one small record/replay campaign twice —
 * serially and across all host cores — and verifies the results are
 * identical. Exercises the full campaign stack (runner, recording
 * cache, report writer) in a few seconds; wired into ctest as
 * `campaign_smoke`.
 */

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/delorean.hpp"
#include "sim/campaign.hpp"

using namespace delorean;

namespace
{

constexpr std::uint64_t kSeed = 20080621;
constexpr unsigned kScale = 5;

struct Row
{
    std::uint64_t cycles = 0;
    std::uint64_t piBits = 0;
    std::uint64_t csBits = 0;
    bool replayDeterministic = false;
};

std::vector<Row>
runCampaign(unsigned width, RecordingCache &cache)
{
    const std::vector<std::string> apps{"radix", "fft", "lu"};
    const std::vector<ModeConfig> modes{ModeConfig::orderOnly(),
                                        ModeConfig::picoLog()};

    std::vector<std::function<Row()>> tasks;
    for (const auto &app : apps) {
        for (const auto &mode : modes) {
            tasks.push_back([&cache, app, mode] {
                RecordJob job;
                job.app = app;
                job.workloadSeed = kSeed;
                job.scalePercent = kScale;
                job.mode = mode;
                const Recording &rec = cache.record(job);

                ReplayPerturbation perturb;
                perturb.enabled = true;
                perturb.seed = 11;
                const ReplayOutcome out =
                    Replayer().replay(rec, /*env_seed=*/5, perturb);

                const LogSizeReport sizes = rec.logSizes();
                Row row;
                row.cycles = rec.stats.totalCycles;
                row.piBits = sizes.pi.rawBits;
                row.csBits = sizes.cs.rawBits;
                row.replayDeterministic = out.deterministicExact;
                return row;
            });
        }
    }
    return mapTasks(width, std::move(tasks));
}

} // namespace

int
main()
{
    RecordingCache serial_cache, wide_cache;
    const std::vector<Row> serial = runCampaign(1, serial_cache);
    const std::vector<Row> wide = runCampaign(campaignJobs(), wide_cache);

    bool ok = serial.size() == wide.size();
    for (std::size_t i = 0; ok && i < serial.size(); ++i) {
        ok = serial[i].cycles == wide[i].cycles
             && serial[i].piBits == wide[i].piBits
             && serial[i].csBits == wide[i].csBits
             && serial[i].replayDeterministic
             && wide[i].replayDeterministic;
    }
    ok = ok && serial_cache.misses() == wide_cache.misses()
         && serial_cache.hits() == wide_cache.hits();

    if (!ok) {
        std::fprintf(stderr,
                     "campaign_smoke: serial and parallel campaigns "
                     "disagree\n");
        return 1;
    }
    std::printf("campaign_smoke: %zu jobs identical at 1 and %u "
                "workers, all replays deterministic\n",
                serial.size(), campaignJobs());
    return 0;
}
