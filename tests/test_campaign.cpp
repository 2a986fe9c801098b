/**
 * @file
 * Campaign runner: deterministic parallel execution of independent
 * record/replay jobs. The load-bearing property is that results are
 * a pure function of the job list — never of the worker count or the
 * host's scheduling — plus exactly-once semantics of the recording
 * cache and the merge behaviour of the BENCH_campaign.json writer.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/errors.hpp"
#include "core/delorean.hpp"
#include "sim/campaign.hpp"

namespace delorean
{
namespace
{

constexpr std::uint64_t kSeed = 20080621;
constexpr unsigned kScale = 5;

RecordJob
smallJob(const std::string &app, const ModeConfig &mode)
{
    RecordJob job;
    job.app = app;
    job.workloadSeed = kSeed;
    job.scalePercent = kScale;
    job.mode = mode;
    return job;
}

TEST(CampaignRunner, ExecutesEveryTaskAtAnyWidth)
{
    for (const unsigned width : {1u, 2u, 8u, 32u}) {
        std::atomic<int> sum{0};
        std::vector<std::function<void()>> tasks;
        for (int i = 0; i < 100; ++i)
            tasks.push_back([&sum, i] { sum += i; });
        runTasks(width, std::move(tasks));
        EXPECT_EQ(sum.load(), 4950);
    }
}

TEST(CampaignRunner, MapKeysResultsByJobIndex)
{
    std::vector<std::function<int()>> tasks;
    for (int i = 0; i < 64; ++i)
        tasks.push_back([i] { return i * i; });
    const std::vector<int> results = mapTasks(16, std::move(tasks));
    ASSERT_EQ(results.size(), 64u);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(results[static_cast<std::size_t>(i)], i * i);
}

TEST(CampaignRunner, PropagatesTaskException)
{
    std::atomic<int> ran{0};
    std::vector<std::function<void()>> tasks;
    for (int i = 0; i < 16; ++i) {
        tasks.push_back([&ran, i] {
            ++ran;
            if (i == 7)
                throw std::runtime_error("job 7 failed");
        });
    }
    EXPECT_THROW(runTasks(4, std::move(tasks)), std::runtime_error);
    // All tasks still ran; the failure is reported, not amplified.
    EXPECT_EQ(ran.load(), 16);
}

/**
 * Counts parse as digits only, up to a cap: a sign, an empty string,
 * trailing characters, an exponent and anything past the cap are
 * rejected, so "-1" cannot wrap to 4294967295 threads.
 */
TEST(CampaignRunner, ParseCountRejectsSignsJunkAndValuesPastTheCap)
{
    for (const char *bad : {"-1", "4294967296", "1e3", "", "+4", " 4", "4 ",
                            "0x10", "1025"})
        EXPECT_FALSE(parseCount(bad, kMaxThreadCount).has_value())
            << '"' << bad << '"';
    EXPECT_EQ(parseCount("0", kMaxThreadCount), 0u);
    EXPECT_EQ(parseCount("007", kMaxThreadCount), 7u);
    EXPECT_EQ(parseCount("1024", kMaxThreadCount), 1024u);
    const std::uint64_t max = ~std::uint64_t{0};
    EXPECT_EQ(parseCount("18446744073709551615", max), max);
    EXPECT_FALSE(parseCount("18446744073709551616", max).has_value());
    EXPECT_FALSE(parseCount("5", 4).has_value());
}

/**
 * A pool past the cap is a ConfigError thrown before any thread
 * starts, and DELOREAN_JOBS=-1 falls back to the hardware count.
 */
TEST(CampaignRunner, WorkerPoolRejectsMoreThreadsThanTheCap)
{
    EXPECT_THROW(WorkerPool pool(kMaxThreadCount + 1), ConfigError);

    const char *saved = std::getenv("DELOREAN_JOBS");
    const std::string restore = saved ? saved : "";
    setenv("DELOREAN_JOBS", "-1", 1);
    const unsigned jobs = campaignJobs();
    EXPECT_GE(jobs, 1u);
    EXPECT_LE(jobs, kMaxThreadCount);
    if (saved)
        setenv("DELOREAN_JOBS", restore.c_str(), 1);
    else
        unsetenv("DELOREAN_JOBS");
}

TEST(RecordingCache, RecordsEachKeyExactlyOnce)
{
    RecordingCache cache;
    const RecordJob job = smallJob("radix", ModeConfig::orderOnly());

    std::vector<const Recording *> seen(16, nullptr);
    std::atomic<unsigned> fresh_count{0};
    std::vector<std::function<void()>> tasks;
    for (std::size_t i = 0; i < seen.size(); ++i) {
        tasks.push_back([&cache, &job, &seen, &fresh_count, i] {
            bool fresh = false;
            seen[i] = &cache.record(job, &fresh);
            if (fresh)
                ++fresh_count;
        });
    }
    runTasks(8, std::move(tasks));

    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 15u);
    EXPECT_EQ(fresh_count.load(), 1u);
    for (const Recording *rec : seen)
        EXPECT_EQ(rec, seen[0]); // one shared recording
    EXPECT_GT(seen[0]->stats.committedChunks, 0u);
}

TEST(RecordingCache, KeyCoversModeMachineAndJobFields)
{
    const RecordJob base = smallJob("radix", ModeConfig::orderOnly());

    RecordJob other = base;
    other.mode.chunkSize = 999;
    EXPECT_NE(recordJobKey(base), recordJobKey(other));

    other = base;
    other.machine.bulk.exactDisambiguation =
        !other.machine.bulk.exactDisambiguation;
    EXPECT_NE(recordJobKey(base), recordJobKey(other));

    other = base;
    other.logging = false;
    EXPECT_NE(recordJobKey(base), recordJobKey(other));

    other = base;
    other.envSeed += 1;
    EXPECT_NE(recordJobKey(base), recordJobKey(other));

    other = base;
    other.app = "fft";
    EXPECT_NE(recordJobKey(base), recordJobKey(other));

    EXPECT_EQ(recordJobKey(base), recordJobKey(base));
}

/**
 * The acceptance property: the same campaign produces bit-identical
 * recordings whether it runs serially or wide. Runs a small
 * (app x mode) grid through two independent caches.
 */
TEST(Campaign, ResultsIdenticalAtAnyJobCount)
{
    ModeConfig strat = ModeConfig::orderOnly();
    strat.stratifyChunksPerProc = 1;
    const std::vector<std::string> apps{"radix", "fft"};
    const std::vector<ModeConfig> modes{
        ModeConfig::orderOnly(), ModeConfig::picoLog(), strat};

    auto run_campaign = [&](unsigned width) {
        auto cache = std::make_unique<RecordingCache>();
        std::vector<std::function<const Recording *()>> tasks;
        for (const auto &app : apps)
            for (const auto &mode : modes)
                tasks.push_back([&cache, job = smallJob(app, mode)] {
                    return &cache->record(job);
                });
        return std::make_pair(mapTasks(width, std::move(tasks)),
                              std::move(cache));
    };

    const auto [serial, serial_cache] = run_campaign(1);
    const auto [wide, wide_cache] = run_campaign(8);

    ASSERT_EQ(serial.size(), wide.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        const Recording &a = *serial[i];
        const Recording &b = *wide[i];
        EXPECT_TRUE(a.fingerprint.matchesExact(b.fingerprint))
            << "job " << i;
        EXPECT_EQ(a.stats.totalCycles, b.stats.totalCycles);
        EXPECT_EQ(a.stats.retiredInstrs, b.stats.retiredInstrs);
        EXPECT_EQ(a.stats.committedChunks, b.stats.committedChunks);
        EXPECT_EQ(a.stats.squashes, b.stats.squashes);
        const LogSizeReport sa = a.logSizes();
        const LogSizeReport sb = b.logSizes();
        EXPECT_EQ(sa.pi.rawBits, sb.pi.rawBits);
        EXPECT_EQ(sa.pi.compressedBits, sb.pi.compressedBits);
        EXPECT_EQ(sa.cs.rawBits, sb.cs.rawBits);
        EXPECT_EQ(sa.cs.compressedBits, sb.cs.compressedBits);
    }
    // Cache traffic is deterministic too: all keys distinct here.
    EXPECT_EQ(serial_cache->misses(), wide_cache->misses());
    EXPECT_EQ(serial_cache->hits(), wide_cache->hits());
}

TEST(CampaignReportWriter, MergesAndReplacesEntries)
{
    const std::string path = "test_campaign_report.json";
    std::remove(path.c_str());

    CampaignReport first;
    first.harness = "alpha";
    first.jobs = 4;
    first.jobCount = 10;
    first.wallSeconds = 2.0;
    first.simCycles = 1000000;
    first.simInstrs = 500000;
    writeCampaignReport(first, path);

    CampaignReport second;
    second.harness = "beta";
    second.jobs = 8;
    second.jobCount = 20;
    second.wallSeconds = 1.0;
    writeCampaignReport(second, path);

    // Replacing alpha must keep beta.
    first.jobCount = 11;
    writeCampaignReport(first, path);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::ostringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    EXPECT_NE(text.find("\"alpha\""), std::string::npos);
    EXPECT_NE(text.find("\"beta\""), std::string::npos);
    EXPECT_NE(text.find("\"job_count\": 11"), std::string::npos);
    EXPECT_EQ(text.find("\"job_count\": 10"), std::string::npos);
    EXPECT_NE(text.find("\"sim_cycles_per_sec\": 500000"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST(CampaignReportWriter, ReplacesMalformedFileWholesale)
{
    const std::string path = "test_campaign_report_bad.json";
    {
        std::ofstream out(path);
        out << "this is not json";
    }
    CampaignReport report;
    report.harness = "gamma";
    writeCampaignReport(report, path);

    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    EXPECT_NE(ss.str().find("\"gamma\""), std::string::npos);
    EXPECT_EQ(ss.str().find("not json"), std::string::npos);
    std::remove(path.c_str());
}

} // namespace
} // namespace delorean
