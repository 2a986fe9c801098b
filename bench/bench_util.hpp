/**
 * @file
 * Shared helpers for the figure/table reproduction harnesses.
 *
 * Every bench prints the paper's expected values next to our measured
 * ones. Absolute cycle counts are not expected to match (the substrate
 * is a from-scratch simulator, see DESIGN.md); the *shape* — who wins,
 * by roughly what factor, where crossovers fall — is the target.
 *
 * Run length scales with the DELOREAN_SCALE environment variable
 * (percent of each application's nominal iteration count); the worker
 * count with DELOREAN_JOBS (default: all host cores). Harness stdout
 * is byte-identical at any worker count — only the throughput summary
 * on stderr and BENCH_campaign.json mention wall-clock time.
 */

#ifndef DELOREAN_BENCH_BENCH_UTIL_HPP_
#define DELOREAN_BENCH_BENCH_UTIL_HPP_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/delorean.hpp"
#include "sim/campaign.hpp"

namespace delorean_bench
{

/** Workload seed shared by all harnesses (arbitrary, fixed). */
constexpr std::uint64_t kSeed = 20080621; // ISCA 2008

/**
 * Scale (percent) for bench runs; override with DELOREAN_SCALE.
 * A value that is not plain digits, is zero, or does not fit an
 * unsigned (DELOREAN_SCALE=x, or 4294967301, which would wrap to 5)
 * warns and falls back to the harness default instead of silently
 * running some other scale.
 */
inline unsigned
benchScale(unsigned default_percent)
{
    if (const char *env = std::getenv("DELOREAN_SCALE")) {
        const std::optional<std::uint64_t> v = delorean::parseCount(
            env, std::numeric_limits<unsigned>::max());
        if (v && *v > 0)
            return static_cast<unsigned>(*v);
        std::fprintf(stderr,
                     "bench: ignoring invalid DELOREAN_SCALE=\"%s\" "
                     "(using %u%%)\n",
                     env, default_percent);
    }
    return default_percent;
}

/** Print a section header. */
inline void
header(const std::string &title, const std::string &paper_note)
{
    std::printf("\n==== %s ====\n", title.c_str());
    std::printf("paper: %s\n\n", paper_note.c_str());
}

/** Geometric mean helper re-exported for harnesses. */
inline double
geoMean(const std::vector<double> &v)
{
    return delorean::geometricMean(v);
}

/**
 * One harness campaign: a deterministic parallel runner plus a
 * recording cache plus throughput accounting.
 *
 * Usage: build a job list (each job a closure returning a row
 * struct), run it through map(), then print rows in submission
 * order. Jobs obtain initial executions through record() so
 * identical recordings are shared, and report extra simulated work
 * (replays, interleaved baselines) through account()/addSim().
 * finish() — also run by the destructor — prints a wall-clock
 * summary to stderr and merges the figures into BENCH_campaign.json.
 */
class BenchCampaign
{
  public:
    explicit BenchCampaign(std::string harness)
        : harness_(std::move(harness)),
          jobs_(delorean::campaignJobs()),
          start_(std::chrono::steady_clock::now())
    {
    }

    ~BenchCampaign() { finish(); }

    BenchCampaign(const BenchCampaign &) = delete;
    BenchCampaign &operator=(const BenchCampaign &) = delete;

    unsigned jobs() const { return jobs_; }

    /** Run tasks in parallel, collecting results by job index. */
    template <typename R>
    std::vector<R>
    map(std::vector<std::function<R()>> tasks)
    {
        job_count_ += tasks.size();
        return delorean::mapTasks(jobs_, std::move(tasks));
    }

    /** Run tasks in parallel (results handled by the closures). */
    void
    run(std::vector<std::function<void()>> tasks)
    {
        job_count_ += tasks.size();
        delorean::runTasks(jobs_, std::move(tasks));
    }

    /**
     * Cached initial execution: records on first use, reuses the
     * recording afterwards. Simulated work is accounted only for the
     * call that actually recorded. Safe from worker threads; the
     * returned reference stays valid for the campaign's lifetime.
     */
    const delorean::Recording &
    record(const delorean::RecordJob &job)
    {
        bool fresh = false;
        const delorean::Recording &rec = cache_.record(job, &fresh);
        if (fresh)
            account(rec.stats);
        return rec;
    }

    /** Account one engine run's simulated work (record or replay). */
    void
    account(const delorean::EngineStats &stats)
    {
        addSim(stats.totalCycles, stats.generatedInstrs);
    }

    /** Account simulated work not expressed as EngineStats. */
    void
    addSim(std::uint64_t cycles, std::uint64_t instrs)
    {
        sim_cycles_.fetch_add(cycles, std::memory_order_relaxed);
        sim_instrs_.fetch_add(instrs, std::memory_order_relaxed);
    }

    /**
     * Emit the throughput summary (stderr + BENCH_campaign.json).
     * Idempotent; called automatically on destruction.
     */
    void
    finish()
    {
        if (finished_)
            return;
        finished_ = true;

        delorean::CampaignReport report;
        report.harness = harness_;
        report.jobs = jobs_;
        report.jobCount = job_count_;
        report.wallSeconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start_)
                .count();
        report.simCycles = sim_cycles_.load();
        report.simInstrs = sim_instrs_.load();
        report.cacheHits = cache_.hits();
        report.cacheMisses = cache_.misses();
        delorean::writeCampaignReport(report);

        std::fprintf(stderr,
                     "[%s] %llu jobs on %u workers: %.2fs wall, "
                     "%.2fM sim-cycles/s, %.2fM sim-instrs/s "
                     "(cache: %llu hits, %llu misses)\n",
                     harness_.c_str(),
                     static_cast<unsigned long long>(report.jobCount),
                     report.jobs, report.wallSeconds,
                     report.simCyclesPerSecond() / 1e6,
                     report.simInstrsPerSecond() / 1e6,
                     static_cast<unsigned long long>(report.cacheHits),
                     static_cast<unsigned long long>(
                         report.cacheMisses));
    }

  private:
    std::string harness_;
    unsigned jobs_;
    delorean::RecordingCache cache_;
    std::chrono::steady_clock::time_point start_;
    std::uint64_t job_count_ = 0;
    std::atomic<std::uint64_t> sim_cycles_{0};
    std::atomic<std::uint64_t> sim_instrs_{0};
    bool finished_ = false;
};

} // namespace delorean_bench

#endif // DELOREAN_BENCH_BENCH_UTIL_HPP_
