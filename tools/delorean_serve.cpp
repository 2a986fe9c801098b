/**
 * @file
 * delorean_serve: the streaming record/replay service CLI.
 *
 * Reads a job stream (one session per line, see parseServeJob) from a
 * file or stdin, multiplexes the sessions over a worker pool with
 * content-addressed recording dedupe and incremental archive
 * emission, and prints the deterministic JSON ledger on stdout.
 * Progress events (one JSON line per completed session) go to stderr.
 *
 *   delorean_serve --archive-dir /tmp/dla --jobs 4 jobs.txt
 *   echo "record app=radix scale=20" | delorean_serve --verify
 *   delorean_serve --ring-dir /tmp/rings --ring-budget 1048576 jobs.txt
 *
 * The stdout ledger is byte-identical at any --jobs; add
 * --throughput to append wall-clock figures (sessions/sec, archive
 * MB/sec) for benchmarking.
 */

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>

#include "serve/service.hpp"
#include "sim/campaign.hpp"

namespace
{

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [options] [jobfile]\n"
        "  --jobs N              worker-pool width (default: "
        "DELOREAN_JOBS or host cores)\n"
        "  --archive-dir DIR     stream .dla archives into DIR "
        "(default: off)\n"
        "  --ring-dir DIR        stream always-on ring archives into "
        "DIR (default: off)\n"
        "  --ring-budget BYTES   per-recording ring disk budget "
        "(default: 4 MiB)\n"
        "  --checkpoint-period N checkpoint/segment period in global "
        "commits (default: 50)\n"
        "  --io-threads N        archive codec worker count "
        "(default: DELOREAN_JOBS)\n"
        "  --verify              cross-check hook-fed archives "
        "against close-fed ones\n"
        "  --throughput          append wall-clock figures to the "
        "ledger\n"
        "  --quiet               suppress per-session progress on "
        "stderr\n"
        "jobs come from jobfile (or stdin), one per line:\n"
        "  record   app=radix seed=7 scale=30 mode=order-and-size env=1\n"
        "  replay   app=radix seed=7 scale=30 mode=order-only renv=5\n"
        "  validate app=fft mode=order-only-strat strat=4 renv=9\n"
        "modes: order-and-size order-only order-only-strat picolog\n",
        argv0);
    return 2;
}

/** Parse a count of at most @p cap (delorean::parseCount). */
bool
parseUnsigned(const char *s, unsigned &out,
              unsigned cap = delorean::kMaxThreadCount)
{
    const std::optional<std::uint64_t> v = delorean::parseCount(s, cap);
    if (!v)
        return false;
    out = static_cast<unsigned>(*v);
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    delorean::ServeOptions opts;
    opts.progress = &std::cerr;
    bool throughput = false;
    unsigned checkpoint_period = 50;
    const char *job_path = nullptr;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        const auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s: %s needs a value\n",
                             argv[0], arg);
                std::exit(2);
            }
            return argv[++i];
        };
        unsigned n = 0;
        if (std::strcmp(arg, "--jobs") == 0) {
            if (!parseUnsigned(value(), n))
                return usage(argv[0]);
            opts.jobs = n;
        } else if (std::strcmp(arg, "--archive-dir") == 0) {
            opts.archiveDir = value();
        } else if (std::strcmp(arg, "--ring-dir") == 0) {
            opts.ringDir = value();
        } else if (std::strcmp(arg, "--ring-budget") == 0) {
            const std::optional<std::uint64_t> v = delorean::parseCount(
                value(), std::numeric_limits<std::uint64_t>::max());
            if (!v || *v == 0)
                return usage(argv[0]);
            opts.ringBudgetBytes = *v;
        } else if (std::strcmp(arg, "--checkpoint-period") == 0) {
            if (!parseUnsigned(value(), n, UINT_MAX))
                return usage(argv[0]);
            checkpoint_period = n;
        } else if (std::strcmp(arg, "--io-threads") == 0) {
            if (!parseUnsigned(value(), n))
                return usage(argv[0]);
            opts.archiveIo.ioThreads = n;
        } else if (std::strcmp(arg, "--verify") == 0) {
            opts.verifyArchives = true;
        } else if (std::strcmp(arg, "--throughput") == 0) {
            throughput = true;
        } else if (std::strcmp(arg, "--quiet") == 0) {
            opts.progress = nullptr;
        } else if (std::strcmp(arg, "--help") == 0) {
            usage(argv[0]);
            return 0;
        } else if (arg[0] == '-') {
            std::fprintf(stderr, "%s: unknown option %s\n", argv[0],
                         arg);
            return usage(argv[0]);
        } else if (!job_path) {
            job_path = arg;
        } else {
            return usage(argv[0]);
        }
    }
    opts.checkpointPeriod = checkpoint_period;

    std::vector<delorean::ServeJob> jobs;
    try {
        if (job_path) {
            std::ifstream in(job_path);
            if (!in) {
                std::fprintf(stderr, "%s: cannot open %s\n", argv[0],
                             job_path);
                return 1;
            }
            jobs = delorean::parseServeJobs(in);
        } else {
            jobs = delorean::parseServeJobs(std::cin);
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 1;
    }
    if (jobs.empty()) {
        std::fprintf(stderr, "%s: no jobs\n", argv[0]);
        return 1;
    }

    delorean::ServeService service(opts);
    const delorean::ServeReport report = service.run(jobs);
    std::fputs(report.ledgerJson(throughput).c_str(), stdout);
    return report.okCount() == report.sessions.size() ? 0 : 1;
}
