/**
 * @file
 * Streaming record/replay service (src/serve): job-line parsing,
 * exactly-once recording dedupe, ledger determinism across
 * worker-pool widths, and ring emission.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "serve/service.hpp"

namespace delorean
{
namespace
{

ServeJob
parsedOk(const std::string &line)
{
    ServeJob job;
    std::string error;
    const bool ok = parseServeJob(line, job, error);
    EXPECT_TRUE(ok) << line << ": " << error;
    return job;
}

std::string
parseError(const std::string &line)
{
    ServeJob job;
    std::string error;
    EXPECT_FALSE(parseServeJob(line, job, error)) << line;
    EXPECT_FALSE(error.empty()) << line;
    return error;
}

TEST(Serve, ParseJobLineFull)
{
    const ServeJob job = parsedOk(
        "replay app=radix seed=7 scale=30 procs=8 mode=order-only-strat "
        "strat=2 env=3 renv=9");
    EXPECT_EQ(job.cls, ServeClass::kReplay);
    EXPECT_EQ(job.record.app, "radix");
    EXPECT_EQ(job.record.workloadSeed, 7u);
    EXPECT_EQ(job.record.scalePercent, 30u);
    EXPECT_EQ(job.record.machine.numProcs, 8u);
    EXPECT_EQ(job.record.mode.mode, ExecMode::kOrderOnly);
    EXPECT_EQ(job.record.mode.stratifyChunksPerProc, 2u);
    EXPECT_EQ(job.record.envSeed, 3u);
    EXPECT_EQ(job.replayEnvSeed, 9u);
}

TEST(Serve, ParseJobDefaults)
{
    const ServeJob job = parsedOk("record app=fft");
    EXPECT_EQ(job.cls, ServeClass::kRecord);
    EXPECT_EQ(job.record.app, "fft");
    // Default mode is the paper's full OrderAndSize recorder.
    EXPECT_EQ(job.record.mode.mode, ExecMode::kOrderAndSize);
    EXPECT_EQ(job.record.mode.stratifyChunksPerProc, 0u);
}

TEST(Serve, ParseSkipsBlankAndCommentLines)
{
    ServeJob job;
    std::string error;
    EXPECT_FALSE(parseServeJob("", job, error));
    EXPECT_TRUE(error.empty());
    EXPECT_FALSE(parseServeJob("   ", job, error));
    EXPECT_TRUE(error.empty());
    EXPECT_FALSE(parseServeJob("# a comment", job, error));
    EXPECT_TRUE(error.empty());
}

TEST(Serve, ParseRejectsMalformedLines)
{
    EXPECT_NE(parseError("observe app=fft").find("unknown session"),
              std::string::npos);
    EXPECT_NE(parseError("record app=fft scale").find("key=value"),
              std::string::npos);
    EXPECT_NE(parseError("record app=fft scale=big")
                  .find("needs a number"),
              std::string::npos);
    EXPECT_NE(parseError("record app=fft mode=turbo")
                  .find("unknown mode"),
              std::string::npos);
    EXPECT_NE(parseError("record seed=4").find("app="),
              std::string::npos);
    EXPECT_NE(parseError("record app=fft color=red")
                  .find("unknown field"),
              std::string::npos);
    // Replay arbitration is serial, so window= is not a job key.
    EXPECT_NE(parseError("replay app=fft window=2")
                  .find("unknown field \"window\""),
              std::string::npos);
    // Modes use the spelling shared by every tool.
    for (const char *old_name : {"ordersize", "orderonly", "stratified"})
        EXPECT_NE(parseError(std::string("record app=fft mode=") + old_name)
                      .find("unknown mode"),
                  std::string::npos)
            << old_name;
}

TEST(Serve, ParseJobsReportsLineNumber)
{
    std::istringstream in("# header\n"
                          "record app=radix\n"
                          "replay app=radix mode=warp\n");
    try {
        parseServeJobs(in);
        FAIL() << "expected a parse failure";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find("job line 3"),
                  std::string::npos)
            << e.what();
    }
}

std::vector<ServeJob>
soakJobs()
{
    ModeConfig strat = ModeConfig::orderOnly();
    strat.stratifyChunksPerProc = 4;
    const ModeConfig modes[2] = {ModeConfig::orderAndSize(), strat};
    const char *apps[2] = {"radix", "fft"};

    std::vector<ServeJob> jobs;
    for (int i = 0; i < 2; ++i) {
        for (const ServeClass cls :
             {ServeClass::kRecord, ServeClass::kReplay,
              ServeClass::kValidate}) {
            ServeJob job;
            job.cls = cls;
            job.record.app = apps[i];
            job.record.machine.numProcs = 4;
            job.record.scalePercent = 3;
            job.record.mode = modes[i];
            job.replayEnvSeed = 6;
            jobs.push_back(job);
        }
    }
    return jobs;
}

void
removeArchives(const ServeReport &report, const std::string &dir)
{
    for (const ServeRecordingInfo &r : report.recordings)
        if (!r.archivePath.empty())
            std::remove(r.archivePath.c_str());
    ::rmdir(dir.c_str());
}

TEST(Serve, SoakLedgerDeterministicAcrossWidths)
{
    // Mixed classes over two recording keys, with hook-fed archives
    // cross-checked against close-fed ones in-run. The ledger (and
    // the archives) must not depend on the worker-pool width.
    const std::vector<ServeJob> jobs = soakJobs();

    const auto runAt = [&jobs](unsigned width,
                               const std::string &dir) {
        ServeOptions opts;
        opts.jobs = width;
        opts.archiveDir = dir;
        opts.checkpointPeriod = 25;
        opts.verifyArchives = true;
        ServeService service(opts);
        return service.run(jobs);
    };
    const std::string dir1 = testing::TempDir() + "serve_soak_j1";
    const std::string dir4 = testing::TempDir() + "serve_soak_j4";
    const ServeReport serial = runAt(1, dir1);
    const ServeReport wide = runAt(4, dir4);

    EXPECT_EQ(serial.okCount(), jobs.size());
    EXPECT_EQ(wide.okCount(), jobs.size());
    for (const ServeSessionResult &r : wide.sessions)
        EXPECT_TRUE(r.ok) << r.error;

    // Exactly-once recording per distinct key, at either width.
    EXPECT_EQ(serial.cacheMisses, 2u);
    EXPECT_EQ(wide.cacheMisses, 2u);
    ASSERT_EQ(serial.recordings.size(), 2u);
    ASSERT_EQ(wide.recordings.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        EXPECT_EQ(serial.recordings[i].key, wide.recordings[i].key);
        EXPECT_EQ(serial.recordings[i].archiveBytes,
                  wide.recordings[i].archiveBytes);
        EXPECT_GT(serial.recordings[i].archiveBytes, 0u);
        EXPECT_EQ(serial.recordings[i].sessions, 3u);
    }

    EXPECT_EQ(serial.ledgerJson(), wide.ledgerJson());

    removeArchives(serial, dir1);
    removeArchives(wide, dir4);
}

TEST(Serve, RingEmissionDeterministicAndRecoverable)
{
    // With a ring directory set, every distinct recording streams an
    // always-on ring while it records. The ring counters land in the
    // ledger and must be width-invariant, and every emitted ring must
    // open cleanly and reassemble the full recording.
    const std::vector<ServeJob> jobs = soakJobs();

    const auto runAt = [&jobs](unsigned width,
                               const std::string &dir) {
        ServeOptions opts;
        opts.jobs = width;
        opts.ringDir = dir;
        // Big enough that nothing is evicted: readAll() then checks
        // the whole history survived the ring round trip.
        opts.ringBudgetBytes = 256u << 20;
        opts.checkpointPeriod = 25;
        ServeService service(opts);
        return service.run(jobs);
    };
    const std::string dir1 = testing::TempDir() + "serve_ring_j1";
    const std::string dir4 = testing::TempDir() + "serve_ring_j4";
    const ServeReport serial = runAt(1, dir1);
    const ServeReport wide = runAt(4, dir4);

    EXPECT_EQ(serial.okCount(), jobs.size());
    EXPECT_EQ(wide.okCount(), jobs.size());
    ASSERT_EQ(serial.recordings.size(), 2u);
    ASSERT_EQ(wide.recordings.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
        const ServeRecordingInfo &s = serial.recordings[i];
        const ServeRecordingInfo &w = wide.recordings[i];
        ASSERT_FALSE(s.ringPath.empty());
        EXPECT_GT(s.ringSegments, 0u);
        EXPECT_GT(s.ringBytes, 0u);
        EXPECT_EQ(s.ringBytes, w.ringBytes);
        EXPECT_EQ(s.ringSegments, w.ringSegments);
        EXPECT_EQ(s.ringEvicted, w.ringEvicted);

        ASSERT_TRUE(RingArchiveReader::looksLikeRing(s.ringPath));
        const RingArchiveReader ring =
            RingArchiveReader::open(s.ringPath);
        EXPECT_TRUE(ring.recovery().clean);
        EXPECT_TRUE(ring.recovery().usedIndex);
        const Recording rec = ring.readAll();
        EXPECT_EQ(rec.appName, s.app);
    }
    EXPECT_EQ(serial.ledgerJson(), wide.ledgerJson());

    for (const ServeReport *r : {&serial, &wide})
        for (const ServeRecordingInfo &info : r->recordings)
            std::filesystem::remove_all(info.ringPath);
    ::rmdir(dir1.c_str());
    ::rmdir(dir4.c_str());
}

} // namespace
} // namespace delorean
