/**
 * @file
 * Recording-side tests of the chunk engine (core/engine.hpp):
 * structural invariants of the logs and statistics an initial
 * execution must satisfy.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "core/delorean.hpp"

namespace delorean
{
namespace
{

MachineConfig
machine(unsigned procs = 4)
{
    MachineConfig m;
    m.numProcs = procs;
    return m;
}

Recording
recordApp(const std::string &app, const ModeConfig &mode,
          unsigned procs = 4, unsigned scale = 10)
{
    Workload w(app, procs, 42, WorkloadScale{scale});
    Recorder recorder(mode, machine(procs));
    return recorder.record(w, /*env_seed=*/1);
}

TEST(EngineRecord, PiEntriesMatchCommitCount)
{
    const Recording rec = recordApp("barnes", ModeConfig::orderOnly());
    // SPLASH workloads have no DMA, so every PI entry is a chunk.
    EXPECT_EQ(rec.pi.entryCount(), rec.stats.committedChunks);
    EXPECT_EQ(rec.fingerprint.commits.size(), rec.stats.committedChunks);
}

TEST(EngineRecord, RetiredInstrsEqualCommittedSizes)
{
    const Recording rec = recordApp("lu", ModeConfig::orderOnly());
    InstrCount total = 0;
    for (const auto &c : rec.fingerprint.commits)
        total += c.size;
    EXPECT_EQ(total, rec.stats.retiredInstrs);
}

TEST(EngineRecord, RetiredMatchesThreadContexts)
{
    const Recording rec = recordApp("fmm", ModeConfig::orderOnly());
    const InstrCount ctx_total = std::accumulate(
        rec.fingerprint.perProcRetired.begin(),
        rec.fingerprint.perProcRetired.end(), InstrCount{0});
    EXPECT_EQ(ctx_total, rec.stats.retiredInstrs);
}

TEST(EngineRecord, ChunkSizesRespectStandardSize)
{
    const Recording rec = recordApp("fft", ModeConfig::orderOnly());
    for (const auto &c : rec.fingerprint.commits) {
        EXPECT_GE(c.size, 1u);
        EXPECT_LE(c.size, 2000u);
    }
}

TEST(EngineRecord, PerProcSeqsAreConsecutive)
{
    const Recording rec = recordApp("radix", ModeConfig::orderOnly());
    for (ProcId p = 0; p < 4; ++p) {
        const auto stream = rec.fingerprint.procStream(p);
        for (std::size_t i = 0; i < stream.size(); ++i)
            EXPECT_EQ(stream[i].seq, i) << "proc " << p;
    }
}

TEST(EngineRecord, CsEntriesOnlyForNonDeterministicTruncation)
{
    const Recording rec = recordApp("water-sp", ModeConfig::orderOnly());
    std::size_t cs_entries = 0;
    for (const auto &log : rec.cs)
        cs_entries += log.entryCount();
    EXPECT_EQ(cs_entries, rec.stats.overflowTruncations
                              + rec.stats.collisionTruncations);
}

TEST(EngineRecord, OrderAndSizeLogsEveryChunk)
{
    const Recording rec =
        recordApp("barnes", ModeConfig::orderAndSize());
    std::size_t cs_entries = 0;
    for (const auto &log : rec.cs)
        cs_entries += log.entryCount();
    EXPECT_EQ(cs_entries, rec.stats.committedChunks);
    // Artificial truncation (25% of chunks) makes many non-max sizes.
    std::size_t non_max = 0;
    for (const auto &log : rec.cs)
        for (const auto &e : log.entries())
            non_max += !e.maxSize;
    EXPECT_GT(non_max, 0u);
}

TEST(EngineRecord, PicoLogHasNoPiLog)
{
    const Recording rec = recordApp("lu", ModeConfig::picoLog());
    EXPECT_EQ(rec.pi.entryCount(), 0u);
    EXPECT_GT(rec.stats.committedChunks, 0u);
    const LogSizeReport sizes = rec.logSizes();
    EXPECT_EQ(sizes.pi.rawBits, 0u);
}

TEST(EngineRecord, PicoLogCommitsAreRoundRobinPerToken)
{
    // With the commit token, processor p's k-th chunk can only commit
    // after p-1's k-th (among non-finished procs). Weak check: the
    // sequence of committing procs visits everyone at similar rates.
    const Recording rec = recordApp("fft", ModeConfig::picoLog());
    std::vector<std::size_t> counts(4, 0);
    for (const auto &c : rec.fingerprint.commits)
        ++counts[c.proc];
    for (ProcId p = 1; p < 4; ++p)
        EXPECT_LE(
            std::max(counts[p], counts[0])
                - std::min(counts[p], counts[0]),
            counts[0] / 2 + 8);
}

TEST(EngineRecord, BulkScRunProducesNoLogs)
{
    Workload w("barnes", 4, 42, WorkloadScale::tiny());
    Recorder recorder(ModeConfig::orderOnly(), machine());
    const Recording rec = recorder.record(w, 1, /*logging=*/false);
    EXPECT_EQ(rec.pi.entryCount(), 0u);
    for (const auto &log : rec.cs)
        EXPECT_EQ(log.entryCount(), 0u);
    EXPECT_GT(rec.stats.committedChunks, 0u);
}

TEST(EngineRecord, StratifiedRecordingBuildsStrata)
{
    ModeConfig mode = ModeConfig::orderOnly();
    mode.stratifyChunksPerProc = 1;
    const Recording rec = recordApp("fmm", mode);
    EXPECT_TRUE(rec.stratified());
    EXPECT_FALSE(rec.strata.empty());
    // With max 1 chunk per proc per stratum, total counted chunks
    // equal committed chunks.
    std::uint64_t counted = 0;
    for (const auto &s : rec.strata)
        for (const auto c : s.counts)
            counted += c;
    EXPECT_EQ(counted, rec.stats.committedChunks);
}

TEST(EngineRecord, StratificationSavesPiBits)
{
    Workload w("lu", 8, 42, WorkloadScale{15});
    Recorder base(ModeConfig::orderOnly(), machine(8));
    ModeConfig strat_mode = ModeConfig::orderOnly();
    strat_mode.stratifyChunksPerProc = 1;
    Recorder strat(strat_mode, machine(8));

    const LogSizeReport s0 = base.record(w, 1).logSizes();
    const LogSizeReport s1 = strat.record(w, 1).logSizes();
    EXPECT_LT(s1.pi.rawBits, s0.pi.rawBits);
}

TEST(EngineRecord, CommercialRecordingFillsInputLogs)
{
    const Recording rec =
        recordApp("sweb2005", ModeConfig::orderOnly(), 4, 40);
    EXPECT_GT(rec.io.totalEntries(), 0u);
    EXPECT_GT(rec.interrupts.totalEntries(), 0u);
    EXPECT_GT(rec.dma.count(), 0u);
}

TEST(EngineRecord, DifferentEnvSeedsPerturbTimingNotUsefulness)
{
    // Environment noise changes cycle counts but the workload still
    // completes with all chunks committed.
    Workload w("radiosity", 4, 42, WorkloadScale::tiny());
    Recorder recorder(ModeConfig::orderOnly(), machine());
    const Recording a = recorder.record(w, 1);
    const Recording b = recorder.record(w, 2);
    EXPECT_EQ(a.stats.retiredInstrs > 0, b.stats.retiredInstrs > 0);
    EXPECT_NE(a.stats.totalCycles, b.stats.totalCycles);
}

TEST(EngineRecord, TrafficIsAccounted)
{
    const Recording rec = recordApp("ocean", ModeConfig::orderOnly());
    EXPECT_GT(rec.stats.traffic.signatureBytes, 0u);
    EXPECT_GT(rec.stats.traffic.dataBytes, 0u);
}

TEST(EngineRecord, RejectsCacheGeometryTheModelCannotSimulate)
{
    // 6 MiB at 8 ways is 24,576 sets, not a power of two; 32 KiB at 3
    // ways is not a whole number of sets. Either would be simulated
    // through a set-index mask as some other cache.
    Workload w("fft", 4, 7, WorkloadScale::tiny());
    MachineConfig l2 = machine();
    l2.mem.l2SizeBytes = 6u << 20;
    EXPECT_THROW(ChunkEngine(w, l2, ModeConfig::orderOnly(), {}),
                 ConfigError);
    MachineConfig l1 = machine();
    l1.mem.l1Ways = 3;
    EXPECT_THROW(Recorder(ModeConfig::orderOnly(), l1).record(w, 1),
                 ConfigError);
}

} // namespace
} // namespace delorean
