/**
 * @file
 * Mode-specific engine behaviour: Order&Size replay, PicoLog replay,
 * stratified replay, the mode trade-off ordering of Table 2, and the
 * one mode spelling the tools share.
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>

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

ReplayPerturbation
perturb(std::uint64_t seed)
{
    ReplayPerturbation p;
    p.enabled = true;
    p.seed = seed;
    return p;
}

TEST(EngineModes, OrderAndSizeReplayIsDeterministic)
{
    Workload w("cholesky", 4, 3, WorkloadScale::tiny());
    Recorder recorder(ModeConfig::orderAndSize(), machine());
    const Recording rec = recorder.record(w, 1);
    Replayer replayer;
    const ReplayOutcome out = replayer.replay(rec, w, 42, perturb(7));
    EXPECT_TRUE(out.deterministicExact);
}

TEST(EngineModes, PicoLogReplayIsDeterministic)
{
    Workload w("raytrace", 4, 3, WorkloadScale::tiny());
    Recorder recorder(ModeConfig::picoLog(), machine());
    const Recording rec = recorder.record(w, 1);
    Replayer replayer;
    const ReplayOutcome out = replayer.replay(rec, w, 42, perturb(7));
    EXPECT_TRUE(out.deterministicExact);
}

TEST(EngineModes, StratifiedReplayPreservesPerProcStreams)
{
    ModeConfig mode = ModeConfig::orderOnly();
    mode.stratifyChunksPerProc = 3;
    Workload w("fmm", 4, 3, WorkloadScale::tiny());
    Recorder recorder(mode, machine());
    const Recording rec = recorder.record(w, 1);
    ASSERT_TRUE(rec.stratified());
    Replayer replayer;
    const ReplayOutcome out = replayer.replay(rec, w, 42, perturb(7));
    // Within a stratum, non-conflicting chunks may reorder globally,
    // but each processor's stream and the final state must match.
    EXPECT_TRUE(out.deterministicPerProc);
}

TEST(EngineModes, LogSizeOrderingMatchesTable2)
{
    // Order&Size >= OrderOnly >= PicoLog in memory-ordering log size.
    Workload w("barnes", 8, 3, WorkloadScale{15});
    const MachineConfig m = machine(8);
    const double oands = Recorder(ModeConfig::orderAndSize(), m)
                             .record(w, 1)
                             .logSizes()
                             .bitsPerProcPerKiloInstr(false);
    const double oo = Recorder(ModeConfig::orderOnly(), m)
                          .record(w, 1)
                          .logSizes()
                          .bitsPerProcPerKiloInstr(false);
    const double pico = Recorder(ModeConfig::picoLog(), m)
                            .record(w, 1)
                            .logSizes()
                            .bitsPerProcPerKiloInstr(false);
    EXPECT_GT(oands, oo);
    EXPECT_GT(oo, pico);
}

TEST(EngineModes, CollisionBackoffOnlyOutsidePicoLog)
{
    // PicoLog's predefined commit order makes repeated collision
    // impossible (Section 4.2.3), so it never logs collision
    // truncations.
    Workload w("raytrace", 8, 3, WorkloadScale{15});
    const Recording pico =
        Recorder(ModeConfig::picoLog(), machine(8)).record(w, 1);
    EXPECT_EQ(pico.stats.collisionTruncations, 0u);
}

TEST(EngineModes, SmallerChunksMorePiEntries)
{
    Workload w("lu", 4, 3, WorkloadScale::tiny());
    ModeConfig small = ModeConfig::orderOnly();
    small.chunkSize = 500;
    ModeConfig big = ModeConfig::orderOnly();
    big.chunkSize = 3000;
    const Recording rs = Recorder(small, machine()).record(w, 1);
    const Recording rb = Recorder(big, machine()).record(w, 1);
    EXPECT_GT(rs.pi.entryCount(), rb.pi.entryCount());
}

TEST(EngineModes, SixteenProcessorsWork)
{
    MachineConfig m = machine(16);
    Workload w("water-ns", 16, 3, WorkloadScale::tiny());
    Recorder recorder(ModeConfig::picoLog(), m);
    const Recording rec = recorder.record(w, 1);
    EXPECT_GT(rec.stats.committedChunks, 0u);
    Replayer replayer;
    const ReplayOutcome out = replayer.replay(rec, w, 2, perturb(1));
    EXPECT_TRUE(out.deterministicExact);
}

TEST(EngineModes, SignatureDisambiguationAlsoReplaysDeterministically)
{
    MachineConfig m = machine(4);
    m.bulk.exactDisambiguation = false; // Bloom-banked signatures
    Workload w("barnes", 4, 3, WorkloadScale::tiny());
    Recorder recorder(ModeConfig::orderOnly(), m);
    const Recording rec = recorder.record(w, 1);
    Replayer replayer;
    const ReplayOutcome out = replayer.replay(rec, w, 42, perturb(5));
    EXPECT_TRUE(out.deterministicExact);
}

TEST(EngineModes, SignatureModeSquashesAtLeastAsMuch)
{
    MachineConfig exact = machine(8);
    MachineConfig bloom = machine(8);
    bloom.bulk.exactDisambiguation = false;
    Workload w("radix", 8, 3, WorkloadScale{15});
    const Recording a =
        Recorder(ModeConfig::orderOnly(), exact).record(w, 1);
    const Recording b =
        Recorder(ModeConfig::orderOnly(), bloom).record(w, 1);
    EXPECT_GE(b.stats.squashes + 5, a.stats.squashes);
}

// The tools parse and print modes through one table: every spelling
// names its mode's preferred configuration and prints back as itself.
TEST(ModeConfigName, RoundTripsEverySpelling)
{
    const std::pair<const char *, ModeConfig> spellings[] = {
        {"order-and-size", ModeConfig::orderAndSize()},
        {"order-only", ModeConfig::orderOnly()},
        {"order-only-strat", ModeConfig::orderOnly()},
        {"picolog", ModeConfig::picoLog()},
    };
    for (const auto &[name, preferred] : spellings) {
        ModeConfig mode;
        ASSERT_TRUE(parseModeConfig(name, 3, mode)) << name;
        EXPECT_STREQ(modeConfigName(mode), name);
        EXPECT_EQ(mode.mode, preferred.mode) << name;
        EXPECT_EQ(mode.chunkSize, preferred.chunkSize) << name;
        EXPECT_EQ(mode.csDistanceBits, preferred.csDistanceBits) << name;
        EXPECT_EQ(mode.csSizeBits, preferred.csSizeBits) << name;
        EXPECT_EQ(mode.stratifyChunksPerProc,
                  std::string(name) == "order-only-strat" ? 3u : 0u)
            << name;
    }
}

// Any spelling outside the shared table, such as the per-tool names
// delorean_sim, replay_check and delorean_serve once took, is unknown.
TEST(ModeConfigName, RejectsOldToolSpellings)
{
    for (const char *old_name :
         {"order_size", "order_only", "ordersize", "orderonly",
          "stratified", "OrderOnly"}) {
        ModeConfig mode = ModeConfig::picoLog();
        EXPECT_FALSE(parseModeConfig(old_name, 3, mode)) << old_name;
        EXPECT_EQ(mode.mode, ExecMode::kPicoLog) << old_name;
    }
}

} // namespace
} // namespace delorean
