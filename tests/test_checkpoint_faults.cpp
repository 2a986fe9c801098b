/**
 * @file
 * Checkpoint-field mutants for interval replay (fuzz tier).
 *
 * An interval replay indexes the logs through its start and stop
 * SystemCheckpoints: a context and a chunk counter per processor, a
 * GCC into the PI log, a DMA index, PicoLog's next commit turn. Each
 * mutant corrupts one such field of a real checkpoint, then checks
 * the interval through both entry points: checkedReplay, whose
 * interval path is the functional ParallelReplayer on the calling
 * thread, and checkedParallelReplay on a 2-worker pool. Every mutant
 * must end in a typed report or an identical replay, the same through
 * both entry points, and the replayer called without
 * validateRecording() in front must still fail typed: never a crash,
 * a hang, an untyped exception or undefined behaviour (the asan
 * preset runs this file).
 */

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/errors.hpp"
#include "common/rng.hpp"
#include "core/recorder.hpp"
#include "sim/parallel_replay.hpp"
#include "validate/replay_check.hpp"

namespace delorean
{
namespace
{

constexpr std::uint64_t kSeed = 20080621;
constexpr unsigned kMutantsPerKind = 12;

enum class Field
{
    kContextCount,  ///< one context dropped or added
    kCounterCount,  ///< one chunk counter dropped or added
    kCounterValue,  ///< one processor's chunk counter rewritten
    kGcc,           ///< GCC anywhere up to twice the PI log
    kDmaConsumed,   ///< DMA index up to a few past the DMA log
    kRrNext,        ///< PicoLog turn up to twice the processor count
    kStopNotAfter,  ///< stop GCC at or before the start GCC
    kCount
};

const char *
fieldName(Field f)
{
    switch (f) {
      case Field::kContextCount: return "context-count";
      case Field::kCounterCount: return "counter-count";
      case Field::kCounterValue: return "counter-value";
      case Field::kGcc: return "gcc";
      case Field::kDmaConsumed: return "dma-consumed";
      case Field::kRrNext: return "rr-next";
      case Field::kStopNotAfter: return "stop-not-after";
      case Field::kCount: break;
    }
    return "?";
}

class CheckpointFieldSweep : public testing::TestWithParam<int>
{
  protected:
    static std::pair<std::string, ModeConfig>
    current()
    {
        switch (GetParam()) {
          case 0:
            return {"order-and-size", ModeConfig::orderAndSize()};
          case 1:
            return {"order-only", ModeConfig::orderOnly()};
          case 2: {
            ModeConfig strat = ModeConfig::orderOnly();
            strat.stratifyChunksPerProc = 3;
            return {"order-only-strat", strat};
          }
          default:
            return {"picolog", ModeConfig::picoLog()};
        }
    }
};

/**
 * Corrupt @p f in checkpoint @p at of @p rec. Returns true when the
 * mutant is one the replay must reject (a field no valid interval can
 * carry), false when it may legitimately replay or diverge.
 */
bool
mutate(Recording &rec, std::size_t at, Field f, Xoshiro256ss &rng)
{
    SystemCheckpoint &c = rec.checkpoints[at];
    const unsigned n = rec.machine.numProcs;
    const ProcId p = static_cast<ProcId>(rng.below(n));
    switch (f) {
      case Field::kContextCount:
        if (rng.below(2))
            c.contexts.pop_back();
        else
            c.contexts.push_back(c.contexts.front());
        return true;
      case Field::kCounterCount:
        if (rng.below(2))
            c.committedChunks.pop_back();
        else
            c.committedChunks.push_back(rng.below(8));
        return true;
      case Field::kCounterValue: {
        const ChunkSeq old = c.committedChunks[p];
        c.committedChunks[p] = rng.below(2 * old + 4);
        return false;
      }
      case Field::kGcc: {
        c.gcc = rng.below(2 * rec.pi.entryCount() + 64);
        const bool flat = rec.mode.mode != ExecMode::kPicoLog
                          && !rec.stratified();
        return flat && c.gcc > rec.pi.entryCount();
      }
      case Field::kDmaConsumed:
        c.dmaConsumed = rng.below(rec.dma.count() + 4);
        return c.dmaConsumed > rec.dma.count();
      case Field::kRrNext:
        c.rrNext = static_cast<ProcId>(rng.below(2 * n));
        return c.rrNext >= n;
      case Field::kStopNotAfter:
        // Called on the stop checkpoint: pull it back to the start.
        c.gcc = rng.below(rec.checkpoints[at - 1].gcc + 1);
        return true;
      case Field::kCount:
        break;
    }
    return false;
}

TEST_P(CheckpointFieldSweep, MutantsNeverCrashHangOrLie)
{
    const auto [label, mode] = current();
    MachineConfig machine;
    machine.numProcs = 4;
    const Workload workload("fft", machine.numProcs, kSeed,
                            WorkloadScale{10});
    const Recording rec = Recorder(mode, machine)
                              .record(workload, /*env_seed=*/1, true,
                                      {}, /*checkpoint_period=*/10);
    ASSERT_GE(rec.checkpoints.size(), 3u) << label;

    unsigned total = 0;
    unsigned rejected = 0;
    unsigned survived = 0;
    for (unsigned k = 0; k < static_cast<unsigned>(Field::kCount); ++k) {
        const Field field = static_cast<Field>(k);
        for (unsigned i = 0; i < kMutantsPerKind; ++i) {
            Xoshiro256ss rng(kSeed * 1'000'003ull + k * 7919ull + i);
            const std::size_t start = static_cast<std::size_t>(
                rng.below(rec.checkpoints.size() - 1));
            const bool on_stop =
                field == Field::kStopNotAfter || rng.below(2);
            Recording mutant = rec;
            const bool must_reject = mutate(
                mutant, on_stop ? start + 1 : start, field, rng);
            const std::string what = label + " " + fieldName(field)
                                     + " #" + std::to_string(i)
                                     + (on_stop ? " on stop" : " on start");

            ReplayCheckOptions opts;
            opts.startCheckpoint = start;
            opts.stopCheckpoint = start + 1;
            ParallelReplayOptions popts;
            popts.jobs = 2;
            ReplayCheckResult serial, par;
            try {
                serial = checkedReplay(mutant, opts);
                par = checkedParallelReplay(mutant, popts, opts);
            } catch (const std::exception &e) {
                ADD_FAILURE() << what << ": escaped " << e.what();
                continue;
            }
            ++total;
            for (const ReplayCheckResult *r : {&serial, &par}) {
                EXPECT_TRUE(r->ok || !r->report.ok()) << what;
                EXPECT_EQ(r->report.message.rfind("unexpected ", 0),
                          std::string::npos)
                    << what << ": " << r->report.message;
            }
            EXPECT_EQ(serial.ok, par.ok) << what;
            EXPECT_EQ(serial.report.kind, par.report.kind)
                << what << ": " << serial.report.describe() << " vs "
                << par.report.describe();
            if (must_reject) {
                EXPECT_FALSE(serial.replayRan) << what;
                EXPECT_TRUE(serial.report.kind
                                == DivergenceKind::kFormatError
                            || serial.report.kind
                                   == DivergenceKind::kReplayError)
                    << what << ": " << serial.report.describe();
            }
            serial.replayRan ? ++survived : ++rejected;

            // The replayer alone, without validateRecording() in
            // front of it, must still fail typed. Of the stop
            // checkpoint it reads the GCC and the per-processor
            // vectors; only PicoLog reads the commit turn.
            const bool read_by_replayer =
                field == Field::kRrNext
                    ? mode.mode == ExecMode::kPicoLog && !on_stop
                    : !on_stop || field == Field::kContextCount
                          || field == Field::kCounterCount
                          || field == Field::kStopNotAfter;
            ParallelReplayOptions direct;
            direct.jobs = 1;
            direct.startCheckpoint = &mutant.checkpoints[start];
            direct.stopCheckpoint = &mutant.checkpoints[start + 1];
            bool threw = false;
            try {
                ParallelReplayer(direct).replay(mutant, workload);
            } catch (const ReplayError &) {
                threw = true;
            } catch (const RecordingFormatError &) {
                threw = true;
            } catch (const std::exception &e) {
                ADD_FAILURE() << what << ": untyped " << e.what();
            }
            if (must_reject && read_by_replayer) {
                EXPECT_TRUE(threw) << what;
            }
        }
    }
    EXPECT_EQ(total, kMutantsPerKind * static_cast<unsigned>(Field::kCount));
    // Both sides of the contract are exercised.
    EXPECT_GT(rejected, 0u) << label;
    EXPECT_GT(survived, 0u) << label;
}

INSTANTIATE_TEST_SUITE_P(Modes, CheckpointFieldSweep, testing::Range(0, 4));

} // namespace
} // namespace delorean
