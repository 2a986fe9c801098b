/**
 * @file
 * System checkpointing and interval replay (Appendix B): assuming a
 * checkpoint was taken at GCC = n, DeLorean deterministically replays
 * the interval I(n, m).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/delorean.hpp"
#include "core/serialize_detail.hpp"

#include "container_bytes.hpp"

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

TEST(Checkpoint, RecordedAtRequestedGccs)
{
    Workload w("barnes", 4, 9, WorkloadScale::tiny());
    Recorder recorder(ModeConfig::orderOnly(), machine());
    const Recording rec = recorder.record(w, 1, true, {10, 30});
    ASSERT_EQ(rec.checkpoints.size(), 2u);
    EXPECT_EQ(rec.checkpoints[0].gcc, 10u);
    EXPECT_EQ(rec.checkpoints[1].gcc, 30u);
    for (const auto &ckpt : rec.checkpoints) {
        EXPECT_TRUE(ckpt.valid());
        EXPECT_EQ(ckpt.contexts.size(), 4u);
        std::uint64_t committed = 0;
        for (const auto c : ckpt.committedChunks)
            committed += c;
        // Chunk commits at the checkpoint == gcc minus DMA commits
        // (none for SPLASH workloads).
        EXPECT_EQ(committed, ckpt.gcc);
    }
}

TEST(Checkpoint, IntervalReplayFromMidpointIsDeterministic)
{
    Workload w("fmm", 4, 9, WorkloadScale::tiny());
    Recorder recorder(ModeConfig::orderOnly(), machine());
    const Recording rec = recorder.record(w, 1, true, {20});
    ASSERT_EQ(rec.checkpoints.size(), 1u);

    Replayer replayer;
    const ReplayOutcome out =
        replayer.replayInterval(rec, 0, w, 77, perturb(3));
    EXPECT_TRUE(out.deterministicExact);
    // The interval contains exactly the commits after GCC=20.
    EXPECT_EQ(out.fingerprint.commits.size(),
              rec.fingerprint.commits.size() - 20u);
}

TEST(Checkpoint, IntervalReplayUnderEveryMode)
{
    for (const ModeConfig mode :
         {ModeConfig::orderAndSize(), ModeConfig::orderOnly(),
          ModeConfig::picoLog()}) {
        Workload w("radix", 4, 9, WorkloadScale::tiny());
        Recorder recorder(mode, machine());
        const Recording rec = recorder.record(w, 1, true, {15});
        ASSERT_EQ(rec.checkpoints.size(), 1u)
            << execModeName(mode.mode);
        Replayer replayer;
        const ReplayOutcome out =
            replayer.replayInterval(rec, 0, w, 5, perturb(9));
        EXPECT_TRUE(out.deterministicExact) << execModeName(mode.mode);
    }
}

TEST(Checkpoint, IntervalReplayWithSystemActivity)
{
    // Interrupts, I/O and DMA crossing the checkpoint boundary.
    Workload w("sweb2005", 4, 9, WorkloadScale{30});
    Recorder recorder(ModeConfig::orderOnly(), machine());
    const Recording rec = recorder.record(w, 1, true, {60});
    ASSERT_EQ(rec.checkpoints.size(), 1u);
    ASSERT_GT(rec.io.totalEntries(), 0u);
    Replayer replayer;
    const ReplayOutcome out =
        replayer.replayInterval(rec, 0, w, 13, perturb(21));
    EXPECT_TRUE(out.deterministicExact);
}

TEST(Checkpoint, MultipleCheckpointsReplayFromEach)
{
    Workload w("water-sp", 4, 9, WorkloadScale::tiny());
    Recorder recorder(ModeConfig::orderOnly(), machine());
    const Recording rec = recorder.record(w, 1, true, {5, 25, 50});
    ASSERT_EQ(rec.checkpoints.size(), 3u);
    Replayer replayer;
    for (std::size_t i = 0; i < rec.checkpoints.size(); ++i) {
        const ReplayOutcome out =
            replayer.replayInterval(rec, i, w, 3 + i, perturb(i + 1));
        EXPECT_TRUE(out.deterministicExact) << "checkpoint " << i;
    }
}

TEST(Checkpoint, LaterCheckpointMeansShorterReplay)
{
    Workload w("lu", 4, 9, WorkloadScale::tiny());
    Recorder recorder(ModeConfig::orderOnly(), machine());
    const Recording rec = recorder.record(w, 1, true, {5, 60});
    ASSERT_EQ(rec.checkpoints.size(), 2u);
    Replayer replayer;
    const ReplayOutcome early =
        replayer.replayInterval(rec, 0, w, 3);
    const ReplayOutcome late = replayer.replayInterval(rec, 1, w, 3);
    EXPECT_TRUE(early.deterministicExact);
    EXPECT_TRUE(late.deterministicExact);
    EXPECT_LT(late.stats.retiredInstrs, early.stats.retiredInstrs);
    EXPECT_GT(late.fingerprint.commits.size(), 0u);
}

TEST(Checkpoint, PeriodicGccsBoundaries)
{
    // period 0 disables periodic checkpoints entirely.
    EXPECT_TRUE(periodicCheckpointGccs(0, 0).empty());
    EXPECT_TRUE(periodicCheckpointGccs(1000, 0).empty());
    // A period beyond the expected commit count never fires.
    EXPECT_TRUE(periodicCheckpointGccs(9, 10).empty());
    EXPECT_TRUE(periodicCheckpointGccs(0, 1).empty());
    // An endpoint that is an exact multiple is included...
    EXPECT_EQ(periodicCheckpointGccs(10, 10),
              (std::vector<std::uint64_t>{10}));
    EXPECT_EQ(periodicCheckpointGccs(30, 10),
              (std::vector<std::uint64_t>{10, 20, 30}));
    // ...and a non-multiple endpoint rounds down.
    EXPECT_EQ(periodicCheckpointGccs(29, 10),
              (std::vector<std::uint64_t>{10, 20}));
    // period 1 checkpoints after every commit, starting at GCC 1.
    EXPECT_EQ(periodicCheckpointGccs(3, 1),
              (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(Checkpoint, PeriodicRecordingTakesCheckpoints)
{
    Workload w("fft", 4, 9, WorkloadScale::tiny());
    Recorder recorder(ModeConfig::orderOnly(), machine());
    const Recording rec = recorder.record(w, 1, true, {}, 25);
    ASSERT_GE(rec.checkpoints.size(), 2u);
    for (std::size_t i = 0; i < rec.checkpoints.size(); ++i)
        EXPECT_EQ(rec.checkpoints[i].gcc, (i + 1) * 25u);
    // An explicit GCC that collides with a periodic one yields a
    // single checkpoint, not a duplicate.
    const Recording both = recorder.record(w, 1, true, {25}, 25);
    ASSERT_GE(both.checkpoints.size(), 1u);
    EXPECT_EQ(both.checkpoints[0].gcc, 25u);
    if (both.checkpoints.size() > 1) {
        EXPECT_EQ(both.checkpoints[1].gcc, 50u);
    }
}

TEST(Checkpoint, IntervalReplayStratifiedMode)
{
    ModeConfig mode = ModeConfig::orderOnly();
    mode.stratifyChunksPerProc = 4;
    Workload w("radix", 4, 9, WorkloadScale::tiny());
    Recorder recorder(mode, machine());
    const Recording rec = recorder.record(w, 1, true, {}, 20);
    ASSERT_TRUE(rec.stratified());
    ASSERT_GE(rec.checkpoints.size(), 1u);
    Replayer replayer;
    for (std::size_t i = 0; i < rec.checkpoints.size(); ++i) {
        const ReplayOutcome out =
            replayer.replayInterval(rec, i, w, 7, perturb(i + 2));
        // Stratified replay may reorder commits within a stratum, so
        // determinism is judged per processor (matchesPerProc).
        EXPECT_TRUE(out.deterministicPerProc) << "checkpoint " << i;
    }
}

TEST(Checkpoint, BoundedIntervalReplayStopsAtCheckpoint)
{
    Workload w("ocean", 4, 9, WorkloadScale::tiny());
    Recorder recorder(ModeConfig::orderOnly(), machine());
    const Recording rec = recorder.record(w, 1, true, {10, 40});
    ASSERT_EQ(rec.checkpoints.size(), 2u);
    Replayer replayer;
    // Replay only I(10, 40): stop once GCC 40 commits.
    const ReplayOutcome out = replayer.replayInterval(
        rec, 0, w, 11, perturb(5), &rec.checkpoints[1]);
    EXPECT_TRUE(out.deterministicExact);
    EXPECT_EQ(out.fingerprint.commits.size(), 30u);
    // The bounded replay retires strictly less work than the
    // unbounded one from the same checkpoint.
    const ReplayOutcome full =
        replayer.replayInterval(rec, 0, w, 11, perturb(5));
    EXPECT_TRUE(full.deterministicExact);
    EXPECT_LT(out.stats.retiredInstrs, full.stats.retiredInstrs);
}

TEST(Checkpoint, BoundedIntervalFromStartOfRun)
{
    // A bounded replay with no start checkpoint: I(0, m).
    Workload w("fmm", 4, 9, WorkloadScale::tiny());
    Recorder recorder(ModeConfig::orderOnly(), machine());
    const Recording rec = recorder.record(w, 1, true, {30});
    ASSERT_EQ(rec.checkpoints.size(), 1u);
    EngineOptions opts;
    opts.replay = true;
    opts.envSeed = 19;
    opts.stopCheckpoint = &rec.checkpoints[0];
    ChunkEngine engine(w, rec.machine, rec.mode, opts);
    const ReplayOutcome out = engine.replay(rec);
    EXPECT_TRUE(out.deterministicExact);
    EXPECT_EQ(out.fingerprint.commits.size(), 30u);
}

// ----- checkpoint-image codec (serialize_detail) ----------------------------

const std::uint8_t *
bytesOf(const std::string &s)
{
    return reinterpret_cast<const std::uint8_t *>(s.data());
}

/**
 * @p state rebuilt by storing its words in descending address order:
 * the same content, a different insertion history (and so a different
 * slot layout).
 */
MemoryState
reinserted(const MemoryState &state)
{
    std::vector<CheckpointImage::Word> words =
        CheckpointImage::sortedWords(state);
    std::reverse(words.begin(), words.end());
    MemoryState copy;
    for (const auto &[addr, value] : words)
        copy.store(addr, value);
    return copy;
}

/**
 * Give every u64 word of @p ctx's image a new value: each field moves
 * and every bool flips, so the codec must store the whole context.
 */
void
rewriteEveryWord(ThreadContext &ctx, Xoshiro256ss &rng)
{
    ctx.proc = static_cast<ProcId>(ctx.proc + 1);
    ctx.rng = Xoshiro256ss(rng.next());
    ctx.acc += 1 + rng.below(1000);
    ctx.retired += 1 + rng.below(1000);
    ctx.state = static_cast<ThreadState>(
        (static_cast<unsigned>(ctx.state) + 1) % 16);
    ctx.iter += 1;
    ctx.workRemaining += 1;
    ctx.subRemaining += 1;
    ctx.lockId += 1;
    ctx.barrierGenSeen += 1;
    ctx.ioRemaining += 1;
    ctx.pendingBarrier = !ctx.pendingBarrier;
    ctx.pendingLock = !ctx.pendingLock;
    ctx.pendingSyscall = !ctx.pendingSyscall;
    ctx.pendingIo = !ctx.pendingIo;
    ctx.privCursor += 1;
    ctx.sharedCursor += 1;
    ctx.privStoreBase += 1;
    ctx.sharedStoreBase += 1;
    ctx.workPhase = static_cast<std::uint8_t>(ctx.workPhase + 1);
    ctx.workPhaseLeft = static_cast<std::uint16_t>(ctx.workPhaseLeft + 1);
    ctx.trapRemaining = static_cast<std::uint16_t>(ctx.trapRemaining + 1);
    ctx.hasPendingAccess = !ctx.hasPendingAccess;
    ctx.pendingAccess.op = ctx.pendingAccess.op == Op::kCompute
                               ? Op::kLoad
                               : Op::kCompute;
    ctx.pendingAccess.addr += 8;
    ctx.pendingAccess.value += 1;
    ctx.handlerRemaining =
        static_cast<std::uint16_t>(ctx.handlerRemaining + 1);
    ctx.ioLoadCount += 1;
    ctx.done = !ctx.done;
    ctx.raceRemaining += 1;
    ctx.mappedSegs.flip();
}

/** Equal lead fields, contexts (as serialized) and counters. */
bool
sameHeader(const SystemCheckpoint &a, const SystemCheckpoint &b)
{
    if (a.gcc != b.gcc || a.dmaConsumed != b.dmaConsumed
        || a.rrNext != b.rrNext || a.committedChunks != b.committedChunks
        || a.contexts.size() != b.contexts.size())
        return false;
    for (std::size_t p = 0; p < a.contexts.size(); ++p)
        if (serialize_detail::contextWords(a, p)
            != serialize_detail::contextWords(b, p))
            return false;
    return true;
}

/** @p ckpt with @p image as its memory. */
SystemCheckpoint
withMemory(SystemCheckpoint ckpt, CheckpointImage image)
{
    ckpt.memory = std::move(image);
    return ckpt;
}

/**
 * @p cur re-imaged as a delta on @p base's image, diffed by the
 * full-state oracle (MemoryDelta::between).
 */
SystemCheckpoint
diffedOn(const SystemCheckpoint &base, const SystemCheckpoint &cur)
{
    const MemoryState mem = cur.memory.materialize();
    return withMemory(cur, CheckpointImage::deltaOn(
                               base.memory,
                               MemoryDelta::between(base.memory.materialize(),
                                                    mem),
                               mem.hash(), mem.population()));
}

/**
 * Property test of the delta codec over random checkpoint histories
 * that store a word's default value (erasing it), grow the memory
 * table between two checkpoints, and leave contexts and counters as
 * they were, rewrite a few of their words or rewrite all of them.
 * Each checkpoint is imaged twice: by the recorder's path (an undo
 * journal feeding an ImageChainBuilder) and as a lone keyframe, whose
 * delta the oracle diffs. Both paths encode the same delta bytes (a
 * chain head keeps no delta: only the oracle's is encoded there),
 * decoding the delta onto the previous checkpoint rebuilds the
 * current one exactly (same keyframe bytes, equal memory, same hash,
 * same contexts), and both encodings are a pure function of content —
 * states with equal content but a different insertion order encode to
 * the same bytes. The builder sizes each image as the codec encodes
 * it: a chain's deltas never encode to more bytes than its keyframe.
 */
TEST(DeltaCodec, ApplyRebuildsAndBytesArePureFunctionsOfContent)
{
    using namespace serialize_detail;
    Xoshiro256ss rng(0xC0DEC5ull);
    SystemCheckpoint cur;
    cur.contexts.resize(4);
    cur.committedChunks.assign(4, 0);
    MemoryState mem;
    MemoryState prev_mem;
    SystemCheckpoint prev_chained;
    UndoJournal journal;
    ImageChainBuilder chain;
    std::uint64_t hash = mem.hash();
    std::size_t grew = 0;
    std::size_t erased_steps = 0;
    std::size_t keyframe_bytes = 0;
    std::size_t chain_delta_bytes = 0;
    for (int step = 0; step < 40; ++step) {
        cur.gcc += 1 + rng.below(50);
        cur.dmaConsumed += rng.below(3);
        cur.rrNext = static_cast<ProcId>(rng.below(4));
        switch (step % 3) {
          case 0: // contexts and counters as they were
            break;
          case 1:
            for (std::size_t p = 0; p < 4; ++p) {
                cur.committedChunks[p] += rng.below(5);
                cur.contexts[p].acc = rng.next();
                cur.contexts[p].retired += rng.below(1000);
            }
            break;
          default:
            for (std::size_t p = 0; p < 4; ++p) {
                cur.committedChunks[p] += 1;
                rewriteEveryWord(cur.contexts[p], rng);
            }
        }
        const std::size_t before = mem.population();
        const bool burst = step % 9 == 4;
        const unsigned stores =
            static_cast<unsigned>(rng.below(300)) + (burst ? 4000u : 0u);
        bool erased = false;
        for (unsigned k = 0; k < stores; ++k) {
            const Addr addr = rng.below(burst ? 40000 : 4000);
            journal.logStore(mem, addr);
            if (rng.below(5) == 0) {
                erased = erased || mem.contains(addr);
                mem.store(addr, MemoryState::initValue(addr));
            } else {
                mem.store(addr, rng.next());
            }
        }
        grew += burst && mem.population() > 2 * before;
        erased_steps += erased;

        MemoryDelta delta = journal.cut(mem, hash);
        const SystemCheckpoint chained =
            withMemory(cur, chain.next(cur, mem, std::move(delta), hash));
        const SystemCheckpoint lone = withMemory(cur, CheckpointImage(mem));
        EXPECT_EQ(encodeKeyframe(chained), encodeKeyframe(lone))
            << "step " << step;
        if (chained.memory.headsChain()) {
            keyframe_bytes = encodeKeyframe(chained).size();
            chain_delta_bytes = 0;
        }
        if (step == 0) {
            prev_chained = chained;
            prev_mem = mem;
            continue;
        }
        const SystemCheckpoint prev_lone =
            withMemory(prev_chained, CheckpointImage(prev_mem));
        const std::string bytes =
            encodeDelta(prev_lone, diffedOn(prev_lone, lone));
        if (chained.memory.headsChain()) {
            EXPECT_EQ(chained.memory.delta(), nullptr) << "step " << step;
        } else {
            EXPECT_EQ(encodeDelta(prev_chained, chained), bytes)
                << "step " << step;
            chain_delta_bytes += bytes.size();
            EXPECT_LE(chain_delta_bytes, keyframe_bytes) << "step " << step;
        }

        ChainDecoder walk;
        walk.resume(prev_lone);
        const SystemCheckpoint rebuilt = walk.delta(bytesOf(bytes),
                                                    bytes.size());
        EXPECT_TRUE(rebuilt.memory == lone.memory) << "step " << step;
        EXPECT_TRUE(rebuilt.memory.materialize() == mem) << "step " << step;
        EXPECT_EQ(rebuilt.memory.hash(), mem.hash());
        EXPECT_EQ(encodeKeyframe(rebuilt), encodeKeyframe(lone))
            << "step " << step;
        EXPECT_TRUE(sameHeader(rebuilt, cur)) << "step " << step;

        const SystemCheckpoint prev2 =
            withMemory(prev_lone, CheckpointImage(reinserted(prev_mem)));
        const SystemCheckpoint cur2 =
            withMemory(lone, CheckpointImage(reinserted(mem)));
        EXPECT_EQ(encodeDelta(prev2, diffedOn(prev2, cur2)), bytes)
            << "step " << step;
        EXPECT_EQ(encodeKeyframe(cur2), encodeKeyframe(lone));

        // A keyframe decodes back to the same checkpoint.
        const std::string key = encodeKeyframe(lone);
        const SystemCheckpoint decoded =
            ChainDecoder().keyframe(bytesOf(key), key.size());
        EXPECT_TRUE(decoded.memory == lone.memory);
        EXPECT_EQ(decoded.memory.hash(), mem.hash());
        prev_chained = chained;
        prev_mem = mem;
    }
    EXPECT_GT(grew, 0u);
    EXPECT_GT(erased_steps, 0u);
}

/**
 * Images chained from an undo journal against a full-snapshot oracle,
 * over random histories with default-value stores, restores of a
 * word's old value inside one interval and table growth between two
 * cuts: at every cut the image materializes to the oracle, carries
 * its hash and population, keeps its delta against the image before
 * it unless it heads a chain (a head keeps only its keyframe), and
 * reads at most twice its keyframe's bytes to materialize.
 * The keyframe rule starts more than one chain.
 */
TEST(ImageChain, JournaledChainsMaterializeToTheOracle)
{
    Xoshiro256ss rng(0xC4A1ull);
    MemoryState mem;
    UndoJournal journal;
    ImageChainBuilder chain;
    SystemCheckpoint header;
    header.contexts.resize(4);
    header.committedChunks.assign(4, 0);
    std::uint64_t hash = mem.hash();
    std::vector<SystemCheckpoint> history;
    std::size_t heads = 0;
    for (int step = 0; step < 50; ++step) {
        const unsigned stores = static_cast<unsigned>(rng.below(200))
                                + (step % 11 == 5 ? 4000u : 0u);
        for (unsigned k = 0; k < stores; ++k) {
            const Addr addr = rng.below(step % 11 == 5 ? 30000 : 2500);
            const std::uint64_t old = mem.load(addr);
            journal.logStore(mem, addr);
            switch (rng.below(5)) {
              case 0:
                mem.store(addr, MemoryState::initValue(addr));
                break;
              case 1: // a write, then the old value restored
                mem.store(addr, rng.next());
                mem.store(addr, old);
                break;
              default:
                mem.store(addr, rng.next());
            }
        }
        MemoryDelta delta = journal.cut(mem, hash);
        header.gcc += 10;
        const CheckpointImage image =
            chain.next(header, mem, std::move(delta), hash);
        heads += image.headsChain() ? 1 : 0;
        EXPECT_TRUE(image.materialize() == mem) << "step " << step;
        EXPECT_EQ(image.hash(), mem.hash()) << "step " << step;
        EXPECT_EQ(image.population(), mem.population());
        EXPECT_TRUE(image == CheckpointImage(mem)) << "step " << step;
        EXPECT_EQ(step > 0 && image.follows(history.back().memory),
                  !image.headsChain())
            << "step " << step;
        EXPECT_EQ(image.delta() == nullptr, image.headsChain())
            << "step " << step;
        history.push_back(header);
        history.back().memory = image;
        const test::ChainBytes bytes = test::chainBytes(history, step);
        EXPECT_LE(bytes.read, 2 * bytes.keyframe) << "step " << step;
    }
    EXPECT_GT(heads, 1u);
    EXPECT_LT(heads, 50u);
}

/**
 * The recorder's journal carries every checkpoint's hash: for fft,
 * radix, ocean and sjbb2k in all four mode configurations, each
 * image's materialized memory hashes to the hash it carries and holds
 * its population, and no image reads more than twice its keyframe's
 * bytes to materialize.
 */
TEST(ImageChain, RecordedHashesMatchMaterializedImages)
{
    ModeConfig strat = ModeConfig::orderOnly();
    strat.stratifyChunksPerProc = 4;
    for (const char *app : {"fft", "radix", "ocean", "sjbb2k"}) {
        for (const ModeConfig &mode :
             {ModeConfig::orderAndSize(), ModeConfig::orderOnly(), strat,
              ModeConfig::picoLog()}) {
            Workload w(app, 4, 9, WorkloadScale::tiny());
            const Recording rec = Recorder(mode, machine())
                                      .record(w, 1, true, {}, 10);
            const std::string what =
                std::string(app) + " " + modeConfigName(mode);
            ASSERT_GE(rec.checkpoints.size(), 2u) << what;
            for (std::size_t i = 0; i < rec.checkpoints.size(); ++i) {
                const CheckpointImage &image = rec.checkpoints[i].memory;
                const MemoryState mem = image.materialize();
                EXPECT_EQ(mem.hash(), image.hash()) << what << " " << i;
                EXPECT_EQ(mem.population(), image.population())
                    << what << " " << i;
                const test::ChainBytes bytes =
                    test::chainBytes(rec.checkpoints, i);
                EXPECT_LE(bytes.read, 2 * bytes.keyframe)
                    << what << " " << i;
            }
        }
    }
}

/** A delta whose base or memory hash disagrees is rejected typed. */
TEST(DeltaCodec, ApplyRejectsForgedBaseAndHash)
{
    using namespace serialize_detail;
    MemoryState before;
    before.store(1, 5);
    MemoryState after = before;
    after.store(2, 6);
    after.store(1, MemoryState::initValue(1));
    SystemCheckpoint prev;
    prev.gcc = 10;
    prev.contexts.resize(2);
    prev.committedChunks.assign(2, 1);
    prev.memory = CheckpointImage(before);
    SystemCheckpoint cur = prev;
    cur.gcc = 20;
    cur.memory = CheckpointImage(after);
    const std::string delta = encodeDelta(prev, diffedOn(prev, cur));
    const auto decode = [&](const SystemCheckpoint &base,
                            const std::string &bytes, std::size_t size) {
        ChainDecoder walk;
        walk.resume(base);
        return walk.delta(bytesOf(bytes), size);
    };
    EXPECT_TRUE(decode(prev, delta, delta.size()).memory == cur.memory);

    SystemCheckpoint wrong_base = prev;
    wrong_base.gcc = 11;
    EXPECT_THROW(decode(wrong_base, delta, delta.size()),
                 RecordingFormatError);

    std::string forged = delta;
    forged[forged.size() - 1] ^= 0x40; // the memory hash's top byte
    try {
        decode(prev, forged, forged.size());
        ADD_FAILURE() << "forged hash accepted";
    } catch (const RecordingFormatError &e) {
        EXPECT_NE(std::string(e.what()).find("memory hash mismatch"),
                  std::string::npos)
            << e.what();
    }

    // A delta with no chain head before it is rejected.
    EXPECT_THROW(ChainDecoder().delta(bytesOf(delta), delta.size()),
                 RecordingFormatError);

    // Every truncation fails typed, never reads past the end.
    for (std::size_t cut = 0; cut < delta.size(); ++cut) {
        EXPECT_THROW(decode(prev, delta, cut), RecordingFormatError)
            << "cut " << cut;
        EXPECT_THROW(scanImage(ImageKind::kDelta, bytesOf(delta), cut),
                     RecordingFormatError)
            << "cut " << cut;
    }
    EXPECT_EQ(scanImage(ImageKind::kDelta, bytesOf(delta), delta.size())
                  .bytes,
              delta.size());
}

/**
 * Randomized round trips through the image codec at its edges:
 * address gaps of 2^56 and more (nine- and ten-byte varints), values
 * 0 and 2^64-1, empty word lists, and contexts equal to their base
 * (a 7-byte block each) or different in every word (a full block).
 * Keyframes and deltas decode back to the same words, lists, hash and
 * contexts, scanImage walks each to its exact size, and the builder's
 * size functions predict every encoded size.
 */
TEST(ImageCodec, RandomizedRoundTripsCoverTheEncodingEdges)
{
    using namespace serialize_detail;
    Xoshiro256ss rng(0x1EB128ull);
    const auto random_state = [&rng]() {
        MemoryState mem;
        const unsigned words = static_cast<unsigned>(rng.below(40));
        for (unsigned k = 0; k < words; ++k) {
            Addr addr = rng.next();
            switch (rng.below(4)) {
              case 0:
                addr = rng.below(64); // tiny gaps
                break;
              case 1:
                addr |= std::uint64_t{1} << 63; // gaps past 2^56
                break;
              default:
                break;
            }
            const std::uint64_t value =
                rng.below(3) == 0 ? 0
                                  : (rng.below(2) ? ~std::uint64_t{0}
                                                  : rng.next());
            mem.store(addr, value);
        }
        if (rng.below(2))
            mem.store(~Addr{0}, rng.next()); // the last address
        return mem;
    };
    const std::size_t full_block = kContextMaskBytes + 8 * kContextWords;
    std::size_t wide_gaps = 0;
    std::size_t empty_lists = 0;
    for (int round = 0; round < 200; ++round) {
        SystemCheckpoint prev;
        prev.gcc = rng.below(1000);
        prev.dmaConsumed = rng.below(5);
        prev.rrNext = static_cast<ProcId>(rng.below(4));
        prev.contexts.resize(1 + rng.below(4));
        prev.committedChunks.assign(prev.contexts.size(), rng.below(9));
        for (ThreadContext &ctx : prev.contexts)
            ctx.acc = rng.next();
        const MemoryState prev_mem = random_state();
        prev.memory = CheckpointImage(prev_mem);

        SystemCheckpoint cur = prev;
        cur.gcc += 1 + rng.below(100);
        const bool every_word = round % 2 == 1;
        if (every_word)
            for (std::size_t p = 0; p < cur.contexts.size(); ++p) {
                rewriteEveryWord(cur.contexts[p], rng);
                cur.committedChunks[p] += 1;
            }
        const MemoryState cur_mem = round % 5 == 0 ? prev_mem : random_state();
        const MemoryDelta diff = MemoryDelta::between(prev_mem, cur_mem);
        empty_lists += diff.changed.empty() + diff.erased.empty()
                       + (cur_mem.population() == 0);
        for (const auto &[addr, value] : CheckpointImage::sortedWords(cur_mem))
            wide_gaps += varintBytes(addr) >= 9;
        cur.memory = CheckpointImage::deltaOn(prev.memory, diff,
                                              cur_mem.hash(),
                                              cur_mem.population());

        // Contexts: equal to the base, or different in every word.
        EXPECT_EQ(headerBytes(&prev, cur),
                  kCheckpointLeadBytes
                      + cur.contexts.size()
                            * (every_word ? full_block : kContextMaskBytes))
            << "round " << round;

        const std::string key = encodeKeyframe(prev);
        EXPECT_EQ(key.size(),
                  keyframeBytes(prev, CheckpointImage::sortedWords(prev_mem)));
        EXPECT_EQ(scanImage(ImageKind::kKeyframe, bytesOf(key), key.size())
                      .bytes,
                  key.size());
        ChainDecoder walk;
        const SystemCheckpoint head = walk.keyframe(bytesOf(key), key.size());
        EXPECT_EQ(head.memory.words(), CheckpointImage::sortedWords(prev_mem))
            << "round " << round;
        EXPECT_EQ(head.memory.hash(), prev_mem.hash());
        EXPECT_TRUE(sameHeader(head, prev)) << "round " << round;

        const std::string delta = encodeDelta(prev, cur);
        EXPECT_EQ(delta.size(), deltaBytes(prev, cur, diff));
        const CheckpointExtent ext =
            scanImage(ImageKind::kDelta, bytesOf(delta), delta.size());
        EXPECT_EQ(ext.bytes, delta.size());
        EXPECT_EQ(ext.baseGcc, prev.gcc);
        const SystemCheckpoint next =
            walk.delta(bytesOf(delta), delta.size());
        ASSERT_NE(next.memory.delta(), nullptr);
        EXPECT_EQ(next.memory.delta()->changed, diff.changed);
        EXPECT_EQ(next.memory.delta()->erased, diff.erased);
        EXPECT_TRUE(next.memory.materialize() == cur_mem)
            << "round " << round;
        EXPECT_TRUE(sameHeader(next, cur)) << "round " << round;
        EXPECT_EQ(encodeDelta(head, next), delta) << "round " << round;
    }
    EXPECT_GT(wide_gaps, 0u);
    EXPECT_GT(empty_lists, 0u);
}

/**
 * Malformed images end in a typed RecordingFormatError with the
 * check's own message: a truncated varint, a non-minimal varint, a
 * zero gap, a byte length its words do not fill, a list that runs past
 * the image, and a presence mask naming a word past the context.
 */
TEST(ImageCodec, MalformedImagesAreTypedRejections)
{
    using namespace serialize_detail;
    SystemCheckpoint ckpt;
    ckpt.gcc = 40;
    ckpt.contexts.resize(2);
    ckpt.committedChunks.assign(2, 3);
    const std::string empty = encodeKeyframe(ckpt); // no words
    const std::size_t list_at = empty.size() - kListHeaderBytes;
    ASSERT_EQ(scanImage(ImageKind::kKeyframe, bytesOf(empty), empty.size())
                  .fieldsAt,
              list_at);

    const auto value = [](Addr addr) {
        std::string v(8, '\0');
        storeU64(reinterpret_cast<std::uint8_t *>(v.data()),
                 MemoryState::initValue(addr) ^ 1);
        return v;
    };
    // The keyframe with a hand-made list: its count and body.
    const auto with_list = [&](std::uint64_t count, const std::string &body,
                               std::uint64_t body_bytes) {
        std::string image = empty.substr(0, list_at);
        std::string header(kListHeaderBytes, '\0');
        auto *h = reinterpret_cast<std::uint8_t *>(header.data());
        storeU64(h, count);
        storeU64(h + 8, body_bytes);
        return image + header + body;
    };
    const auto rejects = [](const std::string &image, const char *what) {
        try {
            ChainDecoder().keyframe(bytesOf(image), image.size());
            ADD_FAILURE() << what << ": accepted";
        } catch (const RecordingFormatError &e) {
            EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
                << e.what();
        }
    };

    // A well-formed one-word list decodes; it is the base of the forgeries.
    const std::string good = std::string("\x05") + value(5);
    EXPECT_EQ(ChainDecoder()
                  .keyframe(bytesOf(with_list(1, good, good.size())),
                            with_list(1, good, good.size()).size())
                  .memory.population(),
              1u);

    const std::string truncated(9, '\x80'); // nine continuation bytes
    rejects(with_list(1, truncated, truncated.size()), "file truncated");
    const std::string padded = std::string("\x85\x00", 2) + value(5);
    rejects(with_list(1, padded, padded.size()), "non-minimal varint");
    const std::string repeat =
        good + std::string("\x00", 1) + value(5);
    rejects(with_list(2, repeat, repeat.size()), "zero gap");
    const std::string slack = good + std::string("\x01", 1);
    rejects(with_list(1, slack, slack.size()),
            "byte length disagrees with its words");
    rejects(with_list(1, good, good.size() + 1), "runs past its image");
    rejects(with_list(3, good, good.size()), "cannot take");

    std::string mask = empty;
    mask[kCheckpointLeadBytes + kContextMaskBytes - 1] |= 0x40; // word 54
    rejects(mask, "names word 54 past the context");

    // Each forgery fails the open-time walk or the decoder, typed.
    for (const std::string &image :
         {with_list(1, truncated, truncated.size()),
          with_list(1, good, good.size() + 1), mask}) {
        try {
            scanImage(ImageKind::kKeyframe, bytesOf(image), image.size());
            ChainDecoder().keyframe(bytesOf(image), image.size());
            ADD_FAILURE() << "forgery accepted";
        } catch (const RecordingFormatError &) {
        }
    }
}

} // namespace
} // namespace delorean
