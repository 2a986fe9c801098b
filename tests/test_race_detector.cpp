/**
 * @file
 * Replay-observer / race-detector tests: vector-clock unit semantics
 * (join, increment, epoch coverage, wraparound fencing), observer-hub
 * re-sequencing, seeded-race app variants and their manifests, exact
 * manifest detection with zero false positives on the stock
 * applications, and the headline determinism matrix — byte-identical
 * race reports from the serial DES replayer, the windowed replay
 * arbiter and the chunk-parallel replayer at jobs {1,2,4}.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/race_detector.hpp"
#include "common/errors.hpp"
#include "core/delorean.hpp"
#include "sim/parallel_replay.hpp"
#include "trace/app_profile.hpp"
#include "trace/layout.hpp"
#include "validate/replay_check.hpp"

namespace delorean
{
namespace
{

Recording
recordOne(const ModeConfig &mode, const char *app)
{
    MachineConfig m;
    m.numProcs = 4;
    Workload w(app, m.numProcs, 7, WorkloadScale::tiny());
    return Recorder(mode, m).record(w, 1);
}

/** The four (mode, PI-flavor) configurations under test. */
std::vector<std::pair<std::string, ModeConfig>>
allConfigs()
{
    ModeConfig strat = ModeConfig::orderOnly();
    strat.stratifyChunksPerProc = 3;
    return {
        {"order-and-size", ModeConfig::orderAndSize()},
        {"order-only", ModeConfig::orderOnly()},
        {"order-only-strat", strat},
        {"picolog", ModeConfig::picoLog()},
    };
}

std::set<Addr>
findingWords(const RaceReport &report)
{
    std::set<Addr> words;
    for (const RaceFinding &f : report.findings)
        words.insert(f.word);
    return words;
}

// ---------------------------------------------------------------------
// VectorClock unit semantics
// ---------------------------------------------------------------------

TEST(VectorClock, StartsAtZeroAndTicksPerComponent)
{
    VectorClock vc(4);
    EXPECT_EQ(vc.size(), 4u);
    for (unsigned p = 0; p < 4; ++p)
        EXPECT_EQ(vc.at(p), 0u);
    vc.tick(2);
    vc.tick(2);
    vc.tick(0);
    EXPECT_EQ(vc.at(0), 1u);
    EXPECT_EQ(vc.at(1), 0u);
    EXPECT_EQ(vc.at(2), 2u);
    // Components past size() read as zero.
    EXPECT_EQ(vc.at(99), 0u);
}

TEST(VectorClock, TickGrowsAnUndersizedClock)
{
    VectorClock vc; // size 0
    vc.tick(3);
    EXPECT_EQ(vc.size(), 4u);
    EXPECT_EQ(vc.at(3), 1u);
    EXPECT_EQ(vc.at(0), 0u);
}

TEST(VectorClock, JoinIsComponentwiseMaxAndGrows)
{
    VectorClock a(2);
    a.set(0, 5);
    a.set(1, 1);
    VectorClock b(4);
    b.set(0, 3);
    b.set(1, 7);
    b.set(3, 2);

    a.join(b);
    EXPECT_EQ(a.size(), 4u);
    EXPECT_EQ(a.at(0), 5u);
    EXPECT_EQ(a.at(1), 7u);
    EXPECT_EQ(a.at(2), 0u);
    EXPECT_EQ(a.at(3), 2u);

    // Join with a smaller clock leaves the tail untouched.
    VectorClock c(1);
    c.set(0, 9);
    a.join(c);
    EXPECT_EQ(a.at(0), 9u);
    EXPECT_EQ(a.at(3), 2u);

    // Join is idempotent.
    VectorClock before = a;
    a.join(a);
    for (unsigned p = 0; p < a.size(); ++p)
        EXPECT_EQ(a.at(p), before.at(p));
}

TEST(VectorClock, CoversImplementsEpochHappensBefore)
{
    VectorClock vc(2);
    vc.set(1, 4);
    EXPECT_TRUE(vc.covers(1, 4));
    EXPECT_TRUE(vc.covers(1, 3));
    EXPECT_FALSE(vc.covers(1, 5));
    // Clock 0 means "never accessed": always covered.
    EXPECT_TRUE(vc.covers(0, 0));
    EXPECT_TRUE(vc.covers(7, 0));
}

TEST(VectorClock, WraparoundRaisesTypedReplayError)
{
    VectorClock vc(2);
    vc.set(1, ~0ull);
    EXPECT_THROW(vc.tick(1), ReplayError);
    // The other component still ticks normally.
    vc.tick(0);
    EXPECT_EQ(vc.at(0), 1u);
    // Joining a saturated clock is fine — only increment can wrap.
    VectorClock other(2);
    other.join(vc);
    EXPECT_EQ(other.at(1), ~0ull);
}

// ---------------------------------------------------------------------
// ObserverHub re-sequencing
// ---------------------------------------------------------------------

/** Observer that records the commit positions it is handed. */
class OrderProbe : public ReplayObserver
{
  public:
    void
    onChunkRetire(const ChunkObservation &obs) override
    {
        positions.push_back(obs.commitPos);
    }
    void
    onDmaRetire(const DmaObservation &obs) override
    {
        positions.push_back(obs.commitPos);
    }
    std::vector<std::uint64_t> positions;
};

TEST(ObserverHub, ResequencesOutOfOrderRetires)
{
    OrderProbe probe;
    ObserverHub hub(&probe);
    ASSERT_TRUE(hub.enabled());

    hub.chunkRetired(2, 0, 0, 1, {});
    hub.chunkRetired(1, 1, 0, 1, {});
    EXPECT_TRUE(probe.positions.empty()); // position 0 still missing
    hub.chunkRetired(0, 2, 0, 1, {});
    EXPECT_EQ(probe.positions,
              (std::vector<std::uint64_t>{0, 1, 2}));
    hub.chunkRetired(3, 0, 1, 1, {});
    EXPECT_EQ(probe.positions.size(), 4u);
    hub.end();
    EXPECT_EQ(probe.positions.size(), 4u);
}

TEST(ObserverHub, DisabledHubIsInert)
{
    ObserverHub hub(nullptr);
    EXPECT_FALSE(hub.enabled());
    hub.chunkRetired(0, 0, 0, 1, {});
    hub.end(); // no crash, nothing delivered
}

// ---------------------------------------------------------------------
// Seeded-race app variants and manifests
// ---------------------------------------------------------------------

TEST(SeededRaces, VariantSuffixDerivesProfileAndManifest)
{
    const AppProfile &base = AppTable::byName("fft");
    EXPECT_EQ(base.seededRaceWords, 0u);

    const AppProfile &seeded = AppTable::byName("fft~r3");
    EXPECT_EQ(seeded.seededRaceWords, 3u);
    EXPECT_EQ(seeded.name, "fft~r3");
    // Everything else is inherited from the stock profile.
    EXPECT_EQ(seeded.sharedWords, base.sharedWords);
    EXPECT_EQ(seeded.numLocks, base.numLocks);

    const std::vector<Addr> manifest = seededRaceManifest(seeded);
    ASSERT_EQ(manifest.size(), 3u);
    EXPECT_EQ(manifest[0], AddressLayout::raceWord(0));
    EXPECT_EQ(manifest[2], AddressLayout::raceWord(2));
    EXPECT_TRUE(std::is_sorted(manifest.begin(), manifest.end()));

    EXPECT_TRUE(seededRaceManifest(base).empty());
}

TEST(SeededRaces, MalformedVariantNamesAreRejected)
{
    EXPECT_THROW(AppTable::byName("fft~r0"), std::out_of_range);
    EXPECT_THROW(AppTable::byName("fft~r65"), std::out_of_range);
    EXPECT_THROW(AppTable::byName("fft~rX"), std::out_of_range);
    EXPECT_THROW(AppTable::byName("~r3"), std::out_of_range);
    EXPECT_THROW(AppTable::byName("nosuchapp~r2"), std::out_of_range);
}

// ---------------------------------------------------------------------
// Detection: manifest-exact on seeded apps, silent on stock apps
// ---------------------------------------------------------------------

TEST(RaceDetector, DetectsExactlyTheSeededManifest)
{
    const Recording rec =
        recordOne(ModeConfig::orderOnly(), "fft~r3");

    ReplayCheckOptions opts;
    opts.detectRaces = true;
    const ReplayCheckResult out = checkedReplay(rec, opts);
    ASSERT_TRUE(out.ok) << out.report.describe();

    const AppProfile &profile = AppTable::byName("fft~r3");
    const std::vector<Addr> manifest = seededRaceManifest(profile);
    const std::set<Addr> expected(manifest.begin(), manifest.end());
    EXPECT_EQ(findingWords(out.races), expected)
        << out.races.describe();
    // One finding per word: dedup keeps reports manifest-sized.
    EXPECT_EQ(out.races.findings.size(), expected.size());
    for (const RaceFinding &f : out.races.findings) {
        EXPECT_TRUE(AddressLayout::isRace(f.word));
        EXPECT_NE(f.prior.proc, f.racing.proc);
        EXPECT_LT(f.prior.commitPos, f.racing.commitPos);
        EXPECT_FALSE(f.describe().empty());
    }
}

TEST(RaceDetector, SeededRacesDetectedInEveryMode)
{
    for (const auto &[label, mode] : allConfigs()) {
        const Recording rec = recordOne(mode, "lu~r2");
        ReplayCheckOptions opts;
        opts.detectRaces = true;
        const ReplayCheckResult out = checkedReplay(rec, opts);
        ASSERT_TRUE(out.ok) << label << ": " << out.report.describe();
        const std::vector<Addr> manifest =
            seededRaceManifest(AppTable::byName("lu~r2"));
        EXPECT_EQ(findingWords(out.races),
                  std::set<Addr>(manifest.begin(), manifest.end()))
            << label << ": " << out.races.describe();
    }
}

TEST(RaceDetector, StockApplicationsAreRaceFree)
{
    // The zero-false-positive half of the acceptance criterion: all
    // 11 stock SPLASH-2 applications replay clean under the detector.
    for (const std::string &name : AppTable::splash2Names()) {
        const Recording rec =
            recordOne(ModeConfig::orderOnly(), name.c_str());
        ReplayCheckOptions opts;
        opts.detectRaces = true;
        const ReplayCheckResult out = checkedReplay(rec, opts);
        ASSERT_TRUE(out.ok) << name << ": " << out.report.describe();
        EXPECT_TRUE(out.races.clean())
            << name << " reported:\n"
            << out.races.describe();
        EXPECT_GT(out.races.accessesChecked, 0u) << name;
    }
}

TEST(RaceDetector, IntervalReplayWithDetectorIsRejected)
{
    const Recording rec = recordOne(ModeConfig::orderOnly(), "fft");
    ReplayCheckOptions opts;
    opts.detectRaces = true;
    opts.startCheckpoint = 0;
    const ReplayCheckResult out = checkedReplay(rec, opts);
    EXPECT_FALSE(out.ok);
    EXPECT_FALSE(out.replayRan);
    EXPECT_EQ(out.report.kind, DivergenceKind::kFormatError);
}

// ---------------------------------------------------------------------
// Determinism matrix: byte-identical reports everywhere
// ---------------------------------------------------------------------

TEST(RaceDetector, ReportsByteIdenticalAcrossReplayersAndJobs)
{
    const Recording rec =
        recordOne(ModeConfig::orderOnly(), "radix~r2");

    ReplayCheckOptions serial_opts;
    serial_opts.detectRaces = true;
    const ReplayCheckResult serial = checkedReplay(rec, serial_opts);
    ASSERT_TRUE(serial.ok) << serial.report.describe();
    const std::string reference = serial.races.describe();
    ASSERT_FALSE(serial.races.findings.empty());

    // Windowed replay arbiter (serial engine, lookahead > 1).
    ReplayCheckOptions windowed_opts;
    windowed_opts.detectRaces = true;
    windowed_opts.replayWindow = 8;
    const ReplayCheckResult windowed = checkedReplay(rec, windowed_opts);
    ASSERT_TRUE(windowed.ok);
    EXPECT_EQ(windowed.races.describe(), reference) << "windowed arbiter";

    // Chunk-parallel replayer across worker counts.
    for (const unsigned jobs : {1u, 2u, 4u}) {
        ParallelReplayOptions popts;
        popts.jobs = jobs;
        popts.window = 8;
        ReplayCheckOptions opts;
        opts.detectRaces = true;
        const ReplayCheckResult par =
            checkedParallelReplay(rec, popts, opts);
        ASSERT_TRUE(par.ok) << "jobs " << jobs << ": "
                            << par.report.describe();
        EXPECT_EQ(par.races.describe(), reference) << "jobs " << jobs;
    }
}

TEST(RaceDetector, ReportsByteIdenticalAcrossModes)
{
    // Each mode linearizes commits differently (flat PI, strata,
    // PicoLog round-robin), so reports legitimately differ *across*
    // modes — but within a mode, serial and parallel replay must
    // agree byte-for-byte.
    for (const auto &[label, mode] : allConfigs()) {
        const Recording rec = recordOne(mode, "water-ns~r2");

        ReplayCheckOptions opts;
        opts.detectRaces = true;
        const ReplayCheckResult serial = checkedReplay(rec, opts);
        ASSERT_TRUE(serial.ok) << label << ": "
                               << serial.report.describe();

        ParallelReplayOptions popts;
        popts.jobs = 4;
        popts.window = 8;
        const ReplayCheckResult par =
            checkedParallelReplay(rec, popts, opts);
        ASSERT_TRUE(par.ok) << label << ": "
                            << par.report.describe();
        EXPECT_EQ(par.races.describe(), serial.races.describe())
            << label;
    }
}

TEST(RaceDetector, SeededRecordingsStayDeterministicWithoutDetector)
{
    // Seeding races must not break replay determinism itself: the
    // burst is part of the recorded execution.
    const Recording rec =
        recordOne(ModeConfig::orderAndSize(), "fft~r4");
    const ReplayCheckResult out = checkedReplay(rec, {});
    EXPECT_TRUE(out.ok) << out.report.describe();
    ParallelReplayOptions popts;
    popts.jobs = 4;
    const ReplayCheckResult par = checkedParallelReplay(rec, popts);
    EXPECT_TRUE(par.ok) << par.report.describe();
}

} // namespace
} // namespace delorean
