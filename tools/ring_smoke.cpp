/**
 * @file
 * CI smoke check for the always-on ring archive; wired into ctest as
 * `ring_smoke` (tier-1, DELOREAN_JOBS=4, runs under the tsan preset).
 * In a few seconds, for a flat and a stratified mode, it runs the
 * whole always-on loop the exhaustive tests cover piecemeal:
 *
 *   record while streaming into a ring under a budget tight enough
 *   to evict most of the history -> assert the replay-start-lag
 *   contract held -> kill the recorder mid-segment (the fault
 *   injector's torn-tail mutation) -> recover the directory ->
 *   time-travel seek into the salvaged window -> bounded replay ->
 *   views byte-identical to an uncorrupted `.dla` archive of the same
 *   run.
 *
 * The exhaustive versions live in tests/test_ring.cpp and the
 * `fuzz`-labeled ring mutation sweep in tests/test_archive_faults.cpp.
 */

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/recorder.hpp"
#include "core/serialize.hpp"
#include "store/archive.hpp"
#include "store/ring.hpp"
#include "trace/workload.hpp"
#include "validate/fault_injector.hpp"
#include "validate/replay_check.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

using namespace delorean;

namespace
{

constexpr std::uint64_t kSeed = 20080621;
constexpr std::uint64_t kCheckpointPeriod = 10;

std::string
saved(const Recording &rec)
{
    std::ostringstream out(std::ios::binary);
    saveRecording(rec, out);
    return std::move(out).str();
}

bool
fail(const char *name, const char *what)
{
    std::fprintf(stderr, "ring_smoke: %s: %s\n", name, what);
    return false;
}

bool
smokeMode(const char *name, const ModeConfig &mode,
          const std::string &scratch)
{
    MachineConfig machine;
    machine.numProcs = 4;
    Workload workload("ocean", machine.numProcs, kSeed,
                      WorkloadScale::tiny());
    const Recorder recorder(mode, machine);

    // Size the budget off an unbounded probe so "tight" means the
    // same thing for every mode: room for about six segments.
    const Recording rec = recorder.record(workload, /*env_seed=*/1,
                                          true, {}, kCheckpointPeriod);
    if (rec.checkpoints.size() < 8)
        return fail(name, "record took too few checkpoints");
    const std::string probe_dir = scratch + "/probe";
    const RingWriterStats probe =
        writeRing(rec, probe_dir, RingOptions{});
    std::filesystem::remove_all(probe_dir);

    RingOptions opts;
    opts.checkpointPeriod = kCheckpointPeriod;
    opts.budgetBytes = std::max<std::uint64_t>(
        1, 6 * (probe.liveBytes / probe.segmentsCut));

    // Always-on recording: the same run again, streamed through the
    // checkpoint hook into the evicting ring.
    const std::string dir = scratch + "/ring";
    RingArchiveWriter writer(dir, opts);
    const Recording streamed = recorder.record(
        workload, /*env_seed=*/1, true, {}, kCheckpointPeriod,
        [&writer](const Recording &r) { writer.onCheckpoint(r); });
    writer.close(streamed);
    if (saved(streamed) != saved(rec))
        return fail(name, "streamed record was not deterministic");

    const RingWriterStats stats = writer.stats();
    if (stats.segmentsEvicted == 0)
        return fail(name, "tight budget evicted nothing");
    if (stats.worstStartLag > opts.resolvedLag())
        return fail(name, "replay-start lag contract broken");

    // Kill mid-segment: the injector's torn-tail crash shape.
    mutateRing(dir, RingMutationKind::kTornTail, /*seed=*/7);

    const RingArchiveReader ring = RingArchiveReader::open(dir);
    if (ring.recovery().clean)
        return fail(name, "torn tail still read as a clean close");
    if (ring.recovery().droppedSegments == 0)
        return fail(name, "recovery dropped no segment");
    if (ring.checkpointCount() < 2)
        return fail(name, "salvage kept too little to replay");

    // Time-travel: seek a cycle between the two newest retained
    // checkpoints; the bounded interval under it must be decodable.
    const std::vector<std::uint64_t> gccs = ring.checkpointGccs();
    const std::size_t from =
        ring.newestCheckpointAtOrBefore(gccs[gccs.size() - 2] + 1);
    if (from != gccs.size() - 2)
        return fail(name, "seek resolved to the wrong checkpoint");
    Recording view = ring.readInterval(from, from + 1);

    // Byte-identity with an uncorrupted `.dla` archive over the same
    // GCC interval. A crashed recorder never knew the final stats,
    // so the salvaged view carries zeroed finals; patch those from
    // the `.dla` view, everything else must match exactly.
    std::ostringstream out(std::ios::binary);
    saveRecording(rec, out);
    const std::string blob = std::move(out).str();
    const ArchiveReader batch = ArchiveReader::fromBytes(
        std::vector<std::uint8_t>(blob.begin(), blob.end()));
    std::size_t off = 0;
    while (off < batch.checkpointCount()
           && batch.checkpointAt(off).gcc != gccs[from])
        ++off;
    if (off == batch.checkpointCount())
        return fail(name, "salvaged checkpoint unknown to archive");
    const Recording want = batch.readInterval(off, off + 1);
    if (view.fingerprint.finalMemHash != 0)
        return fail(name, "salvaged view fabricated final stats");
    view.fingerprint.perProcAcc = want.fingerprint.perProcAcc;
    view.fingerprint.perProcRetired = want.fingerprint.perProcRetired;
    view.fingerprint.finalMemHash = want.fingerprint.finalMemHash;
    if (saved(view) != saved(want))
        return fail(name, "ring view differs from the .dla archive");

    // Replay forward from the seek point: it must reproduce the
    // uncorrupted recording's fingerprint.
    ReplayCheckOptions ropts;
    ropts.startCheckpoint = 0;
    ropts.stopCheckpoint = 1;
    ropts.perturb.enabled = true;
    ropts.perturb.seed = 5;
    if (!checkedReplay(view, ropts).ok)
        return fail(name, "time-travel replay diverged");

    std::printf("ring_smoke: %s: %llu evicted, %zu dropped, "
                "time-travel replay from gcc %llu matched\n",
                name,
                static_cast<unsigned long long>(stats.segmentsEvicted),
                ring.recovery().droppedSegments,
                static_cast<unsigned long long>(gccs[from]));
    return true;
}

} // namespace

int
main()
{
    std::string scratch = "ring_smoke.tmp";
#if defined(__unix__) || defined(__APPLE__)
    scratch = "/tmp/ring_smoke." + std::to_string(::getpid());
#endif

    ModeConfig strat = ModeConfig::orderOnly();
    strat.stratifyChunksPerProc = 4;
    const std::vector<std::pair<const char *, ModeConfig>> modes = {
        {"order-and-size", ModeConfig::orderAndSize()},
        {"order-only-strat", strat},
    };

    bool ok = true;
    for (const auto &[name, mode] : modes) {
        const std::string dir = scratch + "/" + name;
        std::filesystem::create_directories(dir);
        ok = smokeMode(name, mode, dir) && ok;
    }
    std::filesystem::remove_all(scratch);
    if (!ok) {
        std::fprintf(stderr, "ring_smoke: FAILED\n");
        return 1;
    }
    std::printf("ring_smoke: evicting record, torn-tail recovery and "
                "time-travel replay passed\n");
    return 0;
}
