/**
 * @file
 * CI smoke check for the archive store subsystem; wired into ctest as
 * `store_smoke` (tier-1). In a few seconds, for every recording mode
 * it runs the full durable-storage loop:
 *
 *   record (with periodic checkpoints) -> save (.dla) -> parse ->
 *   seek (footer index sanity) -> readAll byte-identity ->
 *   interval replay from every checkpoint -> fingerprint check,
 *
 * plus one bounded interval I(ckpt[0], ckpt[2]) and one corrupted
 * archive that must be rejected with a typed segment error. The
 * exhaustive versions live in tests/test_store.cpp and the
 * `fuzz`-labeled archive-corruption sweep.
 */

#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/recorder.hpp"
#include "core/serialize.hpp"
#include "store/archive.hpp"
#include "trace/workload.hpp"

using namespace delorean;

namespace
{

constexpr std::uint64_t kSeed = 20080621;
constexpr std::uint64_t kCheckpointPeriod = 20;

std::vector<std::pair<const char *, ModeConfig>>
modes()
{
    ModeConfig strat = ModeConfig::orderOnly();
    strat.stratifyChunksPerProc = 4;
    return {{"order-and-size", ModeConfig::orderAndSize()},
            {"order-only", ModeConfig::orderOnly()},
            {"order-only-strat", strat},
            {"picolog", ModeConfig::picoLog()}};
}

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
    std::fprintf(stderr, "store_smoke: %s: %s\n", name, what);
    return false;
}

bool
smokeMode(const char *name, const ModeConfig &mode)
{
    MachineConfig machine;
    machine.numProcs = 4;
    Workload workload("radix", machine.numProcs, kSeed,
                      WorkloadScale{10});
    const Recording rec =
        Recorder(mode, machine)
            .record(workload, /*env_seed=*/1, true, {},
                    kCheckpointPeriod);
    if (rec.checkpoints.empty())
        return fail(name, "record took no checkpoints");

    std::ostringstream out(std::ios::binary);
    saveRecording(rec, out);
    const std::string blob = std::move(out).str();
    std::vector<std::uint8_t> bytes(blob.begin(), blob.end());

    const ArchiveReader reader = ArchiveReader::fromBytes(bytes);

    // Seek: the footer index must expose every checkpoint, ascending.
    if (reader.checkpointCount() != rec.checkpoints.size())
        return fail(name, "footer index lost checkpoints");
    const std::vector<std::uint64_t> gccs = reader.checkpointGccs();
    for (std::size_t i = 0; i < gccs.size(); ++i)
        if (gccs[i] != rec.checkpoints[i].gcc
            || reader.checkpointAt(i).gcc != gccs[i])
            return fail(name, "checkpoint seek returned wrong GCC");

    if (saved(reader.readAll()) != saved(rec))
        return fail(name, "readAll() not byte-identical");

    // Interval replay from every checkpoint must reproduce the
    // recorded tail fingerprint (per-processor for stratified logs,
    // whose global interleaving is legally relaxed).
    for (std::size_t i = 0; i < reader.checkpointCount(); ++i) {
        const Recording view = reader.readInterval(i);
        const ReplayOutcome out_i = Replayer().replayInterval(
            view, 0, workload, /*env_seed=*/99 + i);
        const bool ok = rec.stratified() ? out_i.deterministicPerProc
                                         : out_i.deterministicExact;
        if (!ok)
            return fail(name, "interval replay diverged");
    }

    // One bounded interval: I(ckpt[0], ckpt[2]) when available.
    if (reader.checkpointCount() >= 3) {
        const Recording view = reader.readInterval(0, 2);
        const ReplayOutcome out_b = Replayer().replayInterval(
            view, 0, workload, /*env_seed=*/123, {},
            &view.checkpoints[1]);
        const bool ok = rec.stratified() ? out_b.deterministicPerProc
                                         : out_b.deterministicExact;
        if (!ok)
            return fail(name, "bounded interval replay diverged");
        if (out_b.fingerprint.commits.size()
            != view.checkpoints[1].gcc - view.checkpoints[0].gcc)
            return fail(name, "bounded interval commit count wrong");
    }

    // Integrity: a payload flip must be a typed segment error.
    std::vector<std::uint8_t> corrupt = bytes;
    const std::size_t seg0_payload =
        static_cast<std::size_t>(reader.segments()[0].fileOffset) + 40;
    corrupt[seg0_payload] ^= 0x01;
    try {
        ArchiveReader::fromBytes(corrupt).readAll();
        return fail(name, "corrupted segment was not detected");
    } catch (const ArchiveError &e) {
        if (e.section() != ArchiveSection::kSegment
            || e.segment() != 0)
            return fail(name, "corruption error named wrong section");
    }

    std::printf("store_smoke: %s: %zu checkpoints archived, sought, "
                "interval-replayed\n",
                name, reader.checkpointCount());
    return true;
}

} // namespace

int
main()
{
    bool ok = true;
    for (const auto &[name, mode] : modes())
        ok = smokeMode(name, mode) && ok;
    if (!ok) {
        std::fprintf(stderr, "store_smoke: FAILED\n");
        return 1;
    }
    std::printf("store_smoke: archive round-trip, seek, interval "
                "replay and corruption detection passed\n");
    return 0;
}
