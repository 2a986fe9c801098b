/**
 * @file
 * Interval replay (Appendix B): record with periodic system
 * checkpoints, persist the recording, reload it, and replay only the
 * tail interval — the workflow of a developer zooming in on the end
 * of a long recording without re-executing the whole run.
 */

#include <cstdio>

#include "core/delorean.hpp"
#include "core/serialize.hpp"
#include "store/archive.hpp"

using namespace delorean;

int
main()
{
    MachineConfig machine;
    Workload workload("fmm", machine.numProcs, /*seed=*/88,
                      WorkloadScale{30});

    // Record with checkpoints at GCC = 100 and GCC = 300.
    Recorder recorder(ModeConfig::orderOnly(), machine);
    const Recording rec =
        recorder.record(workload, /*env=*/1, true, {100, 300});
    std::printf("recorded %llu chunk commits with %zu checkpoints\n",
                static_cast<unsigned long long>(
                    rec.stats.committedChunks),
                rec.checkpoints.size());

    // Persist and reload — the recording survives the process.
    const std::string path = "/tmp/delorean_interval_demo.dla";
    saveRecordingFile(rec, path);
    const Recording loaded = ArchiveReader::fromFile(path).readAll();
    std::printf("saved + reloaded recording from %s\n", path.c_str());

    Replayer replayer;
    ReplayPerturbation perturb;
    perturb.enabled = true;
    perturb.seed = 7;

    // Full replay vs interval replays.
    const ReplayOutcome full = replayer.replay(loaded, 11, perturb);
    std::printf("full replay:           %7llu instrs, deterministic=%s\n",
                static_cast<unsigned long long>(
                    full.stats.retiredInstrs),
                full.deterministicExact ? "yes" : "NO");

    bool ok = full.deterministicExact;
    for (std::size_t i = 0; i < loaded.checkpoints.size(); ++i) {
        const ReplayOutcome part = replayer.replayInterval(
            loaded, i, workload, 13 + i, perturb);
        std::printf("interval from GCC=%-4llu %7llu instrs, "
                    "deterministic=%s\n",
                    static_cast<unsigned long long>(
                        loaded.checkpoints[i].gcc),
                    static_cast<unsigned long long>(
                        part.stats.retiredInstrs),
                    part.deterministicExact ? "yes" : "NO");
        ok = ok && part.deterministicExact;
    }

    std::printf("%s\n", ok ? "interval replay reproduces every "
                             "suffix of the recording exactly."
                           : "BUG: interval replay diverged.");
    return ok ? 0 : 1;
}
