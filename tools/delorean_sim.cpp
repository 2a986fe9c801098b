/**
 * @file
 * delorean_sim — command-line driver for the simulator.
 *
 * Usage:
 *   delorean_sim record  <app> [options] -o rec.dla
 *   delorean_sim replay  rec.dla [options]
 *   delorean_sim inspect rec.dla
 *   delorean_sim compare <app> [options]        # RC vs SC vs modes
 *
 * Options:
 *   --mode order-and-size|order-only|order-only-strat|picolog
 *                    (default order-only)
 *   --procs N        processor count        (default 8)
 *   --chunk N        standard chunk size    (default per mode)
 *   --scale P        iterations percent     (default 50)
 *   --seed S         workload seed          (default 1)
 *   --env S          environment seed       (default 1)
 *   --stratify N     chunks/proc/stratum for order-only-strat
 *                    (default 4)
 *   --perturb        enable replay perturbation
 *   --checkpoint-period N   system checkpoint every N global commits
 *   -o FILE                 save the recording: a `.dla` archive, one
 *                           segment per checkpoint interval (one
 *                           segment without checkpoints)
 *   --ring-out DIR          stream into a ring archive directory while
 *                           recording (always-on recorder); implies
 *                           --checkpoint-period 50 if unset
 *   --ring-budget BYTES     ring disk budget (default 4 MiB)
 *   --io-threads N   archive segment codec pool size
 *                    (default: DELOREAN_JOBS, else hw concurrency)
 *
 * Numeric options take a decimal number that fits the option's type;
 * anything else (a sign, a value past the type's range, or a flag the
 * command does not know) prints the usage and exits 2.
 *
 * replay/inspect accept a recording's `.dla` or a ring directory
 * (detected by ring.meta), reassembled via readAll() — a ring must be
 * cleanly closed with nothing evicted for that. Time-travel into a
 * partial ring window lives in replay_check (--ring --at).
 * --io-threads never changes the bytes written or read — container
 * output is byte-identical at any setting.
 */

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>

#include "core/delorean.hpp"
#include "core/serialize.hpp"
#include "sim/campaign.hpp"
#include "store/archive.hpp"
#include "store/ring.hpp"

using namespace delorean;

namespace
{

struct Args
{
    std::string command;
    std::string app = "barnes";
    std::string file;
    std::string mode = "order-only";
    unsigned procs = 8;
    InstrCount chunk = 0;
    unsigned scale = 50;
    std::uint64_t seed = 1;
    std::uint64_t env = 1;
    unsigned stratify = 4;
    bool perturb = false;
    std::string ringDir;
    std::uint64_t ringBudget = 0;
    std::uint64_t checkpointPeriod = 0;
    ArchiveIoOptions archiveIo;
};

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: delorean_sim record <app> [--mode M] [--procs N]"
                 " [--chunk N] [--scale P] [--seed S] [--env S]"
                 " [--stratify N] [--checkpoint-period N]"
                 " [-o FILE]"
                 " [--ring-out DIR [--ring-budget BYTES]]"
                 " [--io-threads N]\n"
                 "       delorean_sim replay <FILE> [--env S] [--perturb]"
                 " [--io-threads N]\n"
                 "       delorean_sim inspect <FILE> [--io-threads N]\n"
                 "       delorean_sim compare <app> [--procs N] [--scale P]\n"
                 "modes: order-and-size order-only order-only-strat picolog\n"
                 "apps: ");
    for (const auto &name : AppTable::allNames())
        std::fprintf(stderr, "%s ", name.c_str());
    std::fprintf(stderr, "\n");
    std::exit(2);
}

ModeConfig
modeFor(const Args &args)
{
    ModeConfig mode;
    if (!parseModeConfig(args.mode, args.stratify, mode)) {
        std::fprintf(stderr, "delorean_sim: unknown mode \"%s\"\n",
                     args.mode.c_str());
        usage();
    }
    if (args.chunk)
        mode.chunkSize = args.chunk;
    return mode;
}

Args
parse(int argc, char **argv)
{
    if (argc < 3)
        usage();
    Args args;
    args.command = argv[1];
    if (args.command == "record" || args.command == "compare")
        args.app = argv[2];
    else
        args.file = argv[2];
    for (int i = 3; i < argc; ++i) {
        const std::string flag = argv[i];
        auto next = [&]() -> const char * {
            if (++i >= argc)
                usage();
            return argv[i];
        };
        // A numeric value: decimal digits that fit the option's type,
        // else the usage exit.
        auto number = [&]<typename T>(T &out) {
            const char *v = next();
            const std::optional<std::uint64_t> n =
                parseCount(v, std::numeric_limits<T>::max());
            if (!n) {
                std::fprintf(stderr,
                             "delorean_sim: %s needs a number, got "
                             "\"%s\" (at most %llu)\n",
                             flag.c_str(), v,
                             static_cast<unsigned long long>(
                                 std::numeric_limits<T>::max()));
                usage();
            }
            out = static_cast<T>(*n);
        };
        if (flag == "--mode")
            args.mode = next();
        else if (flag == "--procs")
            number(args.procs);
        else if (flag == "--chunk")
            number(args.chunk);
        else if (flag == "--scale")
            number(args.scale);
        else if (flag == "--seed")
            number(args.seed);
        else if (flag == "--env")
            number(args.env);
        else if (flag == "--stratify")
            number(args.stratify);
        else if (flag == "-o")
            args.file = next();
        else if (flag == "--ring-out")
            args.ringDir = next();
        else if (flag == "--ring-budget")
            number(args.ringBudget);
        else if (flag == "--checkpoint-period")
            number(args.checkpointPeriod);
        else if (flag == "--perturb")
            args.perturb = true;
        else if (flag == "--io-threads") {
            const char *v = next();
            const std::optional<std::uint64_t> n =
                parseCount(v, kMaxThreadCount);
            if (!n) {
                std::fprintf(stderr,
                             "delorean_sim: --io-threads needs a count "
                             "of at most %u, got \"%s\"\n",
                             kMaxThreadCount, v);
                usage();
            }
            args.archiveIo.ioThreads = static_cast<unsigned>(*n);
        }
        else {
            std::fprintf(stderr, "delorean_sim: unknown option \"%s\"\n",
                         flag.c_str());
            usage();
        }
    }
    return args;
}

void
printStats(const EngineStats &stats)
{
    std::printf("  cycles:           %llu\n",
                static_cast<unsigned long long>(stats.totalCycles));
    std::printf("  retired instrs:   %llu (executed %llu)\n",
                static_cast<unsigned long long>(stats.retiredInstrs),
                static_cast<unsigned long long>(stats.executedInstrs));
    std::printf("  chunk commits:    %llu\n",
                static_cast<unsigned long long>(stats.committedChunks));
    std::printf("  squashes:         %llu\n",
                static_cast<unsigned long long>(stats.squashes));
    std::printf("  truncations:      %llu overflow, %llu collision, "
                "%llu hard\n",
                static_cast<unsigned long long>(
                    stats.overflowTruncations),
                static_cast<unsigned long long>(
                    stats.collisionTruncations),
                static_cast<unsigned long long>(stats.hardTruncations));
    std::printf("  stall fraction:   %.2f%%\n",
                100.0 * stats.stallFraction());
}

int
cmdRecord(const Args &args)
{
    const ModeConfig mode = modeFor(args);
    MachineConfig machine;
    machine.numProcs = args.procs;
    Workload workload(args.app, args.procs, args.seed,
                      WorkloadScale{args.scale});
    // A ring needs checkpoints to cut segments at; default a period
    // when the user asked for one but no cadence.
    std::uint64_t period = args.checkpointPeriod;
    if (!args.ringDir.empty() && period == 0)
        period = 50;

    // The ring writer runs *during* the recording: its onCheckpoint
    // feed cuts, compresses and evicts segments while the engine is
    // still committing chunks. Infeasible knob combinations are
    // rejected here, before any simulation work.
    std::unique_ptr<RingArchiveWriter> ring;
    if (!args.ringDir.empty()) {
        RingOptions ropts;
        if (args.ringBudget)
            ropts.budgetBytes = args.ringBudget;
        ropts.checkpointPeriod = period;
        ropts.io = args.archiveIo;
        ring = std::make_unique<RingArchiveWriter>(args.ringDir, ropts);
    }
    std::function<void(const Recording &)> hook;
    if (ring)
        hook = [&ring](const Recording &r) { ring->onCheckpoint(r); };

    Recorder recorder(mode, machine);
    const Recording rec =
        recorder.record(workload, args.env, true, {}, period, hook);

    std::printf("recorded %s in %s mode:\n", args.app.c_str(),
                modeConfigName(rec.mode));
    printStats(rec.stats);
    const LogSizeReport sizes = rec.logSizes();
    std::printf("  ordering log:     %.3f bits/proc/kilo-inst "
                "(%.3f compressed)\n",
                sizes.bitsPerProcPerKiloInstr(false),
                sizes.bitsPerProcPerKiloInstr(true));
    if (period) {
        std::printf("  checkpoints:      %zu (every %llu commits)\n",
                    rec.checkpoints.size(),
                    static_cast<unsigned long long>(period));
        std::size_t keyframes = 0;
        std::size_t image_bytes = 0;
        for (const SystemCheckpoint &ckpt : rec.checkpoints) {
            keyframes += ckpt.memory.headsChain() ? 1 : 0;
            image_bytes += ckpt.memory.heldBytes();
        }
        std::printf("  checkpoint images: %zu keyframe(s), %zu delta(s), "
                    "%zu bytes held in RAM\n",
                    keyframes, rec.checkpoints.size() - keyframes,
                    image_bytes);
    }
    if (!args.file.empty()) {
        saveRecordingFile(rec, args.file, args.archiveIo);
        std::printf("  saved to:         %s (%zu segments)\n",
                    args.file.c_str(), rec.checkpoints.size() + 1);
    }
    if (ring) {
        ring->close(rec);
        const RingWriterStats rs = ring->stats();
        std::printf("  ring:             %s (%llu cut, %llu evicted, "
                    "%llu live bytes, worst start lag %llu)\n",
                    args.ringDir.c_str(),
                    static_cast<unsigned long long>(rs.segmentsCut),
                    static_cast<unsigned long long>(
                        rs.segmentsEvicted),
                    static_cast<unsigned long long>(rs.liveBytes),
                    static_cast<unsigned long long>(rs.worstStartLag));
    }
    return 0;
}

/**
 * Loads a ring directory (by ring.meta) or a recording's `.dla`. A
 * ring must be cleanly closed with nothing evicted for readAll();
 * anything else raises the reader's typed error.
 */
Recording
loadAny(const std::string &path, const ArchiveIoOptions &io)
{
    if (RingArchiveReader::looksLikeRing(path))
        return RingArchiveReader::open(path, io).readAll();
    return ArchiveReader::fromFile(path, io).readAll();
}

int
cmdReplay(const Args &args)
{
    const Recording rec = loadAny(args.file, args.archiveIo);
    std::printf("replaying %s (%s, %u procs, seed %llu)...\n",
                rec.appName.c_str(), modeConfigName(rec.mode),
                rec.machine.numProcs,
                static_cast<unsigned long long>(rec.workloadSeed));
    ReplayPerturbation perturb;
    perturb.enabled = args.perturb;
    perturb.seed = args.env ^ 0xDEAD;
    const ReplayOutcome out = Replayer().replay(rec, args.env, perturb);
    printStats(out.stats);
    std::printf("  deterministic:    %s\n",
                out.deterministicExact
                    ? "yes (exact interleaving)"
                    : (out.deterministicPerProc ? "per-processor"
                                                : "NO — DIVERGED"));
    return out.deterministicPerProc ? 0 : 1;
}

int
cmdInspect(const Args &args)
{
    const Recording rec = loadAny(args.file, args.archiveIo);
    std::printf("recording: %s, %s mode, %u procs, chunk %llu, "
                "workload seed %llu\n",
                rec.appName.c_str(), modeConfigName(rec.mode),
                rec.machine.numProcs,
                static_cast<unsigned long long>(rec.mode.chunkSize),
                static_cast<unsigned long long>(rec.workloadSeed));
    printStats(rec.stats);
    std::size_t cs_entries = 0;
    for (const auto &log : rec.cs)
        cs_entries += log.entryCount();
    std::printf("  PI entries:       %zu (%zu strata)\n",
                rec.pi.entryCount(), rec.strata.size());
    std::printf("  CS entries:       %zu\n", cs_entries);
    std::printf("  interrupts:       %zu\n",
                rec.interrupts.totalEntries());
    std::printf("  I/O loads:        %zu\n", rec.io.totalEntries());
    std::printf("  DMA transfers:    %zu\n", rec.dma.count());
    std::printf("  checkpoints:      %zu\n", rec.checkpoints.size());
    std::printf("  first commits:    ");
    for (std::size_t i = 0; i < 16 && i < rec.pi.entryCount(); ++i) {
        const ProcId p = rec.pi.entryAt(i);
        if (p == kDmaProcId)
            std::printf("DMA ");
        else
            std::printf("P%u ", p);
    }
    std::printf("...\n");
    return 0;
}

int
cmdCompare(const Args &args)
{
    MachineConfig machine;
    machine.numProcs = args.procs;
    Workload workload(args.app, args.procs, args.seed,
                      WorkloadScale{args.scale});

    InterleavedExecutor rc(machine, ConsistencyModel::kRC);
    InterleavedExecutor sc(machine, ConsistencyModel::kSC);
    const double rc_cycles =
        static_cast<double>(rc.run(workload, args.env).cycles);
    const double sc_cycles =
        static_cast<double>(sc.run(workload, args.env).cycles);

    std::printf("%s on %u procs (speedup vs RC):\n", args.app.c_str(),
                args.procs);
    std::printf("  %-16s %6.2f\n", "RC", 1.0);
    std::printf("  %-16s %6.2f\n", "SC", rc_cycles / sc_cycles);
    for (const ModeConfig mode :
         {ModeConfig::orderAndSize(), ModeConfig::orderOnly(),
          ModeConfig::picoLog()}) {
        Recorder recorder(mode, machine);
        const Recording rec = recorder.record(workload, args.env);
        std::printf("  %-16s %6.2f  (log %.3f bits/proc/kilo-inst)\n",
                    modeConfigName(mode),
                    rc_cycles
                        / static_cast<double>(rec.stats.totalCycles),
                    rec.logSizes().bitsPerProcPerKiloInstr(true));
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parse(argc, argv);
    try {
        if (args.command == "record")
            return cmdRecord(args);
        if (args.command == "replay")
            return cmdReplay(args);
        if (args.command == "inspect")
            return cmdInspect(args);
        if (args.command == "compare")
            return cmdCompare(args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    usage();
}
