/**
 * @file
 * pipebench: the repository benchmark. It drives DeLorean's whole
 * pipeline (record, persist to a .dla archive or an evicting ring,
 * seek, then serial / chunk-parallel replay and race detection) as one
 * closed-loop client, times every call into a layer from outside, and
 * checks every output.
 *
 *   pipebench --workload <record-durable|time-travel|race-hunt>
 *             --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
 *             [--tiny] [--scale PCT] [--period N] [--ring-budget BYTES]
 *
 * Each workload has a primary operation that dominates its time
 * (record into a durable container, seek into one, or replay and
 * analyze) plus a small probe of the other two operations on a fixed
 * seeded-race input, so every workload reports every end-to-end metric.
 * See README.md beside this file for the workload rationale and the
 * layer -> metric map.
 *
 * With --trace 0 the last stdout line is a JSON object carrying the
 * end-to-end metrics; with --trace 1 it carries the per-layer metrics,
 * taken from rounds that run with spans on, alternating with rounds
 * that run with spans off so the tracing overhead can be printed.
 * End-to-end timings are process CPU seconds, which a shared host's
 * steal time does not inflate; spans and the layer coverage they are
 * checked against use wall time.
 * Exit status: 0 all checks passed, 1 a check failed (the result line
 * says "correct": false), 2 bad arguments or a failed set-up (no
 * result line).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sched.h>
#include <sys/resource.h>

#include "analysis/race_detector.hpp"
#include "common/rng.hpp"
#include "core/recorder.hpp"
#include "core/replay_observer.hpp"
#include "core/serialize.hpp"
#include "sim/parallel_replay.hpp"
#include "span_tracer.hpp"
#include "store/archive.hpp"
#include "store/ring.hpp"
#include "trace/app_profile.hpp"
#include "trace/workload.hpp"
#include "validate/replay_check.hpp"

using namespace delorean;
using pipebench::Clock;
using pipebench::OpTime;
using pipebench::OpTimer;
using pipebench::secondsSince;
using pipebench::Span;
using pipebench::SpanTracer;

namespace
{

// Architectural inputs are fixed so every simulated count is the same
// for any benchmark seed; the seed only orders the work and picks the
// seek targets.
constexpr std::uint64_t kWorkloadSeed = 1;
constexpr std::uint64_t kRecordEnvSeed = 1;
constexpr std::uint64_t kReplayEnvSeed = 99;

/**
 * Input sizes (scales are WorkloadScale percentages, periods are
 * commits between checkpoints); --tiny shrinks them for the metric
 * self-check, and --scale / --period / --ring-budget override the
 * primary operation's input for sizing studies. README.md ("Input
 * sizes") gives the measured layer shares each size was chosen from.
 */
struct Sizing
{
    unsigned durableScale = 15;
    std::uint64_t durablePeriod = 25;
    std::uint64_t durableRingBudget = 8u << 20;
    unsigned travelScale = 6;
    std::uint64_t travelPeriod = 50;
    std::uint64_t travelRingBudget = 1u << 20;
    unsigned travelSeeksPerRound = 30;
    unsigned huntScale = 20;
    unsigned probeScale = 5;
    std::uint64_t probePeriod = 10;
    std::uint64_t probeRingBudget = 384u << 10;
    unsigned probeSeeksPerRound = 48;
    unsigned setupRepeats = 3;

    static Sizing
    tiny()
    {
        Sizing s;
        s.durableScale = 2;
        s.durablePeriod = 10;
        s.durableRingBudget = 64u << 10;
        s.travelScale = 3;
        s.travelPeriod = 10;
        s.travelRingBudget = 256u << 10;
        s.travelSeeksPerRound = 4;
        s.huntScale = 3;
        s.probeScale = 3;
        s.probePeriod = 5;
        s.probeRingBudget = 192u << 10;
        s.probeSeeksPerRound = 4;
        s.setupRepeats = 2;
        return s;
    }
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    bool tiny = false;
    unsigned scale = 0;           ///< 0: Sizing default
    std::uint64_t period = 0;     ///< 0: Sizing default
    std::uint64_t ringBudget = 0; ///< 0: Sizing default
    std::string workDir;
};

/**
 * Threads the benchmark lets the library run, derived from the CPUs
 * this process may use. Busy threads stay one below that count (never
 * below two for a record), so a stray system thread does not stall a
 * pool wave: a record runs the recording thread plus a writer's
 * flusher, which joins its codec pool (recordIo threads in all);
 * readers and the parallel replayer run their pool with the calling
 * thread taking part.
 */
struct ThreadBudget
{
    unsigned cpus = 1;
    unsigned recordIo = 1;
    unsigned readIo = 1;
    unsigned replayJobs = 1;
};

unsigned
usableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return static_cast<unsigned>(CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

const char *
modeName(ExecMode mode)
{
    switch (mode) {
    case ExecMode::kOrderAndSize:
        return "order_size";
    case ExecMode::kOrderOnly:
        return "order_only";
    case ExecMode::kPicoLog:
        return "picolog";
    }
    return "?";
}

ModeConfig
modeConfig(ExecMode mode)
{
    switch (mode) {
    case ExecMode::kOrderAndSize:
        return ModeConfig::orderAndSize();
    case ExecMode::kOrderOnly:
        return ModeConfig::orderOnly();
    case ExecMode::kPicoLog:
        return ModeConfig::picoLog();
    }
    return ModeConfig::orderOnly();
}

constexpr ExecMode kAllModes[] = {ExecMode::kOrderAndSize,
                                  ExecMode::kOrderOnly, ExecMode::kPicoLog};

/** One recorded execution: application, mode, size, checkpointing. */
struct RunSpec
{
    std::string app;
    ExecMode mode = ExecMode::kOrderOnly;
    unsigned scale = 10;
    std::uint64_t period = 0; ///< checkpoint period; 0 = none

    std::string
    key() const
    {
        return app + "/" + modeName(mode) + "/s" + std::to_string(scale)
               + "/p" + std::to_string(period);
    }
};

enum class Container
{
    kArchive,
    kRing,
};

const char *
containerName(Container c)
{
    return c == Container::kArchive ? "dla" : "ring";
}

/** A persisted recording the benchmark seeks into. */
struct SeekTarget
{
    Container container = Container::kArchive;
    std::string path; ///< .dla file or ring directory
    std::uint64_t period = 0;
    /// Seekable checkpoint GCCs, ascending (the retained window for
    /// a ring).
    std::vector<std::uint64_t> gccs;
    /// Checkpoint indices still to be drawn as seek starts. Seeks deal
    /// every checkpoint once per shuffled deck, so each run sees the
    /// same mix of intervals whatever the seed.
    std::vector<std::size_t> deck;
};

/** A recording held in memory for replay, with what it must yield. */
struct ReplayInput
{
    RunSpec spec;
    const Workload *workload = nullptr;
    Recording rec;
    std::vector<std::uint64_t> manifest; ///< seeded race words
};

// ---- statistics ------------------------------------------------------

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
median(const std::vector<double> &v)
{
    return quantile(v, 0.5);
}

/**
 * Samples of one timed quantity over heterogeneous inputs (cells).
 * Reported as the geometric mean of each cell's median (or other
 * quantile), so neither the mix of cells a run happens to finish nor
 * a gap between two cells' distributions moves the figure.
 */
class CellSamples
{
  public:
    void
    add(const std::string &cell, double value)
    {
        cells_[cell].push_back(value);
    }

    /** Geometric mean over cells of each cell's @p q quantile. */
    double
    geomeanOfQuantiles(double q) const
    {
        if (cells_.empty())
            return 0.0;
        double log_sum = 0.0;
        for (const auto &[cell, values] : cells_)
            log_sum += std::log(quantile(values, q));
        return std::exp(log_sum / static_cast<double>(cells_.size()));
    }

    double geomeanOfMedians() const { return geomeanOfQuantiles(0.5); }

    /** Fewest samples any cell holds. */
    std::size_t
    minCellSamples() const
    {
        std::size_t n = cells_.empty() ? 0 : SIZE_MAX;
        for (const auto &[cell, values] : cells_)
            n = std::min(n, values.size());
        return n;
    }

    std::size_t
    samples() const
    {
        std::size_t n = 0;
        for (const auto &[cell, values] : cells_)
            n += values.size();
        return n;
    }

    std::size_t cells() const { return cells_.size(); }

  private:
    std::map<std::string, std::vector<double>> cells_;
};

// ---- deterministic facts ----------------------------------------------

/** Simulated counts of one recording; identical on every re-record. */
struct EngineFacts
{
    std::uint64_t simCycles = 0;
    std::uint64_t generatedInstrs = 0;
    std::uint64_t retiredInstrs = 0;
    std::uint64_t executedInstrs = 0;
    std::uint64_t committedChunks = 0;
    std::uint64_t squashes = 0;
    std::uint64_t checkpoints = 0;
    std::uint64_t stallCycles = 0;
    std::uint64_t summaryRejects = 0;
    std::uint64_t unionSweepSkips = 0;
    std::uint64_t imageWords = 0; ///< sum over checkpoints
    std::uint64_t fingerprintHash = 0;
    double stallFrac = 0.0;

    std::vector<std::uint64_t>
    words() const
    {
        return {simCycles,       generatedInstrs, retiredInstrs,
                executedInstrs,  committedChunks, squashes,
                checkpoints,     stallCycles,     summaryRejects,
                unionSweepSkips, imageWords,      fingerprintHash};
    }

    bool operator==(const EngineFacts &o) const
    {
        return words() == o.words();
    }
};

std::uint64_t
fingerprintHash(const ExecutionFingerprint &fp)
{
    std::uint64_t h = mix64(fp.finalMemHash ^ fp.commits.size());
    for (const std::uint64_t acc : fp.perProcAcc)
        h = mix64(h ^ acc);
    for (const InstrCount r : fp.perProcRetired)
        h = mix64(h ^ r);
    for (const CommitRecord &c : fp.commits)
        h = mix64(h ^ (c.accAfter + c.size * 31 + c.proc));
    return h;
}

EngineFacts
engineFacts(const Recording &rec)
{
    EngineFacts f;
    const EngineStats &s = rec.stats;
    f.simCycles = s.totalCycles;
    f.generatedInstrs = s.generatedInstrs;
    f.retiredInstrs = s.retiredInstrs;
    f.executedInstrs = s.executedInstrs;
    f.committedChunks = s.committedChunks;
    f.squashes = s.squashes;
    f.checkpoints = rec.checkpoints.size();
    for (const std::uint64_t c : s.perProcStallCycles)
        f.stallCycles += c;
    f.summaryRejects = s.sigSummaryRejects;
    f.unionSweepSkips = s.unionSweepSkips;
    for (const SystemCheckpoint &ckpt : rec.checkpoints)
        f.imageWords += ckpt.memory.population();
    f.fingerprintHash = fingerprintHash(rec.fingerprint);
    f.stallFrac = s.stallFraction();
    return f;
}

/** Compressed PI + CS bits of one recording (the paper's log size). */
struct LogFacts
{
    std::uint64_t piBits = 0;
    std::uint64_t csBits = 0;
    double kiloInstrs = 0.0;
};

struct ArchiveFacts
{
    std::uint64_t fileBytes = 0;
    std::uint64_t checkpoints = 0;
    std::uint64_t segmentCompBytes = 0;
    std::uint64_t segmentRawBytes = 0;
};

struct RingFacts
{
    RingWriterStats writer;
    std::uint64_t retainedCheckpoints = 0;
};

/** Detector output for one recording (deterministic by contract). */
struct AnalysisFacts
{
    std::uint64_t chunksObserved = 0;
    std::uint64_t accessesChecked = 0;
    std::uint64_t wordsTracked = 0;
    std::uint64_t findings = 0;
    std::uint64_t manifestHits = 0;
    std::uint64_t manifestWords = 0;
    std::uint64_t headStallCycles = 0; ///< serial DES replay
};

std::string
savedBytes(const Recording &rec)
{
    std::ostringstream out(std::ios::binary);
    saveRecording(rec, out);
    return std::move(out).str();
}

/**
 * Forwards every replay event to the wrapped observer inside an
 * "analysis.observer" span, separating the detector's own time from
 * the replayer's.
 */
class TimedObserver : public ReplayObserver
{
  public:
    TimedObserver(ReplayObserver &inner, SpanTracer *tracer)
        : inner_(inner), tracer_(tracer)
    {
    }

    void
    onReplayBegin(const Recording &rec) override
    {
        Span span(tracer_, "analysis.observer");
        inner_.onReplayBegin(rec);
    }

    void
    onChunkRetire(const ChunkObservation &obs) override
    {
        Span span(tracer_, "analysis.observer");
        inner_.onChunkRetire(obs);
    }

    void
    onDmaRetire(const DmaObservation &obs) override
    {
        Span span(tracer_, "analysis.observer");
        inner_.onDmaRetire(obs);
    }

    void
    onReplayEnd() override
    {
        Span span(tracer_, "analysis.observer");
        inner_.onReplayEnd();
    }

  private:
    ReplayObserver &inner_;
    SpanTracer *tracer_;
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

// ---- the benchmark ------------------------------------------------------

class PipelineBench
{
  public:
    PipelineBench(const Options &opts, const ThreadBudget &budget)
        : opts_(opts), sizing_(opts.tiny ? Sizing::tiny() : Sizing{}),
          budget_(budget), rng_(opts.seed)
    {
        const bool durable = opts.workload == "record-durable";
        const bool travel = opts.workload == "time-travel";
        if (opts.scale)
            (durable  ? sizing_.durableScale
             : travel ? sizing_.travelScale
                      : sizing_.huntScale) = opts.scale;
        if (opts.period)
            (durable ? sizing_.durablePeriod : sizing_.travelPeriod) =
                opts.period;
        if (opts.ringBudget)
            (durable ? sizing_.durableRingBudget
                     : sizing_.travelRingBudget) = opts.ringBudget;
    }

    int run();

  private:
    // Workload set-up (timed as setup_s) and one closed-loop round.
    void setUp();
    void setUpProbe();
    void setUpRecordDurable();
    void setUpTimeTravel();
    void setUpRaceHunt();
    void runRound();

    // The three timed operations.
    void recordOp(const RunSpec &spec, const Workload &workload,
                  Container container, const std::string &path,
                  std::uint64_t ring_budget);
    void seekOp(SeekTarget &target);
    void replayOps(const ReplayInput &input);

    // Helpers.
    const Workload &buildWorkload(const std::string &app, unsigned scale);
    Recording recordInto(const RunSpec &spec, const Workload &workload,
                         Container container, const std::string &path,
                         const RingOptions &ring_opts, OpTime *time,
                         RingWriterStats *ring_stats = nullptr);
    RingOptions ringOptions(std::uint64_t period,
                            std::uint64_t budget) const;
    ArchiveIoOptions readIo() const;
    SeekTarget seekTarget(Container container, const std::string &path,
                          const Recording &rec, std::uint64_t period) const;
    void noteEngineFacts(const RunSpec &spec, const Recording &rec,
                         bool timed);
    bool fail(const std::string &what);
    std::vector<std::size_t> shuffled(std::size_t n);
    template <typename Fn> void attempt(const std::string &what, Fn &&fn);
    void beginOp();
    void endOp(double wall);
    std::string path(const std::string &name) const;

    std::vector<Metric> endToEndMetrics() const;
    std::vector<Metric> perLayerMetrics() const;
    std::string simDigest() const;
    void printSummary() const;

    Options opts_;
    Sizing sizing_;
    ThreadBudget budget_;
    Xoshiro256ss rng_;

    // Set-up products (rebuilt by every set-up repetition).
    std::deque<std::unique_ptr<Workload>> workloads_;
    std::vector<std::pair<RunSpec, const Workload *>> durableRuns_;
    std::vector<SeekTarget> travelTargets_;
    std::vector<SeekTarget> probeTargets_;
    std::vector<ReplayInput> huntInputs_;
    std::vector<std::pair<RunSpec, const Workload *>> probeRuns_;
    std::vector<ReplayInput> probeInputs_;

    // Tracing: tracer_ points at spans_ only during traced rounds.
    SpanTracer spans_;
    SpanTracer *tracer_ = nullptr;
    double roundOpWall_ = 0.0;
    double tracedOpWall_ = 0.0;
    std::vector<double> tracedRoundWalls_;
    std::vector<double> untracedRoundWalls_;

    // Samples.
    std::vector<double> setupSeconds_;
    std::vector<double> workloadBuildSeconds_;
    double buildSecondsThisSetup_ = 0.0;
    CellSamples recordMinstrS_;
    CellSamples seekMs_; ///< cells: containers
    CellSamples replayMinstrS_;
    CellSamples parMinstrS_;
    CellSamples raceMinstrS_;
    std::uint64_t seekLagCommits_ = 0;
    std::uint64_t seekRetainedCkpts_ = 0;
    std::uint64_t seeks_ = 0;
    std::uint64_t parRetired_ = 0;
    std::uint64_t parExecuted_ = 0;

    // Deterministic facts, keyed by RunSpec::key().
    std::map<std::string, EngineFacts> allRecordings_; ///< sim_digest
    std::map<std::string, EngineFacts> timedRecordings_;
    std::map<std::string, LogFacts> logFacts_;
    std::map<std::string, ArchiveFacts> archiveFacts_;
    std::map<std::string, RingFacts> ringFacts_;
    std::map<std::string, AnalysisFacts> analysisFacts_;

    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    unsigned rounds_ = 0;
};

std::string
PipelineBench::path(const std::string &name) const
{
    return opts_.workDir + "/" + name;
}

/** 0 .. n-1 in seeded random order. */
std::vector<std::size_t>
PipelineBench::shuffled(std::size_t n)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    for (std::size_t i = n; i > 1; --i)
        std::swap(order[i - 1], order[rng_.below(i)]);
    return order;
}

bool
PipelineBench::fail(const std::string &what)
{
    std::fprintf(stderr, "pipebench: CHECK FAILED: %s\n", what.c_str());
    return false;
}

/**
 * Count one timed operation; @p fn returns false after fail() (or
 * throws) when a check fails.
 */
template <typename Fn>
void
PipelineBench::attempt(const std::string &what, Fn &&fn)
{
    ++attempted_;
    bool ok = false;
    try {
        ok = fn();
    } catch (const std::exception &e) {
        ok = fail(what + ": " + e.what());
    }
    if (!ok)
        ++failed_;
}

void
PipelineBench::beginOp()
{
    if (tracer_)
        tracer_->beginOp();
}

void
PipelineBench::endOp(double wall)
{
    if (tracer_) {
        tracer_->endOp();
        tracedOpWall_ += wall;
    }
    roundOpWall_ += wall;
}

ArchiveIoOptions
PipelineBench::readIo() const
{
    ArchiveIoOptions io;
    io.ioThreads = budget_.readIo;
    return io;
}

RingOptions
PipelineBench::ringOptions(std::uint64_t period, std::uint64_t budget) const
{
    RingOptions ro;
    ro.budgetBytes = budget;
    ro.checkpointPeriod = period;
    ro.io.ioThreads = budget_.recordIo;
    return ro;
}

const Workload &
PipelineBench::buildWorkload(const std::string &app, unsigned scale)
{
    const OpTimer timer;
    workloads_.push_back(std::make_unique<Workload>(
        app, MachineConfig{}.numProcs, kWorkloadSeed,
        WorkloadScale{scale}));
    buildSecondsThisSetup_ += timer.stop().cpu;
    return *workloads_.back();
}

void
PipelineBench::noteEngineFacts(const RunSpec &spec, const Recording &rec,
                               bool timed)
{
    const EngineFacts facts = engineFacts(rec);
    const auto [it, inserted] = allRecordings_.emplace(spec.key(), facts);
    if (!inserted && !(it->second == facts))
        throw std::runtime_error("re-recording " + spec.key()
                                 + " changed its simulated counts");
    if (timed)
        timedRecordings_.emplace(spec.key(), facts);
    if (!logFacts_.count(spec.key())) {
        const LogSizeReport sizes = rec.logSizes();
        LogFacts lf;
        lf.piBits = sizes.pi.compressedBits;
        lf.csBits = sizes.cs.compressedBits;
        lf.kiloInstrs = static_cast<double>(sizes.retiredInstrs) / 1000.0;
        logFacts_.emplace(spec.key(), lf);
    }
}

/**
 * Record @p spec, streaming every checkpoint through the writer hook
 * into a fresh container, and close the writer. @p time gets the
 * wall and CPU time from before the output is opened and the writer
 * constructed until the writer is closed and destroyed (its threads
 * joined, the output flushed and closed). The writer's set-up and
 * teardown count into its close span, so the spans cover the whole
 * wall. @p ring_stats, when given, gets a ring writer's counters.
 */
Recording
PipelineBench::recordInto(const RunSpec &spec, const Workload &workload,
                          Container container, const std::string &path,
                          const RingOptions &ring_opts, OpTime *time,
                          RingWriterStats *ring_stats)
{
    Recording rec;
    const OpTimer timer;
    if (container == Container::kArchive) {
        std::ofstream out;
        std::optional<StreamingArchiveWriter> writer;
        {
            Span span(tracer_, "store.archive_close");
            out.open(path, std::ios::binary | std::ios::trunc);
            if (!out)
                throw std::runtime_error("cannot create " + path);
            ArchiveIoOptions io;
            io.ioThreads = budget_.recordIo;
            writer.emplace(out, io);
        }
        {
            Span span(tracer_, "core.record");
            rec = Recorder(modeConfig(spec.mode))
                      .record(workload, kRecordEnvSeed, true, {},
                              spec.period, [&](const Recording &r) {
                                  Span hook(tracer_, "store.archive_hook");
                                  writer->onCheckpoint(r);
                              });
        }
        {
            Span span(tracer_, "store.archive_close");
            writer->close(rec);
            writer.reset();
            out.close();
            if (!out)
                throw std::runtime_error("failed to write " + path);
        }
    } else {
        std::optional<RingArchiveWriter> writer;
        {
            Span span(tracer_, "store.ring_close");
            writer.emplace(path, ring_opts);
        }
        {
            Span span(tracer_, "core.record");
            rec = Recorder(modeConfig(spec.mode))
                      .record(workload, kRecordEnvSeed, true, {},
                              spec.period, [&](const Recording &r) {
                                  Span hook(tracer_, "store.ring_hook");
                                  writer->onCheckpoint(r);
                              });
        }
        {
            Span span(tracer_, "store.ring_close");
            writer->close(rec);
            if (ring_stats)
                *ring_stats = writer->stats();
            writer.reset();
        }
    }
    *time = timer.stop();
    return rec;
}

/** Bytes of a .dla file or of every file in a ring directory. */
std::uint64_t
containerBytes(const std::string &path)
{
    if (!std::filesystem::is_directory(path))
        return std::filesystem::file_size(path);
    std::uint64_t bytes = 0;
    for (const auto &entry : std::filesystem::directory_iterator(path))
        bytes += entry.file_size();
    return bytes;
}

SeekTarget
PipelineBench::seekTarget(Container container, const std::string &path,
                          const Recording &rec, std::uint64_t period) const
{
    SeekTarget t;
    t.container = container;
    t.path = path;
    t.period = period;
    if (container == Container::kArchive) {
        for (const SystemCheckpoint &c : rec.checkpoints)
            t.gccs.push_back(c.gcc);
    } else {
        t.gccs = RingArchiveReader::open(path, readIo()).checkpointGccs();
    }
    if (t.gccs.size() < 2)
        throw std::runtime_error(
            path + " holds " + std::to_string(t.gccs.size()) + " of "
            + std::to_string(rec.checkpoints.size())
            + " checkpoints; seeking needs two");
    return t;
}

// ---- timed operations ------------------------------------------------------

/**
 * record-durable's operation: record @p spec into a .dla or an
 * evicting ring, then check the container (outside the timed span):
 * the archive reads back byte-identical to the in-memory recording;
 * the ring recovers clean and kept its replay-start lag bound.
 */
void
PipelineBench::recordOp(const RunSpec &spec, const Workload &workload,
                        Container container, const std::string &path,
                        std::uint64_t ring_budget)
{
    const std::string what = std::string("record ") + spec.key() + " -> "
                             + containerName(container);
    attempt(what, [&] {
        const RingOptions ropts = ringOptions(spec.period, ring_budget);
        beginOp();
        OpTime time;
        RingWriterStats ring_stats;
        const Recording rec = recordInto(spec, workload, container, path,
                                         ropts, &time, &ring_stats);
        endOp(time.wall);
        recordMinstrS_.add(spec.key() + "/" + containerName(container),
                           static_cast<double>(rec.stats.retiredInstrs)
                               / 1e6 / time.cpu);
        noteEngineFacts(spec, rec, true);

        if (container == Container::kArchive) {
            const ArchiveReader reader =
                ArchiveReader::fromFile(path, readIo());
            if (savedBytes(reader.readAll()) != savedBytes(rec))
                return fail(what + ": readAll differs from the recording");
            ArchiveFacts af;
            af.fileBytes = std::filesystem::file_size(path);
            af.checkpoints = reader.checkpointCount();
            for (const ArchiveSegmentInfo &seg : reader.segments()) {
                af.segmentCompBytes += seg.compBytes;
                af.segmentRawBytes += seg.rawBytes;
            }
            archiveFacts_[spec.key()] = af;
            return af.checkpoints == rec.checkpoints.size()
                   || fail(what + ": checkpoint count differs");
        }
        const RingArchiveReader reader =
            RingArchiveReader::open(path, readIo());
        RingFacts &rf = ringFacts_[spec.key()];
        rf.writer = ring_stats;
        rf.retainedCheckpoints = reader.checkpointCount();
        if (!reader.recovery().clean || !reader.recovery().usedIndex)
            return fail(what + ": ring did not recover clean");
        if (rf.writer.worstStartLag > ropts.resolvedLag())
            return fail(what + ": worstStartLag exceeds T");
        return true;
    });
}

/**
 * time-travel's operation: cold-open the container, resolve the
 * newest checkpoint at or before a seeded target GCC (a seeded offset
 * into the interval after a checkpoint dealt from the deck), read the
 * interval up to the next checkpoint (or the end) and replay it with
 * its fingerprint checked, as `replay_check --ring DIR --at GCC` does.
 */
void
PipelineBench::seekOp(SeekTarget &target)
{
    if (target.deck.empty())
        target.deck = shuffled(target.gccs.size());
    const std::size_t start = target.deck.back();
    target.deck.pop_back();
    const std::uint64_t at =
        target.gccs[start] + rng_.below(target.period);
    const std::string what = std::string("seek ")
                             + containerName(target.container) + " "
                             + target.path + " @" + std::to_string(at);
    attempt(what, [&] {
        std::vector<std::uint64_t> gccs;
        std::size_t from = 0;
        bool replay_ok = false;
        std::string problem;
        // The timed wall runs from before the reader is constructed
        // until the reader and the interval it produced are destroyed.
        // Reader teardown counts into its open span, dropping the
        // interval into store.read_interval.
        beginOp();
        const OpTimer timer;
        {
            ReplayCheckOptions copts;
            copts.startCheckpoint = 0;
            Recording view;
            if (target.container == Container::kArchive) {
                std::optional<ArchiveReader> reader;
                {
                    Span span(tracer_, "store.archive_open");
                    reader.emplace(
                        ArchiveReader::fromFile(target.path, readIo()));
                }
                {
                    Span span(tracer_, "store.read_interval");
                    gccs = reader->checkpointGccs();
                    from = static_cast<std::size_t>(
                               std::upper_bound(gccs.begin(), gccs.end(),
                                                at)
                               - gccs.begin())
                           - 1;
                    view = reader->readInterval(
                        from, from + 1 < gccs.size() ? from + 1
                                                     : ArchiveReader::kToEnd);
                }
                Span span(tracer_, "store.archive_open");
                reader.reset();
            } else {
                std::optional<RingArchiveReader> reader;
                {
                    Span span(tracer_, "store.ring_open");
                    reader.emplace(
                        RingArchiveReader::open(target.path, readIo()));
                }
                {
                    Span span(tracer_, "store.read_interval");
                    gccs = reader->checkpointGccs();
                    from = reader->newestCheckpointAtOrBefore(at);
                    view = reader->readInterval(
                        from, from + 1 < gccs.size()
                                  ? from + 1
                                  : RingArchiveReader::kToEnd);
                }
                Span span(tracer_, "store.ring_open");
                reader.reset();
            }
            copts.stopCheckpoint =
                from + 1 < gccs.size() ? 1 : ReplayCheckOptions::kFullRun;
            {
                Span span(tracer_, "validate.interval_replay");
                const ReplayCheckResult result = checkedReplay(view, copts);
                replay_ok = result.ok;
                if (!replay_ok)
                    problem = result.report.describe();
            }
            Span span(tracer_, "store.read_interval");
            view = Recording();
        }
        const OpTime time = timer.stop();
        endOp(time.wall);
        seekMs_.add(target.path, time.cpu * 1e3);
        if (tracer_) {
            ++seeks_;
            seekLagCommits_ += at - gccs[from];
            seekRetainedCkpts_ += gccs.size();
        }
        if (gccs[from] > at
            || (from + 1 < gccs.size() && gccs[from + 1] <= at))
            return fail(what + ": resolved the wrong checkpoint");
        return replay_ok || fail(what + ": " + problem);
    });
}

/**
 * race-hunt's operations on one recording: a serial DES replay, a
 * chunk-parallel replay, and a chunk-parallel replay with the
 * happens-before race detector attached. Fingerprints must agree and
 * the findings must equal the seeded-race manifest exactly.
 */
void
PipelineBench::replayOps(const ReplayInput &input)
{
    const Recording &rec = input.rec;
    const double minstr = static_cast<double>(rec.stats.retiredInstrs) / 1e6;
    const std::string key = input.spec.key();
    AnalysisFacts &af = analysisFacts_[key];

    attempt("serial replay " + key, [&] {
        beginOp();
        const OpTimer timer;
        ReplayOutcome out;
        {
            Span span(tracer_, "core.replay");
            out = Replayer().replay(rec, *input.workload, kReplayEnvSeed);
        }
        const OpTime time = timer.stop();
        endOp(time.wall);
        replayMinstrS_.add(key, minstr / time.cpu);
        af.headStallCycles = out.stats.replayHeadStallCycles;
        return out.deterministicExact
               || fail("serial replay of " + key + " diverged");
    });

    ParallelReplayOptions popts;
    popts.jobs = budget_.replayJobs;
    attempt("parallel replay " + key, [&] {
        beginOp();
        const OpTimer timer;
        ReplayOutcome out;
        {
            Span span(tracer_, "sim.par_replay");
            out = ParallelReplayer(popts).replay(rec, *input.workload);
        }
        const OpTime time = timer.stop();
        endOp(time.wall);
        parMinstrS_.add(key, minstr / time.cpu);
        if (tracer_) {
            parRetired_ += rec.stats.retiredInstrs;
            parExecuted_ += out.stats.executedInstrs;
        }
        return out.fingerprint.matchesExact(rec.fingerprint)
               || fail("parallel replay of " + key + " diverged");
    });

    attempt("race replay " + key, [&] {
        ReplayOutcome out;
        RaceReport report;
        // The detector lives inside the timed wall; its construction,
        // the report copy and its teardown count as observer time.
        beginOp();
        const OpTimer timer;
        {
            std::optional<RaceDetector> detector;
            {
                Span span(tracer_, "analysis.observer");
                detector.emplace();
            }
            TimedObserver observer(*detector, tracer_);
            ParallelReplayOptions ropts = popts;
            ropts.observer = &observer;
            {
                Span span(tracer_, "sim.race_replay");
                out = ParallelReplayer(ropts).replay(rec, *input.workload);
            }
            Span span(tracer_, "analysis.observer");
            report = detector->report();
            detector.reset();
        }
        const OpTime time = timer.stop();
        endOp(time.wall);
        raceMinstrS_.add(key, minstr / time.cpu);

        std::set<std::uint64_t> found;
        for (const RaceFinding &f : report.findings)
            found.insert(f.word);
        af.chunksObserved = report.chunksObserved;
        af.accessesChecked = report.accessesChecked;
        af.wordsTracked = report.wordsTracked;
        af.findings = report.findings.size();
        af.manifestWords = input.manifest.size();
        af.manifestHits = 0;
        for (const std::uint64_t w : input.manifest)
            af.manifestHits += found.count(w);
        if (!out.fingerprint.matchesExact(rec.fingerprint))
            return fail("race replay of " + key + " diverged");
        return (found == std::set<std::uint64_t>(input.manifest.begin(),
                                                 input.manifest.end())
                && report.findings.size() == input.manifest.size())
               || fail("race findings of " + key
                       + " differ from the seeded manifest");
    });
}

// ---- set-up --------------------------------------------------------------

/**
 * The probe inputs every workload uses for the operations it does not
 * focus on: a small seeded-race app in all three modes, kept in memory
 * (record and replay probes), and its OrderOnly run persisted once to
 * a .dla and an evicting ring (seek probes).
 */
void
PipelineBench::setUpProbe()
{
    const char *app = "fft~r2";
    const Workload &w = buildWorkload(app, sizing_.probeScale);
    for (const ExecMode mode : kAllModes) {
        ReplayInput in;
        in.spec = RunSpec{app, mode, sizing_.probeScale, sizing_.probePeriod};
        in.workload = &w;
        in.rec = Recorder(modeConfig(mode))
                     .record(w, kRecordEnvSeed, true, {}, in.spec.period);
        in.manifest = seededRaceManifest(AppTable::byName(app));
        noteEngineFacts(in.spec, in.rec, false);
        probeRuns_.push_back({in.spec, &w});
        probeInputs_.push_back(std::move(in));
    }
    const RunSpec &spec = probeInputs_[1].spec; // OrderOnly
    const RingOptions ropts =
        ringOptions(spec.period, sizing_.probeRingBudget);
    OpTime time;
    for (const Container c : {Container::kArchive, Container::kRing}) {
        const std::string file =
            path(c == Container::kArchive ? "probe.dla" : "probe-ring");
        const Recording rec = recordInto(spec, w, c, file, ropts, &time);
        noteEngineFacts(spec, rec, false);
        probeTargets_.push_back(seekTarget(c, file, rec, spec.period));
    }
}

/** Workloads for every (app, mode) run; the runs stream at round time. */
void
PipelineBench::setUpRecordDurable()
{
    // ocean has the biggest memory image; sjbb2k carries interrupt,
    // DMA and I/O input logs.
    for (const char *app : {"ocean", "sjbb2k"}) {
        const Workload &w = buildWorkload(app, sizing_.durableScale);
        for (const ExecMode mode : kAllModes)
            durableRuns_.push_back(
                {RunSpec{app, mode, sizing_.durableScale,
                         sizing_.durablePeriod},
                 &w});
    }
}

/** One long run, recorded into a .dla and an evicting ring. */
void
PipelineBench::setUpTimeTravel()
{
    const RunSpec spec{"ocean", ExecMode::kOrderOnly, sizing_.travelScale,
                       sizing_.travelPeriod};
    const Workload &w = buildWorkload(spec.app, spec.scale);
    const RingOptions ropts =
        ringOptions(spec.period, sizing_.travelRingBudget);
    OpTime time;
    const Recording dla_rec = recordInto(spec, w, Container::kArchive,
                                         path("travel.dla"), ropts, &time);
    noteEngineFacts(spec, dla_rec, false);
    const Recording ring_rec = recordInto(
        spec, w, Container::kRing, path("travel-ring"), ropts, &time);
    noteEngineFacts(spec, ring_rec, false);
    travelTargets_.push_back(seekTarget(
        Container::kArchive, path("travel.dla"), dla_rec, spec.period));
    travelTargets_.push_back(seekTarget(
        Container::kRing, path("travel-ring"), ring_rec, spec.period));
}

/** Seeded-race apps plus one stock app, all modes, in memory only. */
void
PipelineBench::setUpRaceHunt()
{
    for (const char *app : {"fft~r4", "radix~r4", "barnes"}) {
        const Workload &w = buildWorkload(app, sizing_.huntScale);
        for (const ExecMode mode : kAllModes) {
            ReplayInput in;
            in.spec = RunSpec{app, mode, sizing_.huntScale, 0};
            in.workload = &w;
            in.rec = Recorder(modeConfig(mode)).record(*in.workload,
                                                       kRecordEnvSeed);
            in.manifest = seededRaceManifest(AppTable::byName(app));
            noteEngineFacts(in.spec, in.rec, false);
            huntInputs_.push_back(std::move(in));
        }
    }
}

void
PipelineBench::setUp()
{
    workloads_.clear();
    durableRuns_.clear();
    travelTargets_.clear();
    probeTargets_.clear();
    huntInputs_.clear();
    probeRuns_.clear();
    probeInputs_.clear();
    buildSecondsThisSetup_ = 0.0;

    const OpTimer timer;
    setUpProbe();
    if (opts_.workload == "record-durable")
        setUpRecordDurable();
    else if (opts_.workload == "time-travel")
        setUpTimeTravel();
    else
        setUpRaceHunt();
    setupSeconds_.push_back(timer.stop().cpu);
    workloadBuildSeconds_.push_back(buildSecondsThisSetup_);
}

// ---- rounds ----------------------------------------------------------------

void
PipelineBench::runRound()
{
    // Every run into both containers, in seeded order.
    const auto records =
        [&](const std::vector<std::pair<RunSpec, const Workload *>> &runs,
            const std::string &name, std::uint64_t ring_budget) {
            std::vector<std::pair<std::size_t, Container>> pass;
            for (std::size_t i = 0; i < runs.size(); ++i)
                for (const Container c :
                     {Container::kArchive, Container::kRing})
                    pass.emplace_back(i, c);
            for (const std::size_t k : shuffled(pass.size())) {
                const auto &[run, c] = pass[k];
                recordOp(runs[run].first, *runs[run].second, c,
                         path(name + (c == Container::kArchive ? ".dla"
                                                               : "-ring")),
                         ring_budget);
            }
        };
    // Alternating containers, starting with a seeded one.
    const auto seeks = [&](std::vector<SeekTarget> &targets,
                           unsigned count) {
        const std::size_t first = rng_.below(targets.size());
        for (unsigned i = 0; i < count; ++i)
            seekOp(targets[(first + i) % targets.size()]);
    };
    const auto replays = [&](const std::vector<ReplayInput> &inputs) {
        for (const std::size_t k : shuffled(inputs.size()))
            replayOps(inputs[k]);
    };

    if (opts_.workload == "record-durable") {
        records(durableRuns_, "durable", sizing_.durableRingBudget);
        seeks(probeTargets_, sizing_.probeSeeksPerRound);
        replays(probeInputs_);
    } else if (opts_.workload == "time-travel") {
        seeks(travelTargets_, sizing_.travelSeeksPerRound);
        records(probeRuns_, "probe-op", sizing_.probeRingBudget);
        replays(probeInputs_);
    } else {
        replays(huntInputs_);
        records(probeRuns_, "probe-op", sizing_.probeRingBudget);
        seeks(probeTargets_, sizing_.probeSeeksPerRound);
    }
}

int
PipelineBench::run()
{
    std::filesystem::create_directories(opts_.workDir);
    std::printf("pipebench: workload %s, seed %llu, %.0f s, trace %d%s\n",
                opts_.workload.c_str(),
                static_cast<unsigned long long>(opts_.seed), opts_.seconds,
                opts_.trace ? 1 : 0, opts_.tiny ? ", tiny inputs" : "");
    std::printf("thread budget: %u cpus; record = 1 recording thread + %u "
                "writer codec threads (flusher included); readers %u "
                "codec threads; parallel replay %u jobs\n",
                budget_.cpus, budget_.recordIo, budget_.readIo,
                budget_.replayJobs);

    try {
        for (unsigned i = 0; i < sizing_.setupRepeats; ++i)
            setUp();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "pipebench: set-up failed: %s\n", e.what());
        return 2;
    }
    for (const auto *targets : {&travelTargets_, &probeTargets_})
        for (const SeekTarget &t : *targets)
            std::printf("seek target %s: %zu seekable checkpoints, gcc "
                        "%llu..%llu, %llu bytes\n",
                        t.path.c_str(), t.gccs.size(),
                        static_cast<unsigned long long>(t.gccs.front()),
                        static_cast<unsigned long long>(t.gccs.back()),
                        static_cast<unsigned long long>(
                            containerBytes(t.path)));

    // Closed loop: whole rounds until the time is up. A traced run
    // alternates rounds with spans on and off, starting with a random
    // one, to measure the tracing overhead.
    bool traced = opts_.trace && rng_.below(2) == 0;
    const unsigned min_rounds = opts_.trace ? 2 : 1;
    const Clock::time_point start = Clock::now();
    while (rounds_ < min_rounds || secondsSince(start) < opts_.seconds) {
        tracer_ = traced ? &spans_ : nullptr;
        roundOpWall_ = 0.0;
        runRound();
        (traced ? tracedRoundWalls_ : untracedRoundWalls_)
            .push_back(roundOpWall_);
        ++rounds_;
        if (opts_.trace)
            traced = !traced;
    }
    tracer_ = nullptr;

    printSummary();

    double coverage = 1.0;
    if (opts_.trace) {
        coverage = tracedOpWall_ > 0
                       ? spans_.topLevelSeconds() / tracedOpWall_
                       : 0.0;
        std::printf("layer coverage: %.4f of %.3f s timed wall in traced "
                    "rounds\n",
                    coverage, tracedOpWall_);
        if (coverage < 0.95)
            fail("layer self times cover less than 95% of the timed wall");
    }
    const bool correct = failed_ == 0 && coverage >= 0.95;

    const std::vector<Metric> metrics =
        opts_.trace ? perLayerMetrics() : endToEndMetrics();
    for (const Metric &m : metrics)
        std::printf("  %-32s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                    metrics[i].unit.c_str());
    std::printf("}}\n");
    std::fflush(stdout);
    return correct ? 0 : 1;
}

// ---- reporting -----------------------------------------------------------

std::string
PipelineBench::simDigest() const
{
    std::uint64_t h = 0x5EED5EEDull;
    for (const auto &[key, facts] : allRecordings_) {
        for (const char c : key)
            h = mix64(h ^ static_cast<unsigned char>(c));
        for (const std::uint64_t w : facts.words())
            h = mix64(h ^ w);
    }
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

void
PipelineBench::printSummary() const
{
    std::printf("rounds: %u; operations: %llu attempted, %llu failed\n",
                rounds_, static_cast<unsigned long long>(attempted_),
                static_cast<unsigned long long>(failed_));
    std::printf("samples: setup %zu, record %zu (%zu cells), seek %zu, "
                "serial replay %zu, parallel replay %zu, race replay %zu "
                "(%zu cells)\n",
                setupSeconds_.size(), recordMinstrS_.samples(),
                recordMinstrS_.cells(), seekMs_.samples(),
                replayMinstrS_.samples(), parMinstrS_.samples(),
                raceMinstrS_.samples(), raceMinstrS_.cells());
    if (seekMs_.minCellSamples() < 200)
        std::printf("note: seek_p95_ms rests on %zu seeks in one "
                    "container; 200 put ten beyond it\n",
                    seekMs_.minCellSamples());
    std::printf("sim_digest: %s (%zu recordings)\n", simDigest().c_str(),
                allRecordings_.size());
    if (opts_.trace && !tracedRoundWalls_.empty()
        && !untracedRoundWalls_.empty()) {
        const double traced = median(tracedRoundWalls_);
        const double untraced = median(untracedRoundWalls_);
        std::printf("trace overhead: %+.4f s per round (%+.2f%%), traced "
                    "median %.4f s vs untraced %.4f s\n",
                    traced - untraced, 100.0 * (traced / untraced - 1.0),
                    traced, untraced);
    }
    if (opts_.trace && tracedOpWall_ > 0) {
        std::printf("layer self time in traced rounds (share of %.3f s "
                    "timed wall):\n",
                    tracedOpWall_);
        for (const auto &[layer, totals] : spans_.layers())
            std::printf("  %-26s %9.4f s %6.2f%%\n", layer.c_str(),
                        totals.selfSeconds,
                        100.0 * totals.selfSeconds / tracedOpWall_);
    }
}

std::vector<Metric>
PipelineBench::endToEndMetrics() const
{
    struct rusage usage;
    getrusage(RUSAGE_SELF, &usage);

    std::uint64_t archive_bytes = 0, archive_ckpts = 0;
    for (const auto &[key, af] : archiveFacts_) {
        archive_bytes += af.fileBytes;
        archive_ckpts += af.checkpoints;
    }
    std::uint64_t ring_bytes = 0, ring_ckpts = 0;
    for (const auto &[key, rf] : ringFacts_) {
        ring_bytes += rf.writer.liveBytes;
        ring_ckpts += rf.retainedCheckpoints;
    }
    double log_bits = 0.0, kilo_instrs = 0.0;
    for (const auto &[key, facts] : timedRecordings_) {
        const LogFacts &lf = logFacts_.at(key);
        log_bits += static_cast<double>(lf.piBits + lf.csBits);
        kilo_instrs += lf.kiloInstrs;
    }
    const auto ratio = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };
    return {
        {"setup_s", median(setupSeconds_), "s"},
        {"peak_rss_mb", static_cast<double>(usage.ru_maxrss) / 1024.0, "MB"},
        {"record_minstr_s", recordMinstrS_.geomeanOfMedians(), "Minstr/s"},
        {"archive_bytes_per_ckpt",
         ratio(static_cast<double>(archive_bytes),
               static_cast<double>(archive_ckpts)),
         "B/ckpt"},
        {"ring_bytes_per_ckpt",
         ratio(static_cast<double>(ring_bytes),
               static_cast<double>(ring_ckpts)),
         "B/ckpt"},
        {"log_bits_per_kinstr", ratio(log_bits, kilo_instrs), "bit/kinstr"},
        {"seek_p50_ms", seekMs_.geomeanOfQuantiles(0.50), "ms"},
        {"seek_p95_ms", seekMs_.geomeanOfQuantiles(0.95), "ms"},
        {"replay_minstr_s", replayMinstrS_.geomeanOfMedians(), "Minstr/s"},
        {"par_replay_minstr_s", parMinstrS_.geomeanOfMedians(), "Minstr/s"},
        {"race_minstr_s", raceMinstrS_.geomeanOfMedians(), "Minstr/s"},
    };
}

std::vector<Metric>
PipelineBench::perLayerMetrics() const
{
    const auto ratio = [](double num, double den) {
        return den > 0 ? num / den : 0.0;
    };
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };

    EngineFacts sum;
    double stall_frac = 0.0;
    for (const auto &[key, f] : timedRecordings_) {
        sum.simCycles += f.simCycles;
        sum.generatedInstrs += f.generatedInstrs;
        sum.retiredInstrs += f.retiredInstrs;
        sum.executedInstrs += f.executedInstrs;
        sum.committedChunks += f.committedChunks;
        sum.squashes += f.squashes;
        sum.checkpoints += f.checkpoints;
        sum.summaryRejects += f.summaryRejects;
        sum.unionSweepSkips += f.unionSweepSkips;
        sum.imageWords += f.imageWords;
        stall_frac += f.stallFrac;
    }
    LogFacts logs;
    for (const auto &[key, f] : timedRecordings_) {
        logs.piBits += logFacts_.at(key).piBits;
        logs.csBits += logFacts_.at(key).csBits;
    }
    ArchiveFacts archive;
    for (const auto &[key, af] : archiveFacts_) {
        archive.fileBytes += af.fileBytes;
        archive.segmentCompBytes += af.segmentCompBytes;
        archive.segmentRawBytes += af.segmentRawBytes;
    }
    RingWriterStats ring;
    for (const auto &[key, rf] : ringFacts_) {
        ring.bytesWritten += rf.writer.bytesWritten;
        ring.segmentsCut += rf.writer.segmentsCut;
        ring.segmentsEvicted += rf.writer.segmentsEvicted;
        ring.budgetOverruns += rf.writer.budgetOverruns;
        ring.worstStartLag =
            std::max(ring.worstStartLag, rf.writer.worstStartLag);
    }
    AnalysisFacts analysis;
    for (const auto &[key, af] : analysisFacts_) {
        analysis.chunksObserved += af.chunksObserved;
        analysis.accessesChecked += af.accessesChecked;
        analysis.wordsTracked += af.wordsTracked;
        analysis.findings += af.findings;
        analysis.manifestHits += af.manifestHits;
        analysis.manifestWords += af.manifestWords;
        analysis.headStallCycles += af.headStallCycles;
    }
    const double traced_rounds = static_cast<double>(tracedRoundWalls_.size());
    const double untraced = median(untracedRoundWalls_);
    const double n_timed = static_cast<double>(timedRecordings_.size());

    return {
        {"trace.workload_build_s", median(workloadBuildSeconds_), "s"},
        {"core.record_self_s", spans_.selfPerOp("core.record"), "s"},
        {"store.archive_hook_s", spans_.selfPerOp("store.archive_hook"), "s"},
        {"store.ring_hook_s", spans_.selfPerOp("store.ring_hook"), "s"},
        {"store.archive_close_s", spans_.selfPerOp("store.archive_close"),
         "s"},
        {"store.ring_close_s", spans_.selfPerOp("store.ring_close"), "s"},
        {"core.useful_instr_ratio",
         ratio(d(sum.retiredInstrs), d(sum.executedInstrs)), "ratio"},
        {"memory.ckpt_image_words",
         ratio(d(sum.imageWords), d(sum.checkpoints)), "words"},
        {"store.archive_segment_bytes", d(archive.segmentCompBytes), "B"},
        {"store.archive_footer_bytes",
         d(archive.fileBytes - archive.segmentCompBytes), "B"},
        {"store.segment_raw_over_comp",
         ratio(d(archive.segmentRawBytes), d(archive.segmentCompBytes)),
         "ratio"},
        {"store.ring_bytes_written", d(ring.bytesWritten), "B"},
        {"store.ring_segments_cut", d(ring.segmentsCut), "count"},
        {"store.ring_segments_evicted", d(ring.segmentsEvicted), "count"},
        {"store.ring_worst_start_lag", d(ring.worstStartLag), "commits"},
        {"store.ring_budget_overruns", d(ring.budgetOverruns), "count"},
        {"core.pi_bits", d(logs.piBits), "bits"},
        {"core.cs_bits", d(logs.csBits), "bits"},
        {"core.sim_cycles", d(sum.simCycles), "cycles"},
        {"core.generated_instrs", d(sum.generatedInstrs), "count"},
        {"core.committed_chunks", d(sum.committedChunks), "count"},
        {"core.squashes", d(sum.squashes), "count"},
        {"core.checkpoints", d(sum.checkpoints), "count"},
        {"core.stall_frac", ratio(stall_frac, n_timed), "ratio"},
        {"signature.summary_rejects", d(sum.summaryRejects), "count"},
        {"signature.union_sweep_skips", d(sum.unionSweepSkips), "count"},
        {"store.archive_open_s", spans_.selfPerOp("store.archive_open"), "s"},
        {"store.ring_open_s", spans_.selfPerOp("store.ring_open"), "s"},
        {"store.read_interval_s", spans_.selfPerOp("store.read_interval"),
         "s"},
        {"validate.interval_replay_s",
         spans_.selfPerOp("validate.interval_replay"), "s"},
        {"store.ckpts_retained", ratio(d(seekRetainedCkpts_), d(seeks_)),
         "count"},
        {"store.seek_lag_commits", ratio(d(seekLagCommits_), d(seeks_)),
         "commits"},
        {"core.replay_s", spans_.selfPerOp("core.replay"), "s"},
        {"core.replay_head_stall_cycles", d(analysis.headStallCycles),
         "cycles"},
        {"sim.par_replay_s", spans_.selfPerOp("sim.par_replay"), "s"},
        {"sim.par_useful_instr_ratio",
         ratio(d(parRetired_), d(parExecuted_)), "ratio"},
        {"sim.race_replay_s", spans_.selfPerOp("sim.race_replay"), "s"},
        {"analysis.observer_self_s", spans_.selfPerOp("analysis.observer"),
         "s"},
        {"analysis.chunks_observed", d(analysis.chunksObserved), "count"},
        {"analysis.accesses_checked", d(analysis.accessesChecked), "count"},
        {"analysis.words_tracked", d(analysis.wordsTracked), "count"},
        {"analysis.findings", d(analysis.findings), "count"},
        {"analysis.manifest_hit_ratio",
         ratio(d(analysis.manifestHits), d(analysis.manifestWords)), "ratio"},
        {"fail_frac", ratio(d(failed_), d(attempted_)), "frac"},
        {"trace.layer_coverage",
         ratio(spans_.topLevelSeconds(), tracedOpWall_), "ratio"},
        {"trace.overhead_frac",
         untraced > 0 && traced_rounds > 0
             ? median(tracedRoundWalls_) / untraced - 1.0
             : 0.0,
         "ratio"},
    };
}

// ---- command line --------------------------------------------------------

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "pipebench: %s\nusage: pipebench --workload "
                 "<record-durable|time-travel|race-hunt> --seed N "
                 "--seconds S --trace 0|1 --work-dir DIR [--tiny] "
                 "[--scale PCT] [--period N] [--ring-budget BYTES]\n",
                 msg);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_dir = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        try {
            if (a == "--workload")
                o.workload = value();
            else if (a == "--seed")
                o.seed = std::stoull(value());
            else if (a == "--seconds")
                o.seconds = std::stod(value());
            else if (a == "--trace")
                o.trace = std::stoi(value()) != 0;
            else if (a == "--work-dir") {
                o.workDir = value();
                have_dir = true;
            } else if (a == "--tiny")
                o.tiny = true;
            else if (a == "--scale")
                o.scale = static_cast<unsigned>(std::stoul(value()));
            else if (a == "--period")
                o.period = std::stoull(value());
            else if (a == "--ring-budget")
                o.ringBudget = std::stoull(value());
            else
                usage(("unknown argument " + a).c_str());
        } catch (const std::logic_error &) {
            usage(("bad value for " + a).c_str());
        }
    }
    if (o.workload != "record-durable" && o.workload != "time-travel"
        && o.workload != "race-hunt")
        usage("unknown or missing --workload");
    if (!have_dir)
        usage("missing --work-dir");
    if (!(o.seconds > 0))
        usage("--seconds must be positive");
    if ((o.period || o.ringBudget) && o.workload == "race-hunt")
        usage("--period and --ring-budget do not apply to race-hunt");
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opts = parseArgs(argc, argv);

    ThreadBudget budget;
    budget.cpus = usableCpus();
    if (budget.cpus < 2) {
        std::fprintf(stderr,
                     "pipebench: %u usable cpu(s); recording needs a "
                     "recording thread plus a writer thread, so the "
                     "benchmark refuses to oversubscribe\n",
                     budget.cpus);
        return 2;
    }
    const unsigned busy = std::max(2u, budget.cpus - 1);
    budget.recordIo = busy - 1;
    budget.readIo = busy;
    budget.replayJobs = busy;

    PipelineBench bench(opts, budget);
    return bench.run();
}
