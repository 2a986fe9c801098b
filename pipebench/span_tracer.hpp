/**
 * @file
 * Layer spans for the pipeline benchmark, recorded from outside the
 * library: every call the benchmark makes into a DeLorean layer is
 * wrapped in a Span named after that layer. A span's self time is its
 * duration minus the time its child spans cover, so the self times of
 * one operation's spans add up to the operation's wall time up to the
 * benchmark's own glue between calls.
 *
 * Spans are aggregated per layer in memory (total self time and how
 * many operations touched the layer) and read out when the run ends.
 * The tracer is single-threaded: spans open only on the benchmark's
 * thread, which is the recording thread, the replay coordinator and
 * the thread that runs observer callbacks. A null tracer makes every
 * Span a no-op.
 */

#ifndef PIPEBENCH_SPAN_TRACER_HPP_
#define PIPEBENCH_SPAN_TRACER_HPP_

#include <chrono>
#include <cstdint>
#include <ctime>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace pipebench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * CPU seconds every thread of this process has run so far. Time the
 * hypervisor gives other guests (steal) and time spent waiting are not
 * in it, so on a shared host it moves far less from run to run than
 * wall time does.
 */
inline double
processCpuSeconds()
{
    timespec ts;
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

/** Wall and process CPU seconds of one timed operation. */
struct OpTime
{
    double wall = 0.0;
    double cpu = 0.0;
};

/** Starts both clocks on construction; stop() reads them. */
class OpTimer
{
  public:
    OpTime
    stop() const
    {
        return {secondsSince(wallStart_), processCpuSeconds() - cpuStart_};
    }

  private:
    Clock::time_point wallStart_ = Clock::now();
    double cpuStart_ = processCpuSeconds();
};

/** Everything the tracer knows about one layer. */
struct LayerTotals
{
    double selfSeconds = 0.0;
    /// Operations (SpanTracer::beginOp .. endOp) with >= 1 such span.
    std::uint64_t ops = 0;
};

class SpanTracer
{
  public:
    void
    enter()
    {
        stack_.push_back(Frame{Clock::now(), 0.0});
    }

    void
    leave(const std::string &layer)
    {
        const Frame frame = stack_.back();
        stack_.pop_back();
        const double duration = secondsSince(frame.start);
        LayerTotals &totals = layers_[layer];
        totals.selfSeconds += duration - frame.childSeconds;
        touched_.insert(layer);
        if (stack_.empty())
            topLevelSeconds_ += duration;
        else
            stack_.back().childSeconds += duration;
    }

    /** Start attributing spans to a new operation. */
    void beginOp() { touched_.clear(); }

    void
    endOp()
    {
        for (const std::string &layer : touched_)
            ++layers_[layer].ops;
        touched_.clear();
    }

    /** Self seconds of @p layer per operation that touched it. */
    double
    selfPerOp(const std::string &layer) const
    {
        const auto it = layers_.find(layer);
        return it == layers_.end() || it->second.ops == 0
                   ? 0.0
                   : it->second.selfSeconds
                         / static_cast<double>(it->second.ops);
    }

    const std::map<std::string, LayerTotals> &layers() const
    {
        return layers_;
    }

    /** Sum of all layer self times (== sum of top-level spans). */
    double topLevelSeconds() const { return topLevelSeconds_; }

  private:
    struct Frame
    {
        Clock::time_point start;
        double childSeconds;
    };

    std::vector<Frame> stack_;
    std::map<std::string, LayerTotals> layers_;
    std::set<std::string> touched_;
    double topLevelSeconds_ = 0.0;
};

/** Scoped span around one call into a layer; no-op without a tracer. */
class Span
{
  public:
    Span(SpanTracer *tracer, const char *layer)
        : tracer_(tracer), layer_(layer)
    {
        if (tracer_)
            tracer_->enter();
    }

    ~Span()
    {
        if (tracer_)
            tracer_->leave(layer_);
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanTracer *tracer_;
    const char *layer_;
};

} // namespace pipebench

#endif // PIPEBENCH_SPAN_TRACER_HPP_
