/**
 * @file
 * Lightweight statistics helpers: running averages and a geometric
 * mean. No global registry; modules own their stats and expose them
 * through accessors.
 */

#ifndef DELOREAN_COMMON_STATS_HPP_
#define DELOREAN_COMMON_STATS_HPP_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

namespace delorean
{

/** Running mean/min/max over a stream of samples. */
class RunningStat
{
  public:
    void
    add(double sample)
    {
        ++count_;
        sum_ += sample;
        min_ = std::min(min_, sample);
        max_ = std::max(max_, sample);
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

    void
    reset()
    {
        count_ = 0;
        sum_ = 0.0;
        min_ = std::numeric_limits<double>::infinity();
        max_ = -std::numeric_limits<double>::infinity();
    }

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/** Geometric mean of a sequence of positive values. */
inline double
geometricMean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

} // namespace delorean

#endif // DELOREAN_COMMON_STATS_HPP_
