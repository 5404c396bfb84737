/**
 * @file
 * Bucketed statistics: linear histogram and log2 distribution.
 */

#ifndef AQSIM_STATS_HISTOGRAM_HH
#define AQSIM_STATS_HISTOGRAM_HH

#include <cstdint>
#include <vector>

#include "stats/stats.hh"

namespace aqsim::stats
{

/**
 * Fixed-width linear histogram over [lo, hi); samples outside the range
 * land in underflow/overflow buckets.
 */
class Histogram : public Stat
{
  public:
    Histogram(const char *name, const char *desc, double lo, double hi,
              std::size_t buckets);

    void sample(double v);

    double lo() const { return lo_; }
    double hi() const { return hi_; }
    std::size_t numBuckets() const { return counts_.size(); }
    std::uint64_t bucketCount(std::size_t i) const { return counts_[i]; }
    std::uint64_t underflow() const { return underflow_; }
    std::uint64_t overflow() const { return overflow_; }
    std::uint64_t totalSamples() const { return total_; }
    double mean() const { return total_ ? sum_ / total_ : 0.0; }

    std::vector<std::pair<std::string, double>> rows() const override;
    void reset() override;

  private:
    double lo_;
    double hi_;
    double width_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t total_ = 0;
    double sum_ = 0.0;
};

/**
 * Power-of-two bucketed distribution for wide-dynamic-range values
 * (message sizes, straggler lateness in ticks). Bucket i counts samples
 * in [2^i, 2^(i+1)); bucket 0 additionally holds [0, 2).
 */
class Log2Distribution : public Stat
{
  public:
    Log2Distribution(const char *name, const char *desc);

    void sample(std::uint64_t v);

    std::uint64_t totalSamples() const { return total_; }
    double mean() const { return total_ ? sum_ / total_ : 0.0; }
    std::uint64_t maxValue() const { return max_; }

    /** Count of samples in bucket i ([2^i, 2^(i+1))). */
    std::uint64_t bucketCount(std::size_t i) const;
    std::size_t numBuckets() const { return counts_.size(); }

    std::vector<std::pair<std::string, double>> rows() const override;
    void reset() override;

  private:
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
    std::uint64_t max_ = 0;
    double sum_ = 0.0;
};

} // namespace aqsim::stats

#endif // AQSIM_STATS_HISTOGRAM_HH
