/**
 * @file
 * Bucketed statistics: the log2 distribution.
 */

#ifndef AQSIM_STATS_HISTOGRAM_HH
#define AQSIM_STATS_HISTOGRAM_HH

#include <cstdint>
#include <vector>

#include "stats/stats.hh"

namespace aqsim::stats
{

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
