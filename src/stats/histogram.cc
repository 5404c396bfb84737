#include "stats/histogram.hh"

#include <bit>
#include <cstdio>

namespace aqsim::stats
{

Log2Distribution::Log2Distribution(const char *name, const char *desc)
    : Stat(name, desc)
{}

void
Log2Distribution::sample(std::uint64_t v)
{
    ++total_;
    sum_ += static_cast<double>(v);
    if (v > max_)
        max_ = v;
    const std::size_t bucket =
        v < 2 ? 0 : static_cast<std::size_t>(std::bit_width(v) - 1);
    if (bucket >= counts_.size())
        counts_.resize(bucket + 1, 0);
    ++counts_[bucket];
}

std::uint64_t
Log2Distribution::bucketCount(std::size_t i) const
{
    return i < counts_.size() ? counts_[i] : 0;
}

std::vector<std::pair<std::string, double>>
Log2Distribution::rows() const
{
    std::vector<std::pair<std::string, double>> out;
    out.emplace_back("samples", static_cast<double>(total_));
    out.emplace_back("mean", mean());
    out.emplace_back("max", static_cast<double>(max_));
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        if (counts_[i] == 0)
            continue;
        char label[64];
        std::snprintf(label, sizeof(label), "[2^%zu,2^%zu)", i, i + 1);
        out.emplace_back(label, static_cast<double>(counts_[i]));
    }
    return out;
}

void
Log2Distribution::reset()
{
    counts_.clear();
    total_ = max_ = 0;
    sum_ = 0.0;
}

} // namespace aqsim::stats
