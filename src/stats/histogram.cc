#include "stats/histogram.hh"

#include <bit>
#include <cstdio>

#include "base/logging.hh"

namespace aqsim::stats
{

Histogram::Histogram(const char *name, const char *desc, double lo,
                     double hi, std::size_t buckets)
    : Stat(name, desc), lo_(lo), hi_(hi),
      width_((hi - lo) / static_cast<double>(buckets)),
      counts_(buckets, 0)
{
    AQSIM_ASSERT(hi > lo && buckets > 0);
}

void
Histogram::sample(double v)
{
    ++total_;
    sum_ += v;
    if (v < lo_) {
        ++underflow_;
    } else if (v >= hi_) {
        ++overflow_;
    } else {
        auto idx = static_cast<std::size_t>((v - lo_) / width_);
        if (idx >= counts_.size())
            idx = counts_.size() - 1; // guards fp rounding at hi_
        ++counts_[idx];
    }
}

std::vector<std::pair<std::string, double>>
Histogram::rows() const
{
    std::vector<std::pair<std::string, double>> out;
    out.emplace_back("samples", static_cast<double>(total_));
    out.emplace_back("mean", mean());
    out.emplace_back("underflow", static_cast<double>(underflow_));
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        char label[64];
        std::snprintf(label, sizeof(label), "[%g,%g)",
                      lo_ + width_ * static_cast<double>(i),
                      lo_ + width_ * static_cast<double>(i + 1));
        out.emplace_back(label, static_cast<double>(counts_[i]));
    }
    out.emplace_back("overflow", static_cast<double>(overflow_));
    return out;
}

void
Histogram::reset()
{
    for (auto &c : counts_)
        c = 0;
    underflow_ = overflow_ = total_ = 0;
    sum_ = 0.0;
}

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
