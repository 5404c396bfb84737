#include "stats/stats.hh"

#include <algorithm>
#include <bit>
#include <cstdio>

namespace aqsim::stats
{

void
Average::sample(double v)
{
    if (count_ == 0) {
        min_ = max_ = v;
    } else {
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }
    sum_ += v;
    ++count_;
}

Rows
Average::rows() const
{
    return {
        {"mean", mean()},
        {"min", min()},
        {"max", max()},
        {"count", static_cast<double>(count_)},
    };
}

void
Average::reset()
{
    sum_ = min_ = max_ = 0.0;
    count_ = 0;
}

void
Log2Counts::sample(std::uint64_t v)
{
    ++samples;
    sum += v;
    if (v > max)
        max = v;
    const std::size_t i =
        v < 2 ? 0 : static_cast<std::size_t>(std::bit_width(v) - 1);
    if (i >= buckets.size())
        buckets.resize(i + 1, 0);
    ++buckets[i];
}

Rows
Log2Counts::rows() const
{
    const double mean =
        samples ? static_cast<double>(sum) / static_cast<double>(samples)
                : 0.0;
    Rows out{{"samples", static_cast<double>(samples)},
             {"mean", mean},
             {"max", static_cast<double>(max)}};
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        if (buckets[i] == 0)
            continue;
        char label[64];
        std::snprintf(label, sizeof(label), "[2^%zu,2^%zu)", i, i + 1);
        out.emplace_back(label, static_cast<double>(buckets[i]));
    }
    return out;
}

Group &
Group::addGroup(std::string name)
{
    children_.push_back(std::make_unique<Group>(std::move(name)));
    return *children_.back();
}

const Stat *
Group::find(const std::string &path) const
{
    auto dot = path.find('.');
    if (dot == std::string::npos) {
        for (const auto &stat : stats_)
            if (stat->name() == path)
                return stat.get();
        return nullptr;
    }
    const std::string_view head(path.data(), dot);
    for (const auto &child : children_)
        if (child->name() == head)
            return child->find(path.substr(dot + 1));
    return nullptr;
}

void
Group::resetAll()
{
    for (auto &stat : stats_)
        stat->reset();
    for (auto &child : children_)
        child->resetAll();
}

} // namespace aqsim::stats
