/**
 * @file
 * gem5-flavoured statistics package.
 *
 * Cluster-wide components register named statistics inside a Group;
 * groups nest to form a tree (cluster -> network -> packets). Stats
 * that every node has are not objects at all: each component type
 * describes them once (Descriptor) over members of its own, so
 * building a node allocates nothing here. Both are dumped as aligned
 * text or CSV (stats/output.hh).
 *
 * Only the statistic kinds the simulator actually needs are provided:
 * Scalar (a counter/accumulator), Value (a scalar read from its
 * owner's counters), Average (mean of samples) and Log2Distribution
 * (power-of-two buckets, over a plain Log2Counts an owner can keep).
 */

#ifndef AQSIM_STATS_STATS_HH
#define AQSIM_STATS_STATS_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace aqsim::stats
{

/** A stat's dump rows: (label, value), label "" for a plain scalar. */
using Rows = std::vector<std::pair<std::string, double>>;

/**
 * Base class for a named, documented statistic. The name and the
 * description are kept by pointer, not copied, so both must be static
 * text (string literals) that outlive the stat.
 */
class Stat
{
  public:
    Stat(const char *name, const char *desc) : name_(name), desc_(desc) {}

    virtual ~Stat() = default;

    std::string_view name() const { return name_; }
    const char *desc() const { return desc_; }

    /** Render the value(s) as "label value" rows for text output. */
    virtual Rows rows() const = 0;

    /** Reset to the initial state. */
    virtual void reset() = 0;

  private:
    const char *name_;
    const char *desc_;
};

/** A scalar counter / accumulator. */
class Scalar : public Stat
{
  public:
    using Stat::Stat;

    Scalar &operator++()
    {
        value_ += 1.0;
        return *this;
    }

    Scalar &
    operator+=(double v)
    {
        value_ += v;
        return *this;
    }

    virtual double value() const { return value_; }

    Rows rows() const override { return {{"", value()}}; }

    void reset() override { value_ = 0.0; }

  private:
    double value_ = 0.0;
};

/**
 * A scalar computed from its owner's counters each time it is read
 * (gem5's Value stat). The owner keeps the count wherever it is
 * cheapest to update, and the stats tree still reads exact at any
 * point. The owner clears its counters on reset; a Value holds no
 * count of its own, so it cannot be incremented or set.
 */
class Value : public Scalar
{
  public:
    Value(const char *name, const char *desc,
          std::function<double()> source)
        : Scalar(name, desc), source_(std::move(source))
    {}

    Value &operator++() = delete;
    Value &operator+=(double) = delete;

    double value() const override { return source_(); }

  private:
    std::function<double()> source_;
};

/** Mean / min / max over a stream of samples. */
class Average : public Stat
{
  public:
    using Stat::Stat;

    void sample(double v);

    std::uint64_t count() const { return count_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

    Rows rows() const override;
    void reset() override;

  private:
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    std::uint64_t count_ = 0;
};

/**
 * Power-of-two bucketed sample counts for wide-dynamic-range values
 * (message latencies, straggler lateness in ticks). Bucket i counts
 * samples in [2^i, 2^(i+1)); bucket 0 additionally holds [0, 2). The
 * buckets grow with the first sample that needs them.
 */
struct Log2Counts
{
    std::vector<std::uint64_t> buckets;
    std::uint64_t samples = 0;
    std::uint64_t sum = 0;
    std::uint64_t max = 0;

    void sample(std::uint64_t v);

    std::uint64_t
    bucketCount(std::size_t i) const
    {
        return i < buckets.size() ? buckets[i] : 0;
    }

    /** samples, mean and max, then each non-empty bucket. */
    Rows rows() const;
};

/** A Log2Counts registered as a named stat of a group. */
class Log2Distribution : public Stat, public Log2Counts
{
  public:
    using Stat::Stat;

    Rows rows() const override { return Log2Counts::rows(); }
    void reset() override { static_cast<Log2Counts &>(*this) = {}; }
};

/**
 * A named container of statistics and child groups. Groups own their
 * stats; components hold references.
 */
class Group
{
  public:
    explicit Group(std::string name) : name_(std::move(name)) {}
    virtual ~Group() = default;

    Group(const Group &) = delete;
    Group &operator=(const Group &) = delete;

    /**
     * Create (and own) a statistic of type T in this group. @p name
     * and @p desc must be static text; the stat keeps the pointers.
     */
    template <typename T, typename... CtorArgs>
    T &
    add(const char *name, const char *desc, CtorArgs &&...args)
    {
        auto stat = std::make_unique<T>(name, desc,
                                        std::forward<CtorArgs>(args)...);
        T &ref = *stat;
        stats_.push_back(std::move(stat));
        return ref;
    }

    /** Create (and own) a nested child group. */
    Group &addGroup(std::string name);

    const std::string &name() const { return name_; }
    const std::vector<std::unique_ptr<Stat>> &statList() const
    {
        return stats_;
    }
    const std::vector<std::unique_ptr<Group>> &children() const
    {
        return children_;
    }

    /** Find a stat by dotted path ("nic.txBytes"); nullptr if absent. */
    virtual const Stat *find(const std::string &path) const;

    /** Reset this group's stats and all children recursively. */
    void resetAll();

  private:
    std::string name_;
    std::vector<std::unique_ptr<Stat>> stats_;
    std::vector<std::unique_ptr<Group>> children_;
};

/** A statistic every @p Owner has, described once per type: the owner
 * member it reads, a counter or (counter null) a distribution. */
template <typename Owner>
struct Descriptor
{
    const char *name;
    const char *desc;
    std::uint64_t Owner::*counter = nullptr;
    Log2Counts Owner::*dist = nullptr;
};

template <typename Owner>
using Descriptors = std::span<const Descriptor<Owner>>;

/** Append @p owner's values of @p table to the flat array @p out: a
 * word per counter, [samples sum max n bucket*n] per distribution. */
template <typename Owner>
void
appendValues(const Owner &owner, Descriptors<Owner> table,
             std::vector<std::uint64_t> &out)
{
    for (const Descriptor<Owner> &d : table) {
        if (d.counter) {
            out.push_back(owner.*d.counter);
            continue;
        }
        const Log2Counts &c = owner.*d.dist;
        out.insert(out.end(), {c.samples, c.sum, c.max, c.buckets.size()});
        out.insert(out.end(), c.buckets.begin(), c.buckets.end());
    }
}

} // namespace aqsim::stats

#endif // AQSIM_STATS_STATS_HH
