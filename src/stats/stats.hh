/**
 * @file
 * gem5-flavoured statistics package.
 *
 * Components register named statistics inside a Group; groups nest to
 * form a tree (cluster -> node3 -> nic -> txBytes). The tree can be
 * dumped as aligned text or CSV (see stats/output.hh).
 *
 * Only the statistic kinds the simulator actually needs are provided:
 * Scalar (a counter/accumulator), Value (a scalar read from its
 * owner's counters), Average (mean of samples), and the bucketed types
 * in stats/histogram.hh.
 */

#ifndef AQSIM_STATS_STATS_HH
#define AQSIM_STATS_STATS_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace aqsim::stats
{

class Group;

/**
 * Base class for a named, documented statistic. The name and the
 * description are kept by pointer, not copied: every node registers
 * the same stats, so both must be static text (string literals) that
 * outlive the stat.
 */
class Stat
{
  public:
    Stat(const char *name, const char *desc) : name_(name), desc_(desc) {}

    virtual ~Stat() = default;

    std::string_view name() const { return name_; }
    const char *desc() const { return desc_; }

    /** Render the value(s) as "label value" rows for text output. */
    virtual std::vector<std::pair<std::string, double>> rows() const = 0;

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

    void set(double v) { value_ = v; }
    virtual double value() const { return value_; }

    std::vector<std::pair<std::string, double>>
    rows() const override
    {
        return {{"", value()}};
    }

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

    /** A view of one of the owner's counters, @p counter. */
    Value(const char *name, const char *desc,
          const std::uint64_t &counter)
        : Value(name, desc,
                [&counter] { return static_cast<double>(counter); })
    {}

    Value &operator++() = delete;
    Value &operator+=(double) = delete;
    void set(double) = delete;

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
    double sum() const { return sum_; }

    std::vector<std::pair<std::string, double>> rows() const override;
    void reset() override;

  private:
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    std::uint64_t count_ = 0;
};

/**
 * A named container of statistics and child groups. Groups own their
 * stats; components hold references.
 */
class Group
{
  public:
    explicit Group(std::string name) : name_(std::move(name)) {}

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
    const Stat *find(const std::string &path) const;

    /** Reset this group's stats and all children recursively. */
    void resetAll();

  private:
    std::string name_;
    std::vector<std::unique_ptr<Stat>> stats_;
    std::vector<std::unique_ptr<Group>> children_;
};

} // namespace aqsim::stats

#endif // AQSIM_STATS_STATS_HH
