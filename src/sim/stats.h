/**
 * @file
 * Named-statistics package, modelled on gem5's stats framework.
 *
 * The driver turns each result record into a tree of StatGroups of
 * named, documented statistics; a group can dump all values as a
 * table, be queried by name (used to assemble experiment reports),
 * and is serialized by sim/stats_export.h.
 */

#ifndef CNV_SIM_STATS_H
#define CNV_SIM_STATS_H

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

namespace cnv::sim {

/** Base class for all named statistics. */
class Stat
{
  public:
    Stat(std::string name, std::string desc)
        : name_(std::move(name)), desc_(std::move(desc))
    {}
    virtual ~Stat() = default;

    Stat(const Stat &) = delete;
    Stat &operator=(const Stat &) = delete;

    const std::string &name() const { return name_; }
    const std::string &desc() const { return desc_; }

    /** Scalar value of the statistic (for dumping and queries). */
    virtual double value() const = 0;

  private:
    std::string name_;
    std::string desc_;
};

/** Monotonically increasing event counter. */
class Counter : public Stat
{
  public:
    using Stat::Stat;

    Counter &operator++() { ++count_; return *this; }
    Counter &operator+=(std::uint64_t n) { count_ += n; return *this; }

    std::uint64_t count() const { return count_; }
    double value() const override { return static_cast<double>(count_); }

  private:
    std::uint64_t count_ = 0;
};

/** Settable scalar value (e.g., a measured energy in joules). */
class Scalar : public Stat
{
  public:
    using Stat::Stat;

    Scalar &operator=(double v) { value_ = v; return *this; }
    Scalar &operator+=(double v) { value_ += v; return *this; }

    double value() const override { return value_; }

  private:
    double value_ = 0.0;
};

/** Derived statistic computed on demand from other statistics. */
class Formula : public Stat
{
  public:
    Formula(std::string name, std::string desc, std::function<double()> fn)
        : Stat(std::move(name), std::move(desc)), fn_(std::move(fn))
    {}

    double value() const override { return fn_(); }

  private:
    std::function<double()> fn_;
};

/**
 * A named collection of statistics. Groups may nest; dumped names
 * are dot-joined ("cnv.unit0.sbReads").
 */
class StatGroup
{
  public:
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    StatGroup(const StatGroup &) = delete;
    StatGroup &operator=(const StatGroup &) = delete;

    Counter &addCounter(const std::string &name, const std::string &desc);
    Scalar &addScalar(const std::string &name, const std::string &desc);
    Formula &addFormula(const std::string &name, const std::string &desc,
                        std::function<double()> fn);

    /** Create (and own) a nested group. */
    StatGroup &addGroup(const std::string &name);

    const std::string &name() const { return name_; }

    /**
     * Find a statistic by dot-joined path relative to this group
     * ("unit0.sbReads"). Returns nullptr when absent.
     */
    const Stat *find(const std::string &path) const;

    /** Value of a statistic that must exist; fatal when absent. */
    double get(const std::string &path) const;

    /** Dump "name value # desc" lines, depth-first. */
    void dump(std::ostream &os, const std::string &prefix = "") const;

    /** Immediate statistics of this group, in declaration order. */
    const std::deque<std::unique_ptr<Stat>> &statChildren() const
    {
        return stats_;
    }

    /** Immediate nested groups, in declaration order. */
    const std::deque<std::unique_ptr<StatGroup>> &groupChildren() const
    {
        return groups_;
    }

  private:
    template <typename T, typename... Args>
    T &add(Args &&...args);

    std::string name_;
    std::deque<std::unique_ptr<Stat>> stats_;
    std::deque<std::unique_ptr<StatGroup>> groups_;
};

} // namespace cnv::sim

#endif // CNV_SIM_STATS_H
