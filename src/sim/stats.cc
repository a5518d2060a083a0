#include "sim/stats.h"

#include <iomanip>

#include "sim/logging.h"

namespace cnv::sim {

template <typename T, typename... Args>
T &
StatGroup::add(Args &&...args)
{
    auto stat = std::make_unique<T>(std::forward<Args>(args)...);
    for (const auto &existing : stats_) {
        if (existing->name() == stat->name())
            CNV_FATAL("duplicate statistic '{}' in group '{}'",
                      stat->name(), name_);
    }
    T &ref = *stat;
    stats_.push_back(std::move(stat));
    return ref;
}

Counter &
StatGroup::addCounter(const std::string &name, const std::string &desc)
{
    return add<Counter>(name, desc);
}

Scalar &
StatGroup::addScalar(const std::string &name, const std::string &desc)
{
    return add<Scalar>(name, desc);
}

Formula &
StatGroup::addFormula(const std::string &name, const std::string &desc,
                      std::function<double()> fn)
{
    return add<Formula>(name, desc, std::move(fn));
}

StatGroup &
StatGroup::addGroup(const std::string &name)
{
    for (const auto &existing : groups_) {
        if (existing->name() == name)
            CNV_FATAL("duplicate stat group '{}' in group '{}'", name, name_);
    }
    groups_.push_back(std::make_unique<StatGroup>(name));
    return *groups_.back();
}

const Stat *
StatGroup::find(const std::string &path) const
{
    const std::size_t dot = path.find('.');
    if (dot == std::string::npos) {
        for (const auto &stat : stats_) {
            if (stat->name() == path)
                return stat.get();
        }
        return nullptr;
    }
    const std::string head = path.substr(0, dot);
    const std::string tail = path.substr(dot + 1);
    for (const auto &group : groups_) {
        if (group->name() == head)
            return group->find(tail);
    }
    return nullptr;
}

double
StatGroup::get(const std::string &path) const
{
    const Stat *stat = find(path);
    if (!stat)
        CNV_FATAL("unknown statistic '{}' in group '{}'", path, name_);
    return stat->value();
}

void
StatGroup::dump(std::ostream &os, const std::string &prefix) const
{
    constexpr int kNameWidth = 48;
    constexpr int kValueWidth = 16;
    const std::string base = prefix.empty() ? name_ : prefix + "." + name_;
    for (const auto &stat : stats_) {
        os << std::left << std::setw(kNameWidth)
           << (base + "." + stat->name())
           << ' ' << std::setw(kValueWidth) << stat->value()
           << " # " << stat->desc() << '\n';
    }
    for (const auto &group : groups_)
        group->dump(os, base);
}

} // namespace cnv::sim
