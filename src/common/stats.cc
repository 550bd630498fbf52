/**
 * @file
 * Implementation of the statistics registry.
 */

#include "common/stats.h"

#include <sstream>

namespace cq {

double &
StatGroup::counter(const std::string &name)
{
    return stats_[name];
}

double
StatGroup::get(const std::string &name) const
{
    auto it = stats_.find(name);
    return it == stats_.end() ? 0.0 : it->second;
}

void
StatGroup::add(const std::string &name, double delta)
{
    stats_[name] += delta;
}

void
StatGroup::reset()
{
    for (auto &kv : stats_)
        kv.second = 0.0;
}

double
StatGroup::sumPrefix(const std::string &prefix) const
{
    double sum = 0.0;
    // std::map is ordered, so all matching keys are contiguous.
    for (auto it = stats_.lower_bound(prefix); it != stats_.end(); ++it) {
        if (it->first.compare(0, prefix.size(), prefix) != 0)
            break;
        sum += it->second;
    }
    return sum;
}

std::string
StatGroup::dump(const std::string &header) const
{
    std::ostringstream os;
    if (!header.empty())
        os << header << "\n";
    for (const auto &kv : stats_)
        os << "  " << kv.first << " = " << kv.second << "\n";
    return os.str();
}

void
StatGroup::merge(const StatGroup &other)
{
    for (const auto &kv : other.stats_)
        stats_[kv.first] += kv.second;
}

} // namespace cq
