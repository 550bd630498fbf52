/**
 * @file
 * Lightweight named-statistics registry.
 *
 * Simulator components register scalar counters into a StatGroup; the
 * benches and tests read them back by name. This mirrors (in miniature)
 * the gem5 stats package: hierarchical dotted names, reset support and
 * a dump routine.
 *
 * ## Reference lifetime contract
 *
 * counter() hands out a `double &` aimed straight into the group's
 * node-based map. The reference stays valid for the lifetime of the
 * group *object*: inserts (counter()/add()/merge()) and reset() never
 * move existing map nodes. It is invalidated by anything that replaces
 * the map wholesale — assigning over the group, moving from it, or
 * destroying it.
 *
 * StatGroup is not thread-safe; concurrent mutation needs external
 * synchronization (the thread pool merges per-worker groups at join).
 */

#ifndef CQ_COMMON_STATS_H
#define CQ_COMMON_STATS_H

#include <map>
#include <string>

namespace cq {

/**
 * A collection of named double-valued counters. Cheap to copy-free
 * increment via reference obtained once at construction time.
 */
class StatGroup
{
  public:
    /**
     * Create (or fetch) the counter with the given dotted name.
     * See the reference lifetime contract in the file header.
     */
    double &counter(const std::string &name);

    /** Read a counter; returns 0 for unknown names. */
    double get(const std::string &name) const;

    /** Add @p delta to the counter named @p name. */
    void add(const std::string &name, double delta);

    /** Reset every counter to zero. Outstanding references remain
     *  valid (values are zeroed in place). */
    void reset();

    /** Sum of all counters whose names start with @p prefix. */
    double sumPrefix(const std::string &prefix) const;

    /** Render all counters (sorted by name) into a printable string. */
    std::string dump(const std::string &header = "") const;

    /** Access to the underlying map for iteration. */
    const std::map<std::string, double> &all() const { return stats_; }

    /** Merge all counters of @p other into this group (adding values).
     *  Outstanding references into this group remain valid. */
    void merge(const StatGroup &other);

  private:
    std::map<std::string, double> stats_;
};

} // namespace cq

#endif // CQ_COMMON_STATS_H
