/**
 * @file
 * Lightweight named-statistics support.
 *
 * Components keep plain uint64_t counters that only ever grow; a
 * measurement window is the difference of two reads (counterDelta()).
 * Results are exported into a StatSet when a report is requested. Besides
 * scalars, a StatSet takes Distribution stats (stats/histogram.h):
 * addDistribution() flattens the histogram into schema-stable scalar
 * summary entries for the sinks.
 */

#ifndef UDP_STATS_STATS_H
#define UDP_STATS_STATS_H

#include <array>
#include <bit>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "stats/histogram.h"

namespace udp {

/** An ordered collection of (name, value) statistics. */
class StatSet
{
  public:
    /**
     * Appends a statistic; names must be unique within a set (duplicate
     * keys would corrupt the JSON sink output). Adding an existing name
     * asserts in debug builds; in release builds the last value wins
     * (the existing entry is overwritten in place, order preserved).
     */
    void add(std::string name, double value);

    /**
     * Adds a Distribution stat: appends its scalar summary entries
     * ("<name>_count", "_sum", "_mean", "_min", "_max", "_p50", "_p90",
     * "_p99").
     */
    void addDistribution(const std::string& name, const Distribution& d);

    /** Value lookup; returns 0 and sets @p found=false when missing. */
    double get(const std::string& name, bool* found = nullptr) const;

    /** True when a statistic of that name exists. */
    bool has(const std::string& name) const;

    const std::vector<std::pair<std::string, double>>& entries() const
    {
        return items;
    }

    /** Renders "name = value" lines, each value in formatNumber()'s
     *  rendering (stats/sink.h). */
    std::string toString() const;

  private:
    std::vector<std::pair<std::string, double>> items;
};

/**
 * Field-wise @p a - @p b of a counter struct whose every member is a
 * std::uint64_t (the components' *Stats structs, Cpu's CpuCounters): the
 * counts of the window between two reads of the same cumulative counters.
 */
template <class Counters>
Counters
counterDelta(const Counters& a, const Counters& b)
{
    constexpr std::size_t n = sizeof(Counters) / sizeof(std::uint64_t);
    static_assert(sizeof(Counters) == n * sizeof(std::uint64_t) &&
                      std::has_unique_object_representations_v<Counters>,
                  "a counter struct holds std::uint64_t members only");
    using Words = std::array<std::uint64_t, n>;
    Words diff = std::bit_cast<Words>(a);
    const Words base = std::bit_cast<Words>(b);
    for (std::size_t i = 0; i < n; ++i) {
        diff[i] -= base[i];
    }
    return std::bit_cast<Counters>(diff);
}

/** Safe ratio helper: returns 0 when the denominator is 0. */
inline double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

} // namespace udp

#endif // UDP_STATS_STATS_H
