#include "stats/stats.h"

#include <cassert>

#include "stats/sink.h"

namespace udp {

void
StatSet::add(std::string name, double value)
{
    // Duplicate names silently corrupted sink output (two JSON keys, two
    // CSV cells under one header): detect them here. Debug builds abort;
    // release builds keep the documented last-wins overwrite.
    for (auto& [n, v] : items) {
        if (n == name) {
            assert(false && "StatSet::add: duplicate stat name");
            v = value;
            return;
        }
    }
    items.emplace_back(std::move(name), value);
}

void
StatSet::addDistribution(const std::string& name, const Distribution& d)
{
    for (auto& [key, value] : d.summarize(name)) {
        add(std::move(key), value);
    }
}

double
StatSet::get(const std::string& name, bool* found) const
{
    for (const auto& [n, v] : items) {
        if (n == name) {
            if (found) {
                *found = true;
            }
            return v;
        }
    }
    if (found) {
        *found = false;
    }
    return 0.0;
}

bool
StatSet::has(const std::string& name) const
{
    bool found = false;
    get(name, &found);
    return found;
}

std::string
StatSet::toString() const
{
    std::string out;
    for (const auto& [n, v] : items) {
        out += n + " = " + formatNumber(v) + '\n';
    }
    return out;
}

} // namespace udp
