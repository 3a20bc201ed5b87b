#include "stats/histogram.h"

namespace udp {

std::vector<std::pair<std::string, double>>
Distribution::summarize(const std::string& prefix) const
{
    return {
        {prefix + "_count", static_cast<double>(n_)},
        {prefix + "_sum", static_cast<double>(sum_)},
        {prefix + "_mean", mean()},
        {prefix + "_min", static_cast<double>(min())},
        {prefix + "_max", static_cast<double>(max_)},
        {prefix + "_p50", static_cast<double>(percentile(0.50))},
        {prefix + "_p90", static_cast<double>(percentile(0.90))},
        {prefix + "_p99", static_cast<double>(percentile(0.99))},
    };
}

} // namespace udp
