/**
 * @file
 * Distribution: the histogram stat kind of the telemetry layer
 * (docs/TELEMETRY.md). A Distribution buckets samples by log2, tracks
 * min/max/sum, answers percentile queries, and flattens into
 * schema-stable scalar summary entries for the JSON/CSV sinks.
 */

#ifndef UDP_STATS_HISTOGRAM_H
#define UDP_STATS_HISTOGRAM_H

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace udp {

/**
 * Histogram over unsigned sample values with log2 buckets: bucket 0 holds
 * value 0, bucket i>=1 covers [2^(i-1), 2^i), and the last bucket
 * overflows. Right-sized for cycle latencies. Cheap to sample (one array
 * increment plus running sum/min/max) and summarizable into scalar stats.
 */
class Distribution
{
  public:
    explicit Distribution(std::size_t num_buckets = 32)
        : buckets_(num_buckets == 0 ? 1 : num_buckets, 0)
    {
    }

    void
    sample(std::uint64_t v)
    {
        ++buckets_[bucketOf(v)];
        sum_ += v;
        ++n_;
        if (n_ == 1 || v < min_) {
            min_ = v;
        }
        if (v > max_) {
            max_ = v;
        }
    }

    std::uint64_t count() const { return n_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t min() const { return n_ == 0 ? 0 : min_; }
    std::uint64_t max() const { return max_; }
    double
    mean() const
    {
        return n_ == 0 ? 0.0
                       : static_cast<double>(sum_) / static_cast<double>(n_);
    }

    std::uint64_t bucketCount(std::size_t i) const { return buckets_.at(i); }

    /** Index of the bucket @p v falls into. */
    std::size_t
    bucketOf(std::uint64_t v) const
    {
        std::size_t idx = 0;
        while (v != 0) {
            ++idx;
            v >>= 1;
        }
        return idx >= buckets_.size() ? buckets_.size() - 1 : idx;
    }

    /** Lowest sample value that lands in bucket @p i. */
    std::uint64_t
    bucketLow(std::size_t i) const
    {
        return i == 0 ? 0 : std::uint64_t{1} << (i - 1);
    }

    /**
     * Smallest bucket lower bound b such that at least fraction @p q of
     * samples fall into buckets at or below b's bucket: the bucket of the
     * nearest-rank sample, the ceil(q * n)-th smallest. Bucket-resolution
     * (exact when every sample is a bucket's lower bound); 0 when empty.
     */
    std::uint64_t
    percentile(double q) const
    {
        if (n_ == 0) {
            return 0;
        }
        if (q < 0.0) {
            q = 0.0;
        }
        if (q > 1.0) {
            q = 1.0;
        }
        auto need = static_cast<std::uint64_t>(
            std::ceil(q * static_cast<double>(n_)));
        if (need == 0) {
            need = 1;
        }
        std::uint64_t acc = 0;
        for (std::size_t i = 0; i < buckets_.size(); ++i) {
            acc += buckets_[i];
            if (acc >= need) {
                return bucketLow(i);
            }
        }
        return bucketLow(buckets_.size() - 1);
    }

    /**
     * Schema-stable scalar summary: "<prefix>_count", "_sum", "_mean",
     * "_min", "_max", "_p50", "_p90", "_p99" (docs/TELEMETRY.md). The
     * StatSet kind integration (StatSet::addDistribution) appends these.
     */
    std::vector<std::pair<std::string, double>>
    summarize(const std::string& prefix) const;

  private:
    std::vector<std::uint64_t> buckets_;
    std::uint64_t sum_ = 0;
    std::uint64_t n_ = 0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
};

} // namespace udp

#endif // UDP_STATS_HISTOGRAM_H
