/**
 * @file
 * Simple hardware stream prefetcher for the data side (Table II: "Data
 * Prefetcher: Stream"). Detects ascending/descending line streams on L1D
 * misses and prefetches a configurable depth ahead.
 */

#ifndef UDP_CACHE_STREAM_PREFETCHER_H
#define UDP_CACHE_STREAM_PREFETCHER_H

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace udp {

/** Configuration. */
struct StreamPrefetcherConfig
{
    unsigned numStreams = 16;
    unsigned trainThreshold = 2; ///< consecutive hits before prefetching
    unsigned depth = 4;          ///< lines prefetched ahead

    bool operator==(const StreamPrefetcherConfig&) const = default;
};

/** Statistics. */
struct StreamPrefetcherStats
{
    std::uint64_t trainings = 0;
    std::uint64_t prefetchesIssued = 0;
};

/**
 * Stream detector. The owner feeds it demand line addresses and receives
 * lines to prefetch via the out-parameter of observe().
 */
class StreamPrefetcher
{
  public:
    explicit StreamPrefetcher(const StreamPrefetcherConfig& cfg);

    /**
     * Observes a demand access to @p line; appends prefetch candidates to
     * @p out.
     */
    void observe(Addr line, std::vector<Addr>& out);

    const StreamPrefetcherStats& stats() const { return stats_; }

  private:
    struct Stream
    {
        bool valid = false;
        Addr lastLine = 0;
        int direction = 1;
        unsigned confidence = 0;
        std::uint64_t lastUse = 0;
    };

    StreamPrefetcherConfig cfg;
    std::vector<Stream> streams;
    std::uint64_t useClock = 0;
    StreamPrefetcherStats stats_;
};

} // namespace udp

#endif // UDP_CACHE_STREAM_PREFETCHER_H
