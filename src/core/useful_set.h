/**
 * @file
 * UDP's useful-set: the learned set of off-path prefetch candidates worth
 * emitting. Three Bloom filters hold 1-, 2- and 4-line super-blocks; an
 * 8-entry coalescing buffer merges monotonically consecutive learned lines
 * into super-blocks before insertion (4x storage saving, Section IV-B).
 * Supports an infinite-storage oracle mode for the Fig. 13 upper bound.
 */

#ifndef UDP_CORE_USEFUL_SET_H
#define UDP_CORE_USEFUL_SET_H

#include <cstdint>
#include <unordered_set>

#include "common/ring.h"
#include "common/types.h"
#include "core/bloom.h"

namespace udp {

class Telemetry;

/** Configuration (defaults = the paper's 8KB budget). */
struct UsefulSetConfig
{
    std::size_t bits1 = 16 * 1024; ///< 1-line filter (16k bits)
    std::size_t bits2 = 1024;      ///< 2-line super-block filter
    std::size_t bits4 = 1024;      ///< 4-line super-block filter
    unsigned numHashes = 6;
    unsigned coalesceBufferSize = 8;
    /** Clear when a filter is full and unuseful ratio reaches this. */
    double clearUnusefulRatio = 0.75;
    /** Minimum emitted prefetches per clear-evaluation epoch. */
    std::uint64_t minEmittedForClear = 512;
    /** Oracle mode: unbounded exact set, never cleared. */
    bool infiniteStorage = false;

    bool operator==(const UsefulSetConfig&) const = default;
};

/** Statistics. */
struct UsefulSetStats
{
    std::uint64_t learns = 0;
    std::uint64_t inserts2 = 0;
    std::uint64_t inserts4 = 0;
    std::uint64_t clears = 0;
};

/** The learned useful-prefetch set. */
class UsefulSet
{
  public:
    explicit UsefulSet(const UsefulSetConfig& cfg);

    /** Learns that @p line was a useful (retirement-verified) candidate. */
    void learn(Addr line);

    /**
     * Queries a candidate line. Returns the matched span in lines
     * (4, 2 or 1) or 0 when absent. The caller should prefetch the whole
     * matched super-block.
     */
    unsigned lookup(Addr line);

    /** Aligned base address of the span matched by lookup(). */
    static Addr
    spanBase(Addr line, unsigned span)
    {
        return line & ~((Addr{span} * kLineBytes) - 1);
    }

    /**
     * Evaluates the clear policy; call periodically with the cumulative
     * counts of emitted prefetches and of prefetched lines evicted
     * unused. An epoch runs until it holds minEmittedForClear emitted
     * prefetches; its counts are the differences from their values at
     * its start.
     */
    void maybeClear(std::uint64_t emitted, std::uint64_t unused);

    /** Total storage budget in bits (paper: ~8KB total with metadata). */
    std::uint64_t storageBits() const;

    const UsefulSetStats& stats() const { return stats_; }

    /** Telemetry attachment (null = disabled). */
    void setTelemetry(Telemetry* t) { telem_ = t; }

  private:
    void insertEvicted(Addr line);
    bool inRecent(Addr line) const;

    UsefulSetConfig cfg;
    BloomFilter f1;
    BloomFilter f2;
    BloomFilter f4;
    /** Coalescing buffer (newest at back); one slot over its size, so
     *  it never grows. */
    Ring<Addr> recent;
    std::unordered_set<Addr> infinite;
    std::uint64_t epochStartEmitted = 0;
    std::uint64_t epochStartUnused = 0;
    UsefulSetStats stats_;
    Telemetry* telem_ = nullptr;
};

} // namespace udp

#endif // UDP_CORE_USEFUL_SET_H
