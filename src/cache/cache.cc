#include "cache/cache.h"

#include <algorithm>
#include <cassert>

#include "common/intmath.h"

namespace udp {

SetAssocCache::SetAssocCache(const CacheConfig& c) : cfg(c)
{
    assert(cfg.assoc >= 1);
    numSets_ = cfg.sizeBytes / (std::uint64_t{kLineBytes} * cfg.assoc);
    assert(numSets_ >= 1 && isPowerOf2(numSets_));
    tagShift = kLineBits + floorLog2(numSets_);
    tags.assign(numSets_ * cfg.assoc, kEmptyTag);
    flags.assign(numSets_ * cfg.assoc, 0);
    lru.assign(numSets_ * cfg.assoc, 0);
}

std::ptrdiff_t
SetAssocCache::find(Addr addr) const
{
    std::size_t base = setOf(addr) * cfg.assoc;
    Addr tag = tagOf(addr);
    for (unsigned w = 0; w < cfg.assoc; ++w) {
        if (tags[base + w] == tag) {
            return static_cast<std::ptrdiff_t>(base + w);
        }
    }
    return -1;
}

bool
SetAssocCache::contains(Addr addr) const
{
    return find(addr) >= 0;
}

CacheAccess
SetAssocCache::demandAccess(Addr addr, bool on_path)
{
    ++stats_.demandAccesses;
    std::ptrdiff_t i = find(addr);
    if (i < 0) {
        ++stats_.demandMisses;
        return CacheAccess{};
    }
    ++stats_.demandHits;
    lru[i] = ++lruClock;
    CacheAccess res{true, (flags[i] & kPrefetch) != 0};
    if (res.prefetched) {
        ++stats_.prefetchHits;
        flags[i] &= ~kPrefetch;
    }
    if ((flags[i] & kPrefetchTrue) && on_path) {
        ++stats_.prefetchHitsTrue;
        flags[i] &= ~kPrefetchTrue;
    }
    return res;
}

void
SetAssocCache::touch(Addr addr)
{
    std::ptrdiff_t i = find(addr);
    if (i >= 0) {
        lru[i] = ++lruClock;
    }
}

CacheInsertResult
SetAssocCache::insert(Addr addr, bool is_prefetch)
{
    CacheInsertResult res;
    // One pass over the set: a present line is refreshed, and the victim
    // is the first invalid way, else the least recently used (the first
    // of equals).
    std::size_t set = setOf(addr);
    std::size_t base = set * cfg.assoc;
    Addr tag = tagOf(addr);
    std::size_t victim = base;
    bool invalid = false;
    for (std::size_t i = base; i < base + cfg.assoc; ++i) {
        if (tags[i] == tag) {
            // Already present: don't re-mark a demand-touched line.
            lru[i] = ++lruClock;
            return res;
        }
        if (invalid) {
            continue;
        }
        if (tags[i] == kEmptyTag) {
            victim = i;
            invalid = true;
        } else if (lru[i] < lru[victim]) {
            victim = i;
        }
    }

    if (tags[victim] != kEmptyTag) {
        res.evicted = true;
        res.victimLine = ((tags[victim] << (tagShift - kLineBits)) | set)
                         << kLineBits;
        res.victimPrefetchUnused = (flags[victim] & kPrefetch) != 0;
        ++stats_.evictions;
        if (flags[victim] & kPrefetch) {
            ++stats_.prefetchUnused;
        }
        if (flags[victim] & kPrefetchTrue) {
            ++stats_.prefetchUnusedTrue;
        }
    }

    tags[victim] = tag;
    flags[victim] = is_prefetch ? kPrefetch | kPrefetchTrue : 0;
    lru[victim] = ++lruClock;
    ++stats_.inserts;
    return res;
}

bool
SetAssocCache::invalidate(Addr addr)
{
    std::ptrdiff_t i = find(addr);
    if (i < 0) {
        return false;
    }
    tags[i] = kEmptyTag;
    flags[i] = 0;
    return true;
}

void
SetAssocCache::flush()
{
    std::fill(tags.begin(), tags.end(), kEmptyTag);
    std::fill(flags.begin(), flags.end(), std::uint8_t{0});
}

} // namespace udp
