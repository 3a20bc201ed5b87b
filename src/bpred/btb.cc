#include "bpred/btb.h"

#include <cassert>

#include "common/intmath.h"

namespace udp {

Btb::Btb(const BtbConfig& c) : cfg(c)
{
    assert(cfg.assoc >= 1);
    numSets = cfg.numEntries / cfg.assoc;
    assert(isPowerOf2(numSets));
    setBits = floorLog2(numSets);
    tags.assign(numSets * cfg.assoc, kEmptyTag);
    entries.resize(numSets * cfg.assoc);
    lru.assign(numSets * cfg.assoc, 0);
}

std::size_t
Btb::setOf(Addr pc) const
{
    return static_cast<std::size_t>((pc >> 2) & (numSets - 1));
}

Addr
Btb::tagOf(Addr pc) const
{
    return (pc >> 2) >> setBits;
}

std::ptrdiff_t
Btb::find(Addr pc) const
{
    std::size_t base = setOf(pc) * cfg.assoc;
    Addr tag = tagOf(pc);
    for (unsigned w = 0; w < cfg.assoc; ++w) {
        if (tags[base + w] == tag) {
            return static_cast<std::ptrdiff_t>(base + w);
        }
    }
    return -1;
}

const BtbEntry*
Btb::lookup(Addr pc)
{
    ++stats_.lookups;
    std::ptrdiff_t i = find(pc);
    if (i < 0) {
        return nullptr;
    }
    lru[i] = ++lruClock;
    ++stats_.hits;
    return &entries[i];
}

const BtbEntry*
Btb::probe(Addr pc) const
{
    std::ptrdiff_t i = find(pc);
    return i < 0 ? nullptr : &entries[i];
}

void
Btb::insert(Addr pc, BranchKind kind, Addr target)
{
    std::ptrdiff_t i = find(pc);
    if (i < 0) {
        // Victim: the first invalid way, else the least recently used
        // (the first of equals).
        std::size_t base = setOf(pc) * cfg.assoc;
        std::size_t victim = base;
        for (unsigned w = 0; w < cfg.assoc; ++w) {
            if (tags[base + w] == kEmptyTag) {
                victim = base + w;
                break;
            }
            if (lru[base + w] < lru[victim]) {
                victim = base + w;
            }
        }
        if (tags[victim] != kEmptyTag) {
            ++stats_.evictions;
        }
        tags[victim] = tagOf(pc);
        ++stats_.inserts;
        i = static_cast<std::ptrdiff_t>(victim);
    }
    entries[i].kind = kind;
    entries[i].target = target;
    lru[i] = ++lruClock;
}

std::uint64_t
Btb::storageBits() const
{
    // tag(~40) + target(~32 compressed) + kind(3) + lru(~3) per entry.
    return std::uint64_t{cfg.numEntries} * (40 + 32 + 3 + 3);
}

} // namespace udp
