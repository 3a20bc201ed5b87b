#include "prefetch/eip.h"

#include <cassert>

#include "common/intmath.h"
#include "common/rng.h"

namespace udp {

Eip::Eip(MemSystem& m, const EipConfig& c)
    : mem(m), cfg(c), table(std::size_t{c.numSets} * c.assoc),
      history(c.historyLen)
{
    assert(isPowerOf2(cfg.numSets));
    for (Entry& e : table) {
        e.dsts.reserve(cfg.dstsPerEntry);
    }
}

Eip::Entry*
Eip::findEntry(Addr src)
{
    std::size_t set = (src / kLineBytes) & (cfg.numSets - 1);
    for (unsigned w = 0; w < cfg.assoc; ++w) {
        Entry& e = table[set * cfg.assoc + w];
        if (e.valid && e.src == src) {
            e.lru = ++lruClock;
            return &e;
        }
    }
    return nullptr;
}

Eip::Entry&
Eip::allocEntry(Addr src)
{
    std::size_t set = (src / kLineBytes) & (cfg.numSets - 1);
    Entry* victim = nullptr;
    for (unsigned w = 0; w < cfg.assoc; ++w) {
        Entry& e = table[set * cfg.assoc + w];
        if (!e.valid) {
            victim = &e;
            break;
        }
        if (!victim || e.lru < victim->lru) {
            victim = &e;
        }
    }
    victim->valid = true;
    victim->src = src;
    victim->dsts.clear();
    victim->lru = ++lruClock;
    return *victim;
}

void
Eip::onAccess(Addr line, bool hit, Cycle now)
{
    line = lineAddr(line);

    // Trigger: does this access entangle future lines?
    if (Entry* e = findEntry(line)) {
        for (Addr dst : e->dsts) {
            if (mem.iprefetch(dst, now, PfSource::Eip) ==
                IPrefStatus::Issued) {
                ++stats_.prefetchesIssued;
            }
        }
    }

    // Train on a miss: find the source accessed ~latencyTarget earlier.
    if (!hit) {
        ++stats_.trainings;
        Addr best_src = kInvalidAddr;
        Cycle best_err = kInvalidCycle;
        for (const HistorySlot& h : history) {
            if (h.line == 0 || h.line == line || h.when >= now) {
                continue;
            }
            Cycle age = now - h.when;
            Cycle err = age > cfg.latencyTarget ? age - cfg.latencyTarget
                                                : cfg.latencyTarget - age;
            if (err < best_err) {
                best_err = err;
                best_src = h.line;
            }
        }
        if (best_src != kInvalidAddr) {
            Entry* e = findEntry(best_src);
            if (!e) {
                e = &allocEntry(best_src);
            }
            bool known = false;
            for (Addr d : e->dsts) {
                if (d == line) {
                    known = true;
                    break;
                }
            }
            if (!known) {
                if (e->dsts.size() >= cfg.dstsPerEntry) {
                    e->dsts.erase(e->dsts.begin());
                }
                e->dsts.push_back(line);
                ++stats_.entanglings;
            }
        }
    }

    // Record the access in the history ring.
    history[histHead] = HistorySlot{line, now};
    histHead = (histHead + 1) % history.size();
}

std::uint64_t
Eip::storageBits() const
{
    // Per entry: src tag (~26b line address) + 2 compressed dsts (~30b
    // each) + lru (3b); plus the history ring.
    std::uint64_t per_entry = 26 + cfg.dstsPerEntry * 30 + 3;
    return std::uint64_t{cfg.numSets} * cfg.assoc * per_entry +
           cfg.historyLen * (26 + 16);
}

} // namespace udp
