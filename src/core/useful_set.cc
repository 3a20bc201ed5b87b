#include "core/useful_set.h"

#include "stats/telemetry.h"

namespace udp {

UsefulSet::UsefulSet(const UsefulSetConfig& c)
    : cfg(c), f1(c.bits1, c.numHashes), f2(c.bits2, c.numHashes),
      f4(c.bits4, c.numHashes), recent(c.coalesceBufferSize + 1)
{
}

bool
UsefulSet::inRecent(Addr line) const
{
    for (std::size_t i = 0; i < recent.size(); ++i) {
        if (recent[i] == line) {
            return true;
        }
    }
    return false;
}

void
UsefulSet::learn(Addr line)
{
    ++stats_.learns;
    line = lineAddr(line);

    if (cfg.infiniteStorage) {
        infinite.insert(line);
        return;
    }

    // Deduplicate within the coalescing buffer.
    if (inRecent(line)) {
        return;
    }
    recent.pushBack(line);
    if (recent.size() > cfg.coalesceBufferSize) {
        Addr evicted = recent.front();
        recent.popFront();
        insertEvicted(evicted);
    }
}

void
UsefulSet::insertEvicted(Addr line)
{
    // Already covered by a previously inserted super-block?
    Addr base4 = spanBase(line, 4);
    Addr base2 = spanBase(line, 2);
    if (f4.contains(base4) || f2.contains(base2)) {
        return;
    }

    // Try to form a 4-line super-block anchored at the aligned base: the
    // evicted line must be the base and its three successors must be
    // pending in the buffer (monotonically increasing addresses).
    if (line == base4 && inRecent(line + kLineBytes) &&
        inRecent(line + 2 * kLineBytes) && inRecent(line + 3 * kLineBytes)) {
        f4.insert(base4);
        ++stats_.inserts4;
        // The partners stay in the buffer; covered-checks skip them later.
        return;
    }

    // Try a 2-line super-block.
    if (line == base2 && inRecent(line + kLineBytes)) {
        f2.insert(base2);
        ++stats_.inserts2;
        return;
    }

    f1.insert(line);
}

unsigned
UsefulSet::lookup(Addr line)
{
    line = lineAddr(line);

    if (cfg.infiniteStorage) {
        return infinite.count(line) != 0 ? 1 : 0;
    }
    if (f4.contains(spanBase(line, 4))) {
        return 4;
    }
    if (f2.contains(spanBase(line, 2))) {
        return 2;
    }
    return f1.contains(line) ? 1 : 0;
}

void
UsefulSet::maybeClear(std::uint64_t emitted, std::uint64_t unused)
{
    if (cfg.infiniteStorage) {
        return;
    }
    const std::uint64_t epoch_emitted = emitted - epochStartEmitted;
    if (epoch_emitted < cfg.minEmittedForClear) {
        return;
    }
    bool any_full = f1.full() || f2.full() || f4.full();
    double unuseful_ratio = static_cast<double>(unused - epochStartUnused) /
                            static_cast<double>(epoch_emitted);
    if (any_full && unuseful_ratio >= cfg.clearUnusefulRatio) {
        f1.clear();
        f2.clear();
        f4.clear();
        recent.clear();
        ++stats_.clears;
        if (telem_) {
            telem_->onUsefulSetClear();
        }
    }
    epochStartEmitted = emitted;
    epochStartUnused = unused;
}

std::uint64_t
UsefulSet::storageBits() const
{
    // Filters + coalescing buffer (8 x ~40-bit line addresses).
    return f1.sizeBits() + f2.sizeBits() + f4.sizeBits() +
           cfg.coalesceBufferSize * 40;
}

} // namespace udp
