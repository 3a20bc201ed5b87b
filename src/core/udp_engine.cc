#include "core/udp_engine.h"

namespace udp {

UdpEngine::UdpEngine(const UdpConfig& c)
    : cfg(c), conf(c.confidence), set(c.usefulSet), sftq(c.seniority)
{
}

void
UdpEngine::onBtbMissTaken()
{
    // A BTB resteer resets the epoch, but the corrected path inherits the
    // uncertainty of a cold branch: reset then bump (Section IV-B).
    conf.reset();
    conf.onBtbMissTaken();
}

UdpDecision
UdpEngine::evaluate(const FtqEntry& entry, Addr line)
{
    UdpDecision d;
    d.base = lineAddr(line);

    if (!entry.assumedOffPath) {
        return d; // believed on-path: always emit (always useful)
    }

    // Track the candidate in the Seniority-FTQ right away: recovery
    // flushes the FTQ, and flushed off-path candidates are precisely the
    // ones a post-recovery retirement can prove useful. Entries are
    // tagged with the block's first dynamic-instruction id so the
    // DropYounger flush policy can compare against squash points.
    std::uint64_t dyn_id =
        entry.numInstrs > 0 ? entry.instrs[0].dynId : entry.id;
    sftq.insert(lineAddr(line), dyn_id);

    unsigned span = set.lookup(line);
    if (span == 0) {
        ++stats_.droppedFiltered;
        d.emit = false;
        return d;
    }
    ++stats_.emittedFiltered;
    d.span = span;
    d.base = UsefulSet::spanBase(lineAddr(line), span);
    return d;
}

void
UdpEngine::onRetire(Addr pc)
{
    if (sftq.matchAndRemove(lineAddr(pc))) {
        set.learn(lineAddr(pc));
    }
}

void
UdpEngine::onFlush(std::uint64_t squash_after_dyn_id)
{
    conf.reset();
    sftq.onFlush(squash_after_dyn_id);
}

std::uint64_t
UdpEngine::storageBits() const
{
    // Useful set + seniority FTQ (~64 x 40-bit lines) + counter.
    return set.storageBits() + cfg.seniority.capacity * 40 + 8;
}

} // namespace udp
