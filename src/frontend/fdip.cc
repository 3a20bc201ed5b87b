#include "frontend/fdip.h"

#include "core/udp_engine.h"

namespace udp {

FdipEngine::FdipEngine(MemSystem& m, Ftq& q, const FdipConfig& c)
    : mem(m), ftq(q), cfg(c)
{
}

void
FdipEngine::tick(Cycle now)
{
    if (!cfg.enabled) {
        return;
    }
    for (unsigned budget = cfg.blocksPerCycle; budget > 0; --budget) {
        const FtqEntry* e = ftq.nextToPrefetch();
        if (e == nullptr) {
            return;
        }
        probe(*e, now);
    }
}

void
FdipEngine::probe(const FtqEntry& e, Cycle now)
{
    ++stats_.blocksScanned;

    Addr line = e.line();
    if (mem.icacheContains(line) || mem.icacheLineInFlight(line)) {
        return; // present or already being filled: nothing to do
    }
    ++stats_.candidates;

    unsigned span = 1;
    Addr base = line;
    if (udp_) {
        UdpDecision d = udp_->evaluate(e, line);
        if (!d.emit) {
            if (telem_) {
                telem_->onUdpDrop(line);
            }
            return;
        }
        span = d.span;
        base = d.base;
    }

    for (unsigned i = 0; i < span; ++i) {
        Addr target = base + Addr{i} * kLineBytes;
        IPrefStatus st = mem.iprefetch(
            target, now,
            target != line ? PfSource::UdpExtra : PfSource::Fdip);
        if (st == IPrefStatus::Issued || st == IPrefStatus::DemotedL2) {
            ++stats_.emitted;
            if (e.onPath) {
                ++stats_.emittedOnPath;
            } else {
                ++stats_.emittedOffPath;
            }
        }
    }
}

} // namespace udp
