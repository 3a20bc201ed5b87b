#include "bpred/bpu.h"

namespace udp {

Bpu::Bpu(const BpuConfig& c)
    : tage_(c.tage), loop_(c.loop), sc_(c.sc), btb_(c.btb),
      ibtb_(c.ibtb), ras_(c.rasEntries)
{
}

void
Bpu::pushHistory(bool taken, Addr pc)
{
    tage_.specUpdateHistory(taken, pc);
    hist64 = (hist64 << 1) | (taken ? 1 : 0);
}

CondPredRecord
Bpu::predictCond(Addr pc)
{
    ++stats_.condPredictions;
    CondPredRecord rec;
    rec.tage = tage_.predict(pc);
    rec.loop = loop_.predict(pc);
    rec.sc = sc_.predict(pc, hist64, rec.tage.taken,
                         rec.tage.conf == Confidence::High);

    if (rec.loop.valid) {
        rec.taken = rec.loop.taken;
        rec.conf = Confidence::High;
    } else if (rec.sc.used) {
        rec.taken = rec.sc.taken;
        rec.conf = Confidence::Med;
    } else {
        rec.taken = rec.tage.taken;
        rec.conf = rec.tage.conf;
    }

    pushHistory(rec.taken, pc);
    return rec;
}

IbtbPrediction
Bpu::predictIndirect(Addr pc)
{
    return ibtb_.predict(pc, hist64);
}

void
Bpu::notifyUnconditional(Addr pc)
{
    pushHistory(true, pc);
}

BpuCheckpoint
Bpu::checkpoint() const
{
    BpuCheckpoint ck;
    ck.tage = tage_.snapshot();
    ck.ras = ras_.checkpoint();
    ck.hist64 = hist64;
    return ck;
}

void
Bpu::recoverTo(const BpuCheckpoint& ck, Addr pc, bool is_cond, bool taken)
{
    tage_.restore(ck.tage);
    ras_.restore(ck.ras);
    hist64 = ck.hist64;
    pushHistory(is_cond ? taken : true, pc);
}

void
Bpu::trainCond(Addr pc, const CondPredRecord& rec, bool taken)
{
    if (rec.taken != taken) {
        ++stats_.condMispredicts;
    }
    tage_.update(pc, rec.tage, taken);
    loop_.update(pc, taken);
    sc_.update(rec.sc, rec.tage.taken, taken);
}

void
Bpu::trainIndirect(Addr pc, const IbtbPrediction& rec, Addr actual)
{
    ibtb_.update(pc, rec, actual);
}

std::uint64_t
Bpu::storageBits() const
{
    return tage_.storageBits() + loop_.storageBits() + sc_.storageBits() +
           btb_.storageBits() + ibtb_.storageBits() +
           ras_.capacity() * 64;
}

} // namespace udp
