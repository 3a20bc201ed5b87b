#include "frontend/fetch.h"

#include <cassert>
#include <cstdio>

#include "prefetch/eip.h"

namespace udp {

FetchStage::FetchStage(const Program& prog, Bpu& bp, MemSystem& m, Ftq& q,
                       DecoupledFrontend& fe, BranchRecordPool& recs,
                       const FetchConfig& c)
    : program(prog), bpu(bp), mem(m), ftq(q), frontend(fe), records(recs),
      cfg(c), decodeQ(c.decodeQueueMax + c.fetchWidth)
{
}

void
FetchStage::flushAll()
{
    decodeQ.clear();
    headAccessed = false;
    headReady = 0;
    headConsumed = 0;
}

bool
FetchStage::postFetchCorrect(FtqInstr& fi, Cycle now)
{
    const Instr& sin = program.instrAt(fi.idx);
    if (sin.branch == BranchKind::None || fi.record != kNoRecord) {
        return false;
    }

    // Decode discovered a branch the frontend missed in the BTB.
    ++stats_.decodeBtbCorrections;

    Addr direct_target = kInvalidAddr;
    if (sin.branch == BranchKind::CondDirect ||
        sin.branch == BranchKind::Jump || sin.branch == BranchKind::Call) {
        direct_target = program.pcOf(sin.target);
    }
    bpu.btb().insert(fi.pc, sin.branch, direct_target);

    fi.record = records.alloc(fi.dynId);
    Prediction p = frontend.predict(sin.branch, fi.pc, direct_target,
                                    records.at(fi.record));
    fi.predTaken = p.taken;
    fi.predTarget = p.taken ? p.target : kInvalidAddr;

    if (!p.taken) {
        // Sequential continuation was correct from the frontend's point of
        // view: no resteer needed.
        return false;
    }

    // Taken: everything younger in the frontend is wrong-path relative to
    // the decode-corrected direction. Flush FTQ + younger decode state and
    // resteer; the frontend raises UDP's BTB-miss bump (the paper's
    // assume-off-path signal).
    //
    // Drop the not-yet-delivered remainder of the head block.
    headAccessed = false;
    headReady = 0;
    headConsumed = 0;
    // Erase records of squashed FTQ instructions.
    for (std::size_t i = 0; i < ftq.size(); ++i) {
        const FtqEntry& e = ftq.at(i);
        for (unsigned k = 0; k < e.numInstrs; ++k) {
            records.erase(e.instrs[k].record, e.instrs[k].dynId);
        }
    }
    ftq.flush();

    frontend.resteer(now + 1, p.target, /*aligned=*/fi.onPath,
                     fi.streamIdx + 1, /*from_decode=*/true);
    return true;
}

void
FetchStage::tick(Cycle now)
{
    if (decodeQ.size() >= cfg.decodeQueueMax) {
        return; // backpressure from dispatch
    }

    unsigned budget = cfg.fetchWidth;
    bool stalled_on_miss = false;

    while (budget > 0) {
        if (ftq.empty()) {
            break;
        }

        const FtqEntry& head = ftq.front();

        if (!headAccessed) {
            IFetchResult res = mem.ifetch(head.startPc, now, head.onPath);
            if (res.where == IFetchWhere::Stall) {
                break; // MSHR full: retry next cycle
            }
            if (eip_) {
                eip_->onAccess(lineAddr(head.startPc),
                               res.where == IFetchWhere::L1, now);
            }
            headAccessed = true;
            // L1 hits are pipelined (the hit latency is part of the
            // fetch-to-dispatch depth); only misses stall delivery.
            headReady = res.where == IFetchWhere::L1 ? now : res.ready;
            headConsumed = 0;
            if (telem_ && headReady > now) {
                telem_->onFetchStall(lineAddr(head.startPc), now, headReady);
            }
        }

        if (now < headReady) {
            stalled_on_miss = true;
            break;
        }

        // Deliver instructions from the ready block.
        while (budget > 0 && headConsumed < head.numInstrs) {
            DecodedInstr di{head.instrs[headConsumed],
                            now + cfg.decodePipeLat};
            ++headConsumed;
            --budget;

            const bool resteered = postFetchCorrect(di.fi, now);
            decodeQ.pushBack(di);
            if (resteered) {
                return; // younger state flushed
            }
        }

        if (headConsumed >= head.numInstrs) {
            headAccessed = false;
            headConsumed = 0;
            ftq.popFront();
        } else {
            break; // width exhausted mid-block
        }
    }

    if (stalled_on_miss) {
        stats_.lostSlotsIcacheMiss += budget;
    }
}

std::string
FetchStage::checkInvariants() const
{
    char buf[128];
    // tick() stops pulling once the bound is reached, so the queue can
    // overshoot by at most one fetch group.
    if (decodeQ.size() > cfg.decodeQueueMax + cfg.fetchWidth) {
        std::snprintf(buf, sizeof(buf),
                      "decode queue size %zu exceeds bound %u (+%u width)",
                      decodeQ.size(), cfg.decodeQueueMax, cfg.fetchWidth);
        return buf;
    }
    if (headAccessed && headConsumed > kInstrsPerFetchBlock) {
        std::snprintf(buf, sizeof(buf),
                      "head progress %u exceeds block size %u",
                      headConsumed, kInstrsPerFetchBlock);
        return buf;
    }
    return "";
}

std::string
FetchStage::dumpState(Cycle now) const
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "[fetch] decode_queue=%zu/%u head={accessed=%d "
                  "ready=%llu (in %lld) consumed=%u}\n",
                  decodeQ.size(), cfg.decodeQueueMax, headAccessed ? 1 : 0,
                  static_cast<unsigned long long>(headReady),
                  headAccessed ? static_cast<long long>(headReady) -
                                     static_cast<long long>(now)
                               : 0,
                  headConsumed);
    return buf;
}

} // namespace udp
