#include "frontend/decoupled_fe.h"

#include <cassert>

#include "common/intmath.h"
#include "core/udp_engine.h"
#include "stats/telemetry.h"

namespace udp {

DecoupledFrontend::DecoupledFrontend(const Program& prog, TrueStream& strm,
                                     Bpu& bp, Ftq& q, BranchRecordPool& recs,
                                     const FrontendConfig& c)
    : program(prog), stream(strm), bpu(bp), ftq(q), records(recs), cfg(c),
      pc(prog.entryPc())
{
}

Addr
DecoupledFrontend::clampPc(Addr a) const
{
    if (program.validPc(a)) {
        return a;
    }
    // Wrong-path fetch ran off the image: wrap into the code segment so
    // speculative navigation always sees real bytes.
    std::uint64_t span = program.codeBytes();
    Addr off = a >= Program::kCodeBase ? (a - Program::kCodeBase) % span : 0;
    return Program::kCodeBase + alignDown(off, kInstrBytes);
}

void
DecoupledFrontend::tick(Cycle now)
{
    if (now < stallUntil) {
        return;
    }
    for (unsigned b = 0; b < cfg.blocksPerCycle; ++b) {
        if (ftq.full()) {
            ++stats_.stallCyclesFtqFull;
            return;
        }
        if (!buildBlock(now)) {
            return;
        }
    }
}

bool
DecoupledFrontend::buildBlock(Cycle now)
{
    (void)now;
    FtqEntry& entry = ftq.beginPush();
    entry.id = ftq.allocId();
    entry.startPc = pc;
    entry.onPath = aligned;
    entry.assumedOffPath = udp_ != nullptr && udp_->assumedOffPath();

    Addr cur = pc;
    const Addr region_end = fetchBlockAddr(pc) + kFetchBlockBytes;
    Addr next_pc = kInvalidAddr;

    while (cur < region_end && entry.numInstrs < kInstrsPerFetchBlock) {
        cur = clampPc(cur);
        FtqInstr& fi = entry.instrs[entry.numInstrs];
        fi = FtqInstr();
        fi.idx = program.indexOf(cur);
        fi.pc = cur;
        fi.dynId = dynIdCounter++;
        fi.onPath = aligned;
        fi.streamIdx = streamIdx;

        ++stats_.instrsEmitted;
        if (aligned) {
            ++stats_.onPathInstrs;
            assert(stream.at(streamIdx).pc == cur &&
                   "aligned frontend must track the true stream");
        } else {
            ++stats_.offPathInstrs;
        }

        // Hardware view: the BTB tells the frontend where branches are.
        const BtbEntry* be = bpu.btb().lookup(cur);
        if (be && be->kind != BranchKind::None) {
            fi.record = records.alloc(fi.dynId);
            Prediction p =
                predict(be->kind, cur, be->target, records.at(fi.record));
            fi.predTaken = p.taken;
            fi.predTarget = p.target;
        }

        Addr my_next = fi.predTaken ? fi.predTarget : cur + kInstrBytes;

        // Ground-truth alignment: did this speculative step leave the
        // architectural path? (Covers mispredictions *and* BTB misses on
        // taken branches, where the frontend silently goes sequential.)
        if (aligned) {
            const ArchInstr& truth = stream.at(streamIdx);
            ++streamIdx;
            if (clampPc(my_next) != truth.nextPc) {
                aligned = false;
            }
        }

        ++entry.numInstrs;
        cur += kInstrBytes;
        if (fi.predTaken) {
            next_pc = fi.predTarget;
            break;
        }
    }

    if (next_pc == kInvalidAddr) {
        next_pc = cur; // sequential fall-through to the next block
    }
    pc = clampPc(next_pc);

    ftq.commitPush();
    return true;
}

Prediction
DecoupledFrontend::predict(BranchKind kind, Addr pc, Addr known_target,
                           BranchRecord& rec)
{
    rec.ckpt = bpu.checkpoint();
    const Addr fall_through = pc + kInstrBytes;
    Prediction p{true, known_target};

    switch (kind) {
      case BranchKind::None:
        return {};
      case BranchKind::CondDirect:
        rec.cond = bpu.predictCond(pc);
        if (udp_) {
            udp_->onCondPredicted(rec.cond.conf);
        }
        p.taken = rec.cond.taken;
        return p;
      case BranchKind::Jump:
        break;
      case BranchKind::Call:
        bpu.pushReturn(fall_through);
        break;
      case BranchKind::IndirectJump:
      case BranchKind::IndirectCall:
        rec.indirect = bpu.predictIndirect(pc);
        if (rec.indirect.target != kInvalidAddr) {
            p.target = rec.indirect.target;
        }
        if (p.target == kInvalidAddr) {
            p.target = fall_through; // cold: fall through
        }
        if (kind == BranchKind::IndirectCall) {
            bpu.pushReturn(fall_through);
        }
        break;
      case BranchKind::Return:
        p.target = bpu.predictReturn();
        if (p.target == kInvalidAddr) {
            p.target = fall_through;
        }
        break;
    }
    bpu.notifyUnconditional(pc);
    return p;
}

void
DecoupledFrontend::resteer(Cycle resume_at, Addr new_pc, bool is_aligned,
                           std::uint64_t next_stream_idx, bool from_decode)
{
    pc = clampPc(new_pc);
    aligned = is_aligned;
    streamIdx = next_stream_idx;
    stallUntil = resume_at;
    ++stats_.resteers;
    if (from_decode) {
        ++stats_.decodeResteers;
        if (udp_) {
            udp_->onBtbMissTaken();
        }
    }
    if (telem_) {
        telem_->onResteer(pc, from_decode);
    }
}

} // namespace udp
