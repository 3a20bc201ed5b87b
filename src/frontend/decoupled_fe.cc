#include "frontend/decoupled_fe.h"

#include <cassert>

#include "common/intmath.h"
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
        ++stats_.stallCyclesRedirect;
        return;
    }
    for (unsigned b = 0; b < cfg.blocksPerCycle; ++b) {
        if (ftq.full()) {
            ftq.noteFullStall();
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
    if (hooks_.assumedOffPath) {
        entry.assumedOffPath = hooks_.assumedOffPath();
    }

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
        bool terminate = false;

        if (be && be->kind != BranchKind::None) {
            fi.predictedBranch = true;
            fi.record = records.alloc(fi.dynId);
            BranchRecord& rec = records.at(fi.record);
            rec.kind = be->kind;
            rec.ckpt = bpu.checkpoint();

            switch (be->kind) {
              case BranchKind::CondDirect: {
                rec.cond = bpu.predictCond(cur);
                if (hooks_.onCondPredicted) {
                    hooks_.onCondPredicted(rec.cond.conf);
                }
                fi.predTaken = rec.cond.taken;
                fi.predTarget = be->target;
                terminate = fi.predTaken;
                break;
              }
              case BranchKind::Jump:
                fi.predTaken = true;
                fi.predTarget = be->target;
                bpu.notifyUnconditional(cur);
                terminate = true;
                break;
              case BranchKind::Call:
                fi.predTaken = true;
                fi.predTarget = be->target;
                bpu.pushReturn(cur + kInstrBytes);
                bpu.notifyUnconditional(cur);
                terminate = true;
                break;
              case BranchKind::IndirectJump:
              case BranchKind::IndirectCall: {
                rec.indirect = bpu.predictIndirect(cur);
                Addr tgt = rec.indirect.target;
                if (tgt == kInvalidAddr) {
                    tgt = be->target; // BTB hint (last-known target)
                }
                if (tgt == kInvalidAddr) {
                    tgt = cur + kInstrBytes; // cold: fall through
                }
                fi.predTaken = true;
                fi.predTarget = tgt;
                if (be->kind == BranchKind::IndirectCall) {
                    bpu.pushReturn(cur + kInstrBytes);
                }
                bpu.notifyUnconditional(cur);
                terminate = true;
                break;
              }
              case BranchKind::Return: {
                Addr tgt = bpu.predictReturn();
                if (tgt == kInvalidAddr) {
                    tgt = cur + kInstrBytes;
                }
                fi.predTaken = true;
                fi.predTarget = tgt;
                bpu.notifyUnconditional(cur);
                terminate = true;
                break;
              }
              case BranchKind::None:
                break;
            }
        }

        Addr my_next = fi.predTaken && fi.predictedBranch
                           ? fi.predTarget
                           : cur + kInstrBytes;

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
        if (terminate) {
            next_pc = fi.predTarget;
            break;
        }
    }

    if (next_pc == kInvalidAddr) {
        next_pc = cur; // sequential fall-through to the next block
    }
    pc = clampPc(next_pc);

    ++stats_.blocksBuilt;
    ftq.commitPush();
    return true;
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
    }
    if (telem_) {
        telem_->onResteer(pc, from_decode);
    }
}

} // namespace udp
