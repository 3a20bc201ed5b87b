#include "backend/backend.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdio>

#include "common/rng.h"
#include "workload/outcome.h"

namespace udp {

Backend::Backend(const Program& prog, TrueStream& strm, MemSystem& m,
                 Bpu& bp, BranchRecordPool& recs, const BackendConfig& c)
    : program(prog), stream(strm), mem(m), bpu(bp), records(recs), cfg(c)
{
    rob.resize(std::bit_ceil(std::max(cfg.robSize, 1u)));
    robMask = rob.size() - 1;
    robWords = (rob.size() + 63) / 64;
    readyBits.assign(robWords, 0);
    wheel.assign(kWheelCycles * robWords, 0);
    retiredPcs_.reserve(cfg.retireWidth);
}

template <typename F>
void
Backend::forEachRobSlot(const std::uint64_t* bits, F&& f) const
{
    // A run of slots per word: up to a word boundary, the ring's end (a
    // ring under 64 slots wraps inside its one word) or the youngest.
    const std::size_t word_slots = std::min<std::size_t>(64, rob.size());
    std::size_t s = robBasePos & robMask;
    for (std::size_t left = robCount; left > 0;) {
        const std::size_t off = s & 63;
        const std::size_t n = std::min(word_slots - off, left);
        std::uint64_t m = bits[s >> 6] >> off;
        if (n < 64) {
            m &= (std::uint64_t{1} << n) - 1;
        }
        for (; m != 0; m &= m - 1) {
            if (!f(s + static_cast<std::size_t>(std::countr_zero(m)))) {
                return;
            }
        }
        left -= n;
        s = (s + n) & robMask;
    }
}

std::uint64_t
Backend::producerPos(const RobEntry& e, unsigned k) const
{
    const Instr& sin = instrOf(e);
    unsigned dep = k == 0 ? sin.dep1 : sin.dep2;
    if (dep == 0 || e.pos < robBasePos + dep) {
        return kNoPos; // no operand, or its producer already retired
    }
    return e.pos - dep;
}

bool
Backend::canDispatch(const FtqInstr& fi) const
{
    if (robCount >= cfg.robSize) {
        return false;
    }
    if (unissuedCount >= cfg.rsSize) {
        return false;
    }
    const InstrType type = program.instrAt(fi.idx).type;
    if (type == InstrType::Load && loadsInFlight >= cfg.lqSize) {
        return false;
    }
    if (type == InstrType::Store && storesInFlight >= cfg.sqSize) {
        return false;
    }
    return true;
}

void
Backend::dispatch(const FtqInstr& fi, Cycle now)
{
    assert(canDispatch(fi));
    std::uint64_t pos = robBasePos + robCount;
    RobEntry& e = slot(pos);
    e = RobEntry();
    e.fi = fi;
    e.pos = pos;
    e.dispatchedAt = now;
    ++robCount;
    ++unissuedCount;
    // Wait on every uncompleted producer. Operand 1 links last, so when
    // both operands name one producer it precedes operand 0 in the list.
    for (unsigned k = 0; k < 2; ++k) {
        std::uint64_t pp = producerPos(e, k);
        if (pp == kNoPos || slot(pp).completed) {
            continue;
        }
        RobEntry& p = slot(pp);
        e.next[k] = p.consumers;
        p.consumers = (pos << 1) | k;
        e.waiting |= static_cast<std::uint8_t>(1u << k);
    }
    if (e.waiting == 0) {
        setBit(readyBits.data(), pos & robMask);
    }
    const InstrType type = instrOf(e).type;
    if (type == InstrType::Load) {
        ++loadsInFlight;
    } else if (type == InstrType::Store) {
        ++storesInFlight;
    }
    ++stats_.dispatched;
}

void
Backend::resolveBranch(RobEntry& e)
{
    const FtqInstr& fi = e.fi;
    const Instr& sin = instrOf(e);
    e.resolved = true;
    ++stats_.branchesResolved;

    Addr pred_next = fi.predTaken ? fi.predTarget : fi.pc + kInstrBytes;

    if (fi.onPath) {
        const ArchInstr& truth = stream.at(fi.streamIdx);
        e.actualTaken = sin.branch == BranchKind::CondDirect ? truth.taken
                                                             : true;
        e.actualNext = truth.nextPc;
    } else {
        // Wrong-path branch: resolve against the stateless wrong-path
        // oracle so consequent mispredictions re-resteer the wrong path.
        const BranchRecord* rec = records.find(fi.record, fi.dynId);
        std::uint64_t spec_hist = rec ? rec->ckpt.hist64 : 0;
        switch (sin.branch) {
          case BranchKind::CondDirect: {
            const BranchBehavior& b = program.condBehavior(sin);
            e.actualTaken =
                condOutcomeWrongPath(b, spec_hist, fi.dynId);
            e.actualNext = e.actualTaken ? program.pcOf(sin.target)
                                         : fi.pc + kInstrBytes;
            break;
          }
          case BranchKind::IndirectJump:
          case BranchKind::IndirectCall: {
            const IndirectBehavior& b = program.indirectBehavior(sin);
            std::uint32_t choice =
                indirectChoiceWrongPath(b, spec_hist, fi.dynId);
            e.actualTaken = true;
            e.actualNext = program.pcOf(program.indirectTarget(b, choice));
            break;
          }
          case BranchKind::Jump:
          case BranchKind::Call:
            e.actualTaken = true;
            e.actualNext = program.pcOf(sin.target);
            break;
          case BranchKind::Return:
            // RAS repairs make wrong-path returns effectively correct.
            e.actualTaken = true;
            e.actualNext = pred_next;
            break;
          case BranchKind::None:
            break;
        }
    }

    e.mispredicted = pred_next != e.actualNext;
}

void
Backend::complete(RobEntry& e)
{
    e.completed = true;
    for (Link l = e.consumers; l != kNoLink;) {
        RobEntry& c = slot(l >> 1);
        unsigned k = l & 1;
        l = c.next[k];
        c.waiting &= static_cast<std::uint8_t>(~(1u << k));
        if (c.waiting == 0) {
            setBit(readyBits.data(), c.pos & robMask);
        }
    }
    e.consumers = kNoLink;
    if (instrOf(e).branch != BranchKind::None && !e.resolved) {
        resolveBranch(e);
        if (e.mispredicted) {
            pendingRecovery.push_back(e.pos);
        }
    }
}

void
Backend::completeReady(Cycle now)
{
    // Each skipped cycle's bucket too, at most one full turn of the wheel.
    Cycle first = now - std::min<Cycle>(now - lastCompleted, kWheelCycles);
    lastCompleted = now;
    for (Cycle c = first + 1; c <= now; ++c) {
        const std::size_t b = c & (kWheelCycles - 1);
        std::uint64_t* bits = bucket(c);
        forEachRobSlot(bits, [&](std::size_t s) {
            RobEntry& e = rob[s];
            bool pending = e.issued && !e.completed;
            if (pending && e.completeAt > now &&
                (e.completeAt & (kWheelCycles - 1)) == b) {
                return true; // due in a later rotation
            }
            clearBit(bits, s);
            if (pending && e.completeAt <= now) {
                complete(e);
            } // else squashed: a stale bit
            return true;
        });
    }
}

void
Backend::squashAfter(std::uint64_t pos)
{
    while (robCount > 0 && robBasePos + robCount - 1 > pos) {
        RobEntry& victim = slot(robBasePos + robCount - 1);
        // Youngest first, so the victim heads every list it is still on
        // (operand 1 ahead of operand 0 when they share a producer).
        for (unsigned k = 2; k-- > 0;) {
            if (victim.waiting & (1u << k)) {
                RobEntry& p = slot(producerPos(victim, k));
                assert(p.consumers == ((victim.pos << 1) | k));
                p.consumers = victim.next[k];
            }
        }
        if (!victim.issued) {
            --unissuedCount;
        }
        records.erase(victim.fi.record, victim.fi.dynId);
        const InstrType type = instrOf(victim).type;
        if (type == InstrType::Load) {
            --loadsInFlight;
        } else if (type == InstrType::Store) {
            --storesInFlight;
        }
        clearBit(readyBits.data(), victim.pos & robMask);
        ++stats_.squashed;
        --robCount;
    }
}

ResteerRequest
Backend::handleRecovery(Cycle now)
{
    (void)now;
    ResteerRequest req;

    // Handle the oldest pending recovery (one per cycle, as in hardware).
    while (!pendingRecovery.empty()) {
        auto min_it = std::min_element(pendingRecovery.begin(),
                                       pendingRecovery.end());
        std::uint64_t pos = *min_it;
        pendingRecovery.erase(min_it);

        RobEntry* e = entryAt(pos);
        if (!e || instrOf(*e).branch == BranchKind::None || !e->resolved ||
            !e->mispredicted || e->resteerHandled) {
            continue; // squashed or stale
        }

        e->resteerHandled = true;
        squashAfter(e->pos);
        // Drop now-squashed recoveries.
        pendingRecovery.erase(
            std::remove_if(pendingRecovery.begin(), pendingRecovery.end(),
                           [p = e->pos](std::uint64_t q) { return q > p; }),
            pendingRecovery.end());

        const FtqInstr& fi = e->fi;
        const BranchRecord* rec = records.find(fi.record, fi.dynId);
        if (rec) {
            bpu.recoverTo(rec->ckpt, fi.pc,
                          instrOf(*e).branch == BranchKind::CondDirect,
                          e->actualTaken);
        }

        req.valid = true;
        req.newPc = e->actualNext;
        req.aligned = fi.onPath;
        req.nextStreamIdx = fi.onPath ? fi.streamIdx + 1 : 0;
        req.squashAfterDynId = fi.dynId;
        req.fromOnPath = fi.onPath;
        return req;
    }
    return req;
}

void
Backend::retire(Cycle now)
{
    (void)now;
    retiredPcs_.clear();
    if (retireFrozen) {
        return;
    }
    unsigned budget = cfg.retireWidth;
    while (budget > 0 && robCount > 0 && slot(robBasePos).completed) {
        RobEntry& e = slot(robBasePos);
        const FtqInstr& fi = e.fi;
        const Instr& sin = instrOf(e);
        if (sin.branch != BranchKind::None && e.mispredicted &&
            !e.resteerHandled) {
            break; // recovery must run before this branch retires
        }
        assert(fi.onPath && "only architectural-path instructions retire");

        // Train the predictors with the architectural outcome.
        const BranchRecord* rec = records.find(fi.record, fi.dynId);
        if (rec) {
            switch (sin.branch) {
              case BranchKind::CondDirect:
                bpu.trainCond(fi.pc, rec->cond, e.actualTaken);
                break;
              case BranchKind::IndirectJump:
              case BranchKind::IndirectCall:
                bpu.trainIndirect(fi.pc, rec->indirect, e.actualNext);
                // Refresh the BTB's last-target hint.
                bpu.btb().insert(fi.pc, sin.branch, e.actualNext);
                break;
              default:
                break;
            }
            records.erase(fi.record, fi.dynId);
        }

        retiredPcs_.push_back(fi.pc);

        if (sin.type == InstrType::Load) {
            --loadsInFlight;
        } else if (sin.type == InstrType::Store) {
            --storesInFlight;
        }

        stream.retireBelow(fi.streamIdx + 1);
        ++robBasePos;
        --robCount;
        ++stats_.retired;
        --budget;
    }
}

void
Backend::issue(Cycle now)
{
    unsigned budget = cfg.issueWidth;
    unsigned alu = cfg.numAlu;
    unsigned lds = cfg.numLoad;
    unsigned sts = cfg.numStore;

    // Oldest ready first; an entry whose port is taken waits in place.
    forEachRobSlot(readyBits.data(), [&](std::size_t s) {
        RobEntry* e = &rob[s];
        const FtqInstr& fi = e->fi;
        const Instr& sin = instrOf(*e);

        // Functional unit availability.
        unsigned* fu = nullptr;
        switch (sin.type) {
          case InstrType::Alu:
          case InstrType::Branch:
            fu = &alu;
            break;
          case InstrType::Load:
            fu = &lds;
            break;
          case InstrType::Store:
            fu = &sts;
            break;
        }
        if (*fu == 0) {
            return true;
        }

        // Issue.
        clearBit(readyBits.data(), s);
        e->issued = true;
        --*fu;
        --budget;
        --unissuedCount;
        ++stats_.issued;

        Cycle done;
        switch (sin.type) {
          case InstrType::Load: {
            Addr addr;
            if (fi.onPath) {
                addr = stream.at(fi.streamIdx).memAddr;
            } else {
                addr = memAddress(program.memPattern(sin), mix64(fi.dynId));
            }
            done = mem.dload(addr, now, fi.onPath);
            break;
          }
          case InstrType::Store: {
            Addr addr;
            if (fi.onPath) {
                addr = stream.at(fi.streamIdx).memAddr;
            } else {
                addr = memAddress(program.memPattern(sin),
                                  mix64(fi.dynId ^ 0x5151));
            }
            mem.dstore(addr, now);
            done = now + 1;
            break;
          }
          case InstrType::Branch:
            done = now + cfg.branchExecLat;
            break;
          case InstrType::Alu:
          default:
            done = now + sin.execLat;
            break;
        }
        // This cycle's completions have run: a zero latency lands next
        // cycle.
        e->completeAt = std::max(done, now + 1);
        setBit(bucket(e->completeAt), s);
        return budget > 0;
    });
}

ResteerRequest
Backend::tick(Cycle now)
{
    completeReady(now);
    ResteerRequest req = handleRecovery(now);
    retire(now);
    issue(now);
    return req;
}

std::string
Backend::checkInvariants(bool full) const
{
    char buf[160];
    if (robCount > cfg.robSize) {
        std::snprintf(buf, sizeof(buf), "ROB occupancy %zu exceeds %u",
                      robCount, cfg.robSize);
        return buf;
    }
    if (unissuedCount > cfg.rsSize) {
        std::snprintf(buf, sizeof(buf), "RS occupancy %u exceeds %u",
                      unissuedCount, cfg.rsSize);
        return buf;
    }
    if (loadsInFlight > cfg.lqSize) {
        std::snprintf(buf, sizeof(buf), "LQ credits %u exceed %u",
                      loadsInFlight, cfg.lqSize);
        return buf;
    }
    if (storesInFlight > cfg.sqSize) {
        std::snprintf(buf, sizeof(buf), "SQ credits %u exceed %u",
                      storesInFlight, cfg.sqSize);
        return buf;
    }
    if (!full) {
        return "";
    }

    // Credit conservation: every dispatch increments, every retire or
    // squash decrements, so the counters must equal a recount of the
    // ROB-resident memory instructions. The scheduler state is checked
    // the same way, against a fresh scan of every operand's producer.
    unsigned loads = 0;
    unsigned stores = 0;
    unsigned unissued = 0;
    std::size_t waitingOperands = 0;
    const std::uint64_t endPos = robBasePos + robCount;
    for (std::uint64_t pos = robBasePos; pos < endPos; ++pos) {
        const RobEntry& e = slot(pos);
        const InstrType type = instrOf(e).type;
        if (type == InstrType::Load) {
            ++loads;
        } else if (type == InstrType::Store) {
            ++stores;
        }
        for (unsigned k = 0; k < 2; ++k) {
            std::uint64_t pp = producerPos(e, k);
            bool waits = pp != kNoPos && !slot(pp).completed;
            bool bit = (e.waiting >> k) & 1u;
            if (waits != bit) {
                std::snprintf(buf, sizeof(buf),
                              "entry %llu operand %u: wait bit %d but "
                              "producer %s",
                              static_cast<unsigned long long>(pos), k,
                              bit ? 1 : 0,
                              waits ? "pending" : "done or absent");
                return buf;
            }
        }
        waitingOperands += static_cast<std::size_t>(std::popcount(e.waiting));
        unissued += !e.issued;
        // Issued and uncompleted: its slot's bit waits in the bucket of
        // its completion cycle, which the wheel has yet to reach.
        if (e.issued && !e.completed &&
            (e.completeAt <= lastCompleted ||
             !testBit(bucket(e.completeAt), pos & robMask))) {
            std::snprintf(buf, sizeof(buf),
                          "entry %llu: issued, due at cycle %llu, but no "
                          "pending completion-wheel bit",
                          static_cast<unsigned long long>(pos),
                          static_cast<unsigned long long>(e.completeAt));
            return buf;
        }
    }
    // The ready bitmap holds exactly the unissued entries with no waiting
    // operand: no bit of a slot outside the ROB (a squash clears them).
    for (std::size_t s = 0; s < rob.size(); ++s) {
        const RobEntry& e = rob[s];
        bool want = (e.pos & robMask) == s && inRob(e.pos) && !e.issued &&
                    e.waiting == 0;
        if (testBit(readyBits.data(), s) != want) {
            std::snprintf(buf, sizeof(buf),
                          "ready bit of slot %zu (pos %llu) is %d, but the "
                          "entry is %s",
                          s, static_cast<unsigned long long>(e.pos),
                          want ? 0 : 1, want ? "ready" : "not ready");
            return buf;
        }
    }
    if (loads != loadsInFlight || stores != storesInFlight) {
        std::snprintf(buf, sizeof(buf),
                      "LSQ credit leak: counters %u/%u vs ROB recount "
                      "%u/%u (loads/stores)",
                      loadsInFlight, storesInFlight, loads, stores);
        return buf;
    }
    if (unissued != unissuedCount) {
        std::snprintf(buf, sizeof(buf),
                      "unissued count %u vs ROB recount %u", unissuedCount,
                      unissued);
        return buf;
    }
    // Every link names a live, unissued operand that waits on this
    // producer, and the links cover every waiting operand exactly once.
    std::size_t links = 0;
    for (std::uint64_t pos = robBasePos; pos < endPos; ++pos) {
        for (Link l = slot(pos).consumers; l != kNoLink;) {
            std::uint64_t cpos = l >> 1;
            unsigned k = l & 1;
            if (++links > waitingOperands || !inRob(cpos) ||
                slot(cpos).issued || !((slot(cpos).waiting >> k) & 1u) ||
                producerPos(slot(cpos), k) != pos) {
                std::snprintf(buf, sizeof(buf),
                              "producer %llu: bad consumer link to operand "
                              "%u of %llu",
                              static_cast<unsigned long long>(pos), k,
                              static_cast<unsigned long long>(cpos));
                return buf;
            }
            l = slot(cpos).next[k];
        }
    }
    if (links != waitingOperands) {
        std::snprintf(buf, sizeof(buf),
                      "consumer lists hold %zu links for %zu waiting "
                      "operands",
                      links, waitingOperands);
        return buf;
    }
    return "";
}

std::string
Backend::dumpState(Cycle now) const
{
    char buf[256];
    if (robCount == 0) {
        std::snprintf(buf, sizeof(buf),
                      "[rob] occupancy=0/%u retired=%llu frozen=%d\n",
                      cfg.robSize,
                      static_cast<unsigned long long>(stats_.retired),
                      retireFrozen ? 1 : 0);
        return buf;
    }
    const RobEntry& head = slot(robBasePos);
    std::snprintf(
        buf, sizeof(buf),
        "[rob] occupancy=%zu/%u retired=%llu frozen=%d lq=%u/%u sq=%u/%u "
        "oldest={pc=0x%llx age=%llu issued=%d completed=%d "
        "mispredicted=%d}\n",
        robCount, cfg.robSize,
        static_cast<unsigned long long>(stats_.retired),
        retireFrozen ? 1 : 0, loadsInFlight, cfg.lqSize, storesInFlight,
        cfg.sqSize, static_cast<unsigned long long>(head.fi.pc),
        static_cast<unsigned long long>(now - head.dispatchedAt),
        head.issued ? 1 : 0, head.completed ? 1 : 0,
        head.mispredicted ? 1 : 0);
    return buf;
}

} // namespace udp
