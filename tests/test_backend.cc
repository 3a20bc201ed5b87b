/**
 * @file
 * Unit tests for the out-of-order backend: dispatch admission, dataflow
 * scheduling, functional-unit limits, branch resolution, recovery/squash
 * and in-order retirement — driven directly through the Backend API with
 * a hand-crafted program.
 */

#include <gtest/gtest.h>

#include <bit>
#include <functional>

#include "backend/backend.h"
#include "common/rng.h"

namespace udp {
namespace {

/** A test's edits to backendProgram()'s instructions before assembly:
 *  the static types, latencies and dependences the test needs. */
using ProgramEdit = std::function<void(std::vector<Instr>&)>;

/**
 * Program used by backend tests, before @p edit:
 *   0..7   alu, except 4: load; no dependences, latency 1
 *   8      cond branch (Loop trip 1000 -> effectively always taken) -> 0
 *   9..15  alu (sequential tail)
 */
Program
backendProgram(const ProgramEdit& edit)
{
    std::vector<Instr> ins(16);
    ins[8].type = InstrType::Branch;
    ins[8].branch = BranchKind::CondDirect;
    ins[8].target = 0;
    ins[8].behavior = 0;
    ins[4].type = InstrType::Load;
    ins[4].behavior = 0;
    BranchBehavior loop;
    loop.cls = BranchClass::Loop;
    loop.trip = 1000;
    MemPattern mp;
    mp.base = Program::kDataBase;
    mp.size = 4096;
    mp.stride = 64;
    if (edit) {
        edit(ins);
    }
    Program p = Program::assemble("be", std::move(ins), 0, {loop}, {}, {},
                                  {mp});
    EXPECT_EQ(p.validate(), "");
    return p;
}

struct BackendHarness
{
    Program prog;
    TrueStream stream{prog};
    MemSystem mem{MemSysConfig{}};
    Bpu bpu{BpuConfig{}};
    BranchRecordPool records;
    BackendConfig cfg;
    std::unique_ptr<Backend> be;

    explicit BackendHarness(const ProgramEdit& edit = {},
                            const BackendConfig& c = BackendConfig())
        : prog(backendProgram(edit)), cfg(c)
    {
        be = std::make_unique<Backend>(prog, stream, mem, bpu, records,
                                       cfg);
    }

    /** One backend cycle followed by the full invariant check. */
    ResteerRequest
    tick(Cycle now)
    {
        ResteerRequest r = be->tick(now);
        EXPECT_EQ(be->checkInvariants(/*full=*/true), "") << "cycle " << now;
        return r;
    }

    /** Builds the FTQ slot for true-stream position @p i. */
    FtqInstr
    slot(std::uint64_t i)
    {
        const ArchInstr& a = stream.at(i);
        const Instr& sin = prog.instrAt(a.idx);
        FtqInstr fi;
        fi.dynId = i + 1;
        fi.idx = a.idx;
        fi.pc = a.pc;
        fi.onPath = true;
        fi.streamIdx = i;
        if (sin.branch == BranchKind::CondDirect) {
            fi.record = records.alloc(fi.dynId);
            BranchRecord& rec = records.at(fi.record);
            rec.ckpt = bpu.checkpoint();
            rec.cond = bpu.predictCond(fi.pc);
            fi.predTaken = rec.cond.taken;
            fi.predTarget = prog.pcOf(sin.target);
        }
        return fi;
    }

    /** The static instruction of @p fi. */
    const Instr& instrOf(const FtqInstr& fi) const
    {
        return prog.instrAt(fi.idx);
    }
};

TEST(Backend, DispatchAdmissionLimits)
{
    BackendHarness h;
    // Fill the ROB to its limit with simple ALU ops.
    std::uint64_t i = 0;
    unsigned dispatched = 0;
    Cycle now = 1;
    while (true) {
        FtqInstr fi = h.slot(i);
        if (h.instrOf(fi).branch != BranchKind::None) {
            ++i;
            continue; // keep it branch-free: no retirement progress needed
        }
        if (!h.be->canDispatch(fi)) {
            break;
        }
        h.be->dispatch(fi, now);
        ++dispatched;
        ++i;
        if (dispatched > 500) {
            break;
        }
    }
    // The unified RS (125) binds before the ROB (352) without issue.
    EXPECT_EQ(dispatched, h.cfg.rsSize);
}

TEST(Backend, RetiresInOrderAndCounts)
{
    BackendHarness h;
    Cycle now = 1;
    for (std::uint64_t i = 0; i < 6; ++i) {
        h.be->dispatch(h.slot(i), now);
    }
    std::uint64_t before = h.be->retired();
    for (now = 2; now < 600 && h.be->retired() < before + 6; ++now) {
        h.be->tick(now);
    }
    EXPECT_EQ(h.be->retired(), before + 6);
    EXPECT_EQ(h.be->robOccupancy(), 0u);
}

/** Ticks the backend once and appends the pcs that tick retired. */
void
tickAndCollect(BackendHarness& h, Cycle now, std::vector<Addr>& retired_pcs)
{
    h.tick(now);
    const std::vector<Addr>& pcs = h.be->retiredPcs();
    EXPECT_LE(pcs.size(), h.cfg.retireWidth);
    retired_pcs.insert(retired_pcs.end(), pcs.begin(), pcs.end());
}

TEST(Backend, RetiredPcsListEveryPc)
{
    BackendHarness h;
    std::vector<Addr> retired_pcs;
    // Retirement releases stream positions, so read the pcs up front.
    std::vector<Addr> expected;
    Cycle now = 1;
    for (std::uint64_t i = 0; i < 4; ++i) {
        FtqInstr fi = h.slot(i);
        expected.push_back(fi.pc);
        h.be->dispatch(fi, now);
    }

    // A tick with retirement frozen lists nothing, even once the oldest
    // instructions have completed.
    h.be->setRetireFrozen(true);
    for (now = 2; now < 20; ++now) {
        h.be->tick(now);
        EXPECT_TRUE(h.be->retiredPcs().empty()) << "cycle " << now;
    }
    EXPECT_EQ(h.be->retired(), 0u);
    h.be->setRetireFrozen(false);

    for (; now < 600; ++now) {
        tickAndCollect(h, now, retired_pcs);
    }
    EXPECT_EQ(retired_pcs, expected);
}

TEST(Backend, IssueWidthBoundsThroughput)
{
    BackendHarness h;
    Cycle now = 1;
    unsigned count = 0;
    // backendProgram()'s ALU ops depend on nothing.
    for (std::uint64_t i = 0; count < 60; ++i) {
        FtqInstr fi = h.slot(i);
        if (h.instrOf(fi).type != InstrType::Alu) {
            continue;
        }
        if (h.be->canDispatch(fi)) {
            h.be->dispatch(fi, now);
            ++count;
        }
    }
    h.be->tick(now);
    // Only numAlu can issue per cycle even though 60 are ready.
    EXPECT_EQ(h.be->stats().issued, h.cfg.numAlu);
}

TEST(Backend, DependenceDelaysIssue)
{
    // Producer: a load (long latency). Consumer: depends on it.
    BackendHarness h([](std::vector<Instr>& ins) { ins[5].dep1 = 1; });
    Cycle now = 1;
    FtqInstr ld = h.slot(4); // the load at index 4
    ASSERT_EQ(h.instrOf(ld).type, InstrType::Load);
    h.be->dispatch(ld, now);
    h.be->dispatch(h.slot(5), now);

    h.be->tick(now); // load issues; consumer must wait
    EXPECT_EQ(h.be->stats().issued, 1u);
    // Run until both retire; the consumer needed the load's completion.
    for (now = 2; now < 500 && h.be->retired() < 2; ++now) {
        h.be->tick(now);
    }
    EXPECT_EQ(h.be->retired(), 2u);
}

TEST(Backend, CorrectPredictionNoResteer)
{
    BackendHarness h;
    Cycle now = 1;
    // Warm the direction so TAGE predicts taken (loop trip 1000).
    for (std::uint64_t i = 0; i < 9; ++i) {
        h.be->dispatch(h.slot(i), now);
    }
    bool resteer_seen = false;
    for (now = 2; now < 600; ++now) {
        ResteerRequest r = h.be->tick(now);
        resteer_seen |= r.valid && h.records.size() != 0;
        if (h.be->robOccupancy() == 0) {
            break;
        }
    }
    // The branch may mispredict cold exactly once; after training the
    // predictor the stream's branch is always taken. Just assert the
    // backend resolved it and retired everything.
    EXPECT_GT(h.be->stats().branchesResolved, 0u);
    EXPECT_EQ(h.be->robOccupancy(), 0u);
    (void)resteer_seen;
}

TEST(Backend, MispredictSquashesYounger)
{
    BackendHarness h;
    Cycle now = 1;
    // Dispatch the on-path branch but force a wrong prediction.
    for (std::uint64_t i = 0; i < 8; ++i) {
        h.be->dispatch(h.slot(i), now);
    }
    FtqInstr br = h.slot(8);
    br.predTaken = false; // truth: taken (trip-1000 loop)
    br.predTarget = kInvalidAddr;
    h.be->dispatch(br, now);
    // "Wrong path" youngsters that must be squashed.
    for (std::uint64_t fake = 100; fake < 110; ++fake) {
        FtqInstr wp = h.slot(9); // any instruction
        wp.dynId = fake + 1000;
        wp.onPath = false;
        if (h.be->canDispatch(wp)) {
            h.be->dispatch(wp, now);
        }
    }
    std::size_t occupancy_before = h.be->robOccupancy();
    ResteerRequest req;
    for (now = 2; now < 100 && !req.valid; ++now) {
        req = h.be->tick(now);
    }
    ASSERT_TRUE(req.valid);
    EXPECT_TRUE(req.aligned);          // on-path branch recovery
    EXPECT_EQ(req.nextStreamIdx, 9u);  // resumes after the branch
    EXPECT_EQ(req.newPc, h.stream.at(8).nextPc);
    EXPECT_GT(h.be->stats().squashed, 0u);
    EXPECT_LT(h.be->robOccupancy(), occupancy_before);
}

TEST(Backend, LoadStoreQueueLimits)
{
    BackendHarness h;
    Cycle now = 1;
    unsigned loads = 0;
    // Dispatch loads only until refused.
    while (true) {
        FtqInstr ld = h.slot(4);
        ld.dynId = 10'000 + loads;
        if (!h.be->canDispatch(ld)) {
            break;
        }
        h.be->dispatch(ld, now);
        if (++loads > 200) {
            break;
        }
    }
    EXPECT_EQ(loads, h.cfg.lqSize);
}

TEST(Backend, IssuesOldestReadyFirstUnderPortLimits)
{
    BackendHarness h;
    ASSERT_EQ(h.cfg.numLoad, 2u);
    // Three independent loads, oldest first: the first two read one line
    // and the third another. The first access to a line misses and
    // installs it, so one L1 hit in the first cycle means the two oldest
    // issued together. A younger ALU op still takes its own port.
    FtqInstr ld0 = h.slot(4);
    FtqInstr ld1 = ld0;
    ld1.dynId = 1000;
    FtqInstr ld2 = h.slot(13);
    ASSERT_EQ(h.instrOf(ld2).type, InstrType::Load);
    ASSERT_NE(lineAddr(h.stream.at(4).memAddr),
              lineAddr(h.stream.at(13).memAddr));
    FtqInstr alu = h.slot(14);
    ASSERT_EQ(h.instrOf(alu).type, InstrType::Alu);
    for (const FtqInstr& fi : {ld0, ld1, ld2, alu}) {
        h.be->dispatch(fi, 1);
    }

    h.tick(1);
    EXPECT_EQ(h.be->stats().issued, 3u); // two loads + the ALU op
    EXPECT_EQ(h.mem.stats().dloads, 2u);
    EXPECT_EQ(h.mem.stats().dloadL1Hits, 1u);

    h.tick(2);
    EXPECT_EQ(h.be->stats().issued, 4u);
    EXPECT_EQ(h.mem.stats().dloads, 3u);
    EXPECT_EQ(h.mem.stats().dloadL1Hits, 1u);
}

TEST(Backend, RefilledSlotWaitsOnItsOwnProducer)
{
    BackendHarness h([](std::vector<Instr>& ins) {
        ins[5].dep1 = ins[5].dep2 = 1;
        ins[6].dep1 = ins[6].dep2 = 4;
        ins[0].execLat = 5;
        ins[1].dep1 = 1;
    });
    auto wrongPath = [](FtqInstr fi, std::uint64_t dyn_id) {
        fi.dynId = dyn_id;
        fi.onPath = false;
        return fi;
    };
    // Position 0: an on-path load that misses to memory. Position 1: the
    // loop branch, forced to predict not-taken (truth: taken).
    FtqInstr ld = h.slot(4);
    FtqInstr br = h.slot(8);
    br.predTaken = false;
    br.predTarget = kInvalidAddr;
    // Positions 2-4, wrong path: a load that misses (instruction 4), a
    // consumer naming it in both operands (5), and a consumer naming
    // position 0 in both (6).
    FtqInstr wp_ld = wrongPath(h.slot(4), 2000);
    FtqInstr wp_use = wrongPath(h.slot(5), 2001);
    FtqInstr wp_use0 = wrongPath(h.slot(6), 2002);
    // Refill of positions 2-3 after recovery: a 5-cycle ALU op
    // (instruction 0) and its consumer (1).
    FtqInstr slow = h.slot(9);
    ASSERT_EQ(h.instrOf(slow).type, InstrType::Alu);
    FtqInstr use = h.slot(10);

    for (const FtqInstr& fi : {ld, br, wp_ld, wp_use, wp_use0}) {
        h.be->dispatch(fi, 1);
    }
    h.tick(1); // both loads and the branch issue; the consumers wait
    EXPECT_EQ(h.be->stats().issued, 3u);
    h.tick(2);
    ResteerRequest req = h.tick(3); // branch resolves: squash 2-4
    ASSERT_TRUE(req.valid);
    EXPECT_EQ(h.be->stats().squashed, 3u);
    EXPECT_EQ(h.be->robOccupancy(), 2u);

    h.be->dispatch(slow, 3);
    h.be->dispatch(use, 3);
    h.tick(4);
    EXPECT_EQ(h.be->stats().issued, 4u); // the ALU op; `use` waits on it
    for (Cycle now = 5; now < 9; ++now) {
        h.tick(now);
        EXPECT_EQ(h.be->stats().issued, 4u) << "cycle " << now;
    }
    h.tick(9); // ALU op completes; neither old load has
    EXPECT_EQ(h.be->stats().issued, 5u);
    EXPECT_EQ(h.be->retired(), 0u);

    for (Cycle now = 10; now < 2000 && h.be->retired() < 4; ++now) {
        h.tick(now);
    }
    EXPECT_EQ(h.be->retired(), 4u);
    EXPECT_EQ(h.be->stats().issued, 5u);
}

TEST(Backend, SharedProducerOperandsIssueOnce)
{
    // A 3-cycle producer, and a consumer naming it in both operands.
    BackendHarness h([](std::vector<Instr>& ins) {
        ins[0].execLat = 3;
        ins[1].dep1 = ins[1].dep2 = 1;
    });
    h.be->dispatch(h.slot(0), 1);
    h.be->dispatch(h.slot(1), 1);

    h.tick(1); // producer issues, completes at cycle 4
    EXPECT_EQ(h.be->stats().issued, 1u);
    h.tick(2);
    h.tick(3);
    EXPECT_EQ(h.be->stats().issued, 1u);
    h.tick(4);
    EXPECT_EQ(h.be->stats().issued, 2u);
    for (Cycle now = 5; now < 50; ++now) {
        h.tick(now);
    }
    EXPECT_EQ(h.be->stats().issued, 2u);
    EXPECT_EQ(h.be->retired(), 2u);
}

/** Completion wheel span: a latency beyond this is a later rotation. */
constexpr Cycle kWheelSpan = 64;

TEST(Backend, LoadBeyondTheWheelCompletesOnTime)
{
    // The consumer (instruction 5) waits for the load at 4.
    BackendHarness h([](std::vector<Instr>& ins) { ins[5].dep1 = 1; });
    // A DRAM backlog: cold data lines ahead of the load in the channel.
    // The twin memory system replays the same accesses to predict the
    // load's completion cycle.
    MemSystem twin{MemSysConfig{}};
    for (Addr k = 0; k < 30; ++k) {
        Addr addr = 0x7000'0000 + k * 4096;
        h.mem.dload(addr, 1, true);
        twin.dload(addr, 1, true);
    }
    FtqInstr ld = h.slot(4);
    ASSERT_EQ(h.instrOf(ld).type, InstrType::Load);
    const Cycle done = twin.dload(h.stream.at(4).memAddr, 1, true);
    ASSERT_GT(done, 1 + 4 * kWheelSpan);

    h.be->dispatch(ld, 1);
    h.be->dispatch(h.slot(5), 1);
    for (Cycle now = 1; now < done; ++now) {
        h.tick(now);
        ASSERT_EQ(h.be->stats().issued, 1u) << "cycle " << now;
    }
    h.tick(done); // the load completes and wakes its consumer
    EXPECT_EQ(h.be->stats().issued, 2u);
}

TEST(Backend, RedispatchedSlotIgnoresItsSquashedCompletion)
{
    // Position 1 holds a wrong-path load that misses to DRAM, squashed
    // before it completes. The refill of its slot, an on-path load, is
    // due either in a later rotation of the squashed load's wheel bucket
    // (it issues one wheel span after it) or in another bucket; its
    // consumer must issue exactly then, not when the squashed load was
    // due. The consumer's slot held a squashed op that was ready but not
    // issued. A twin memory system replays both loads to time them.
    struct Case
    {
        Cycle refillIssue;
        bool sameBucket;
    };
    for (Case c : {Case{1 + kWheelSpan, true}, Case{4, false}}) {
        SCOPED_TRACE(testing::Message() << "refill issues at cycle "
                                        << c.refillIssue);
        // Instruction 0 becomes a load: the squashed op and the refill.
        // Instruction 1 is its consumer.
        BackendHarness h([](std::vector<Instr>& ins) {
            ins[0].type = InstrType::Load;
            ins[0].behavior = 0;
            ins[1].dep1 = 1;
        });
        FtqInstr br = h.slot(8); // position 0, forced wrong
        br.predTaken = false; // truth: taken (trip-1000 loop)
        br.predTarget = kInvalidAddr;
        FtqInstr wp = h.slot(9); // position 1, wrong path
        wp.dynId = 5000;
        wp.onPath = false;
        FtqInstr wp_ready = wp; // position 2, wrong path
        wp_ready.dynId = 5001;
        FtqInstr refill = h.slot(9); // position 1 again
        FtqInstr use = h.slot(10); // position 2

        // The wrong-path load reads the address the backend's wrong-path
        // oracle gives it (Backend::issue).
        const Addr wp_addr =
            memAddress(h.prog.memPattern(h.instrOf(wp)), mix64(wp.dynId));
        const Addr refill_addr = h.stream.at(9).memAddr;
        ASSERT_NE(lineAddr(wp_addr), lineAddr(refill_addr));
        MemSystem twin{MemSysConfig{}};
        const Cycle squashed_due = twin.dload(wp_addr, 1, false);
        const Cycle due = twin.dload(refill_addr, c.refillIssue, true);
        ASSERT_GT(due, squashed_due);
        ASSERT_EQ((due - squashed_due) % kWheelSpan == 0, c.sameBucket);

        h.be->dispatch(br, 1);
        h.be->dispatch(wp, 1);
        h.tick(1); // both issue: the wrong-path load is due at squashed_due
        h.tick(2);
        h.be->dispatch(wp_ready, 2);
        // The branch resolves, squashes positions 1-2 and retires.
        ASSERT_TRUE(h.tick(3).valid);
        ASSERT_EQ(h.be->robOccupancy(), 0u);
        ASSERT_EQ(h.be->retired(), 1u);
        for (Cycle now = 4; now < c.refillIssue; ++now) {
            h.tick(now);
        }
        h.be->dispatch(refill, c.refillIssue - 1);
        h.be->dispatch(use, c.refillIssue - 1);
        for (Cycle now = c.refillIssue; now < due; ++now) {
            h.tick(now);
            ASSERT_EQ(h.be->stats().issued, 3u) << "cycle " << now;
        }
        h.tick(due);
        EXPECT_EQ(h.be->stats().issued, 4u);
    }
}

TEST(Backend, RetiresThroughTheRingManyTimes)
{
    BackendConfig cfg;
    cfg.robSize = 5;
    // Branch-free instructions with short dependences, some reaching
    // producers that have already retired: the eight non-branches of the
    // loop body, dispatched without the branch, so a distance counts
    // dispatched instructions.
    BackendHarness h(
        [](std::vector<Instr>& ins) {
            for (unsigned k = 0; k < 8; ++k) {
                ins[k].dep1 = k % 3;
                ins[k].dep2 = k % 4 == 1 ? 6 : 0;
            }
        },
        cfg);
    const std::size_t ring = std::bit_ceil(cfg.robSize);

    // Built up front because retirement releases stream positions.
    std::vector<FtqInstr> instrs;
    for (std::uint64_t i = 0; instrs.size() < 3 * ring + 7; ++i) {
        FtqInstr fi = h.slot(i);
        if (h.instrOf(fi).branch == BranchKind::None) {
            instrs.push_back(fi);
        }
    }
    std::vector<Addr> retired_pcs;

    std::size_t next = 0;
    for (Cycle now = 1; now < 20000 && h.be->retired() < instrs.size();
         ++now) {
        tickAndCollect(h, now, retired_pcs);
        for (unsigned n = 0; n < h.cfg.dispatchWidth &&
                             next < instrs.size() &&
                             h.be->canDispatch(instrs[next]);
             ++n) {
            h.be->dispatch(instrs[next++], now);
        }
        ASSERT_EQ(h.be->robOccupancy(), next - h.be->retired());
        ASSERT_LE(h.be->robOccupancy(), cfg.robSize);
    }
    EXPECT_EQ(h.be->retired(), instrs.size());
    EXPECT_EQ(h.be->robOccupancy(), 0u);
    ASSERT_EQ(retired_pcs.size(), instrs.size());
    for (std::size_t i = 0; i < instrs.size(); ++i) {
        EXPECT_EQ(retired_pcs[i], instrs[i].pc) << "instruction " << i;
    }
}

} // namespace
} // namespace udp
