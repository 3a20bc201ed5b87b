/**
 * @file
 * Tests for the workload subsystem: outcome models, program builder,
 * walker semantics and the true-stream window.
 */

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <unordered_set>

#include "common/rng.h"
#include "sim/cpu.h"
#include "workload/builder.h"
#include "workload/profile.h"
#include "workload/true_stream.h"

namespace udp {
namespace {

// ---------------------------------------------------------------- outcomes

TEST(Outcome, BiasedMatchesProbability)
{
    BranchBehavior b;
    b.cls = BranchClass::Biased;
    b.takenProb = 0.8f;
    b.seed = 99;
    int taken = 0;
    for (std::uint64_t i = 0; i < 20000; ++i) {
        taken += condOutcome(b, 0, i);
    }
    EXPECT_NEAR(taken / 20000.0, 0.8, 0.02);
}

TEST(Outcome, BiasedIsDeterministic)
{
    BranchBehavior b;
    b.cls = BranchClass::Biased;
    b.takenProb = 0.5f;
    b.seed = 7;
    for (std::uint64_t i = 0; i < 100; ++i) {
        EXPECT_EQ(condOutcome(b, 0, i), condOutcome(b, 0, i));
    }
}

TEST(Outcome, PatternDependsOnlyOnMaskedHistory)
{
    BranchBehavior b;
    b.cls = BranchClass::Pattern;
    b.historyBits = 4;
    b.seed = 5;
    // Bits above the mask must not matter.
    EXPECT_EQ(condOutcome(b, 0b0101, 0), condOutcome(b, 0xff0101, 1));
    // A pattern branch is a deterministic function of history.
    for (std::uint64_t h = 0; h < 16; ++h) {
        EXPECT_EQ(condOutcome(b, h, 3), condOutcome(b, h, 77));
    }
}

TEST(Outcome, LoopTripCount)
{
    BranchBehavior b;
    b.cls = BranchClass::Loop;
    b.trip = 5;
    b.seed = 1;
    // Taken 4 times, then not taken, repeating.
    for (std::uint64_t i = 0; i < 20; ++i) {
        bool expect_taken = (i % 5) != 4;
        EXPECT_EQ(condOutcome(b, 0, i), expect_taken) << "iteration " << i;
    }
}

TEST(Outcome, NoiseFlipsApproximatelyAtRate)
{
    BranchBehavior b;
    b.cls = BranchClass::Loop;
    b.trip = 2;
    b.noise = 0.1f;
    b.seed = 3;
    int flips = 0;
    for (std::uint64_t i = 0; i < 20000; ++i) {
        bool base = (i % 2) != 1;
        if (condOutcome(b, 0, i) != base) {
            ++flips;
        }
    }
    EXPECT_NEAR(flips / 20000.0, 0.1, 0.02);
}

TEST(Outcome, WrongPathLoopDegradesToBias)
{
    BranchBehavior b;
    b.cls = BranchClass::Loop;
    b.trip = 4;
    b.seed = 9;
    int taken = 0;
    for (std::uint64_t i = 0; i < 20000; ++i) {
        taken += condOutcomeWrongPath(b, i * 1337, i);
    }
    EXPECT_NEAR(taken / 20000.0, 0.75, 0.03);
}

TEST(Outcome, IndirectChoiceInRange)
{
    IndirectBehavior b;
    b.numTargets = 7;
    b.seed = 4;
    b.historyBits = 8;
    for (std::uint64_t i = 0; i < 1000; ++i) {
        EXPECT_LT(indirectChoice(b, i, i), 7u);
        EXPECT_LT(indirectChoiceWrongPath(b, i, i), 7u);
    }
}

TEST(Outcome, IndirectHistoryDriven)
{
    IndirectBehavior b;
    b.numTargets = 16;
    b.seed = 8;
    b.historyBits = 6;
    b.noise = 0.0f;
    // Same masked history -> same target.
    EXPECT_EQ(indirectChoice(b, 0x2a, 1), indirectChoice(b, 0xff2a, 2));
}

TEST(Outcome, SingleTargetAlwaysZero)
{
    IndirectBehavior b;
    b.numTargets = 1;
    EXPECT_EQ(indirectChoice(b, 123, 456), 0u);
}

TEST(Outcome, MemStride)
{
    MemPattern p;
    p.base = 0x1000;
    p.size = 256;
    p.stride = 16;
    EXPECT_EQ(memAddress(p, 0), 0x1000u);
    EXPECT_EQ(memAddress(p, 1), 0x1010u);
    EXPECT_EQ(memAddress(p, 16), 0x1000u); // wraps at region size
}

TEST(Outcome, MemRandomStaysInRegion)
{
    MemPattern p;
    p.base = 0x8000;
    p.size = 4096;
    p.stride = 0;
    p.seed = 5;
    for (std::uint64_t i = 0; i < 1000; ++i) {
        Addr a = memAddress(p, i);
        EXPECT_GE(a, p.base);
        EXPECT_LT(a, p.base + p.size);
        EXPECT_EQ(a % 8, 0u);
    }
}

// ---------------------------------------------------------------- builder

class BuilderAllProfiles : public ::testing::TestWithParam<std::string>
{
};

TEST_P(BuilderAllProfiles, BuildsValidProgram)
{
    const Profile& p = profileByName(GetParam());
    Program prog = ProgramBuilder::build(p);
    EXPECT_EQ(prog.validate(), "");
    EXPECT_GT(prog.numInstrs(), 1000u);
    // Footprint within 25% of the requested size.
    double want = static_cast<double>(p.codeFootprintKB) * 1024;
    EXPECT_NEAR(static_cast<double>(prog.codeBytes()), want, want * 0.25);
    EXPECT_LT(prog.entry(), prog.numInstrs());
}

INSTANTIATE_TEST_SUITE_P(
    Profiles, BuilderAllProfiles,
    ::testing::Values("mysql", "postgres", "clang", "gcc", "drupal",
                      "verilator", "mongodb", "tomcat", "xgboost",
                      "mediawiki"));

TEST(Builder, DeterministicForSameSeed)
{
    Profile p = profileByName("mysql");
    p.codeFootprintKB = 64;
    Program a = ProgramBuilder::build(p);
    Program b = ProgramBuilder::build(p);
    ASSERT_EQ(a.numInstrs(), b.numInstrs());
    for (InstIdx i = 0; i < a.numInstrs(); i += 37) {
        EXPECT_EQ(a.instrAt(i).type, b.instrAt(i).type);
        EXPECT_EQ(a.instrAt(i).branch, b.instrAt(i).branch);
        EXPECT_EQ(a.instrAt(i).target, b.instrAt(i).target);
    }
}

TEST(Builder, DifferentSeedsDiffer)
{
    Profile p = profileByName("mysql");
    p.codeFootprintKB = 64;
    Program a = ProgramBuilder::build(p);
    p.seed = 9999;
    Program b = ProgramBuilder::build(p);
    bool any_diff = a.numInstrs() != b.numInstrs();
    for (InstIdx i = 0; !any_diff && i < std::min(a.numInstrs(),
                                                  b.numInstrs());
         ++i) {
        any_diff = a.instrAt(i).type != b.instrAt(i).type ||
                   a.instrAt(i).branch != b.instrAt(i).branch;
    }
    EXPECT_TRUE(any_diff);
}

TEST(Builder, BranchDensityTracksRunLength)
{
    Profile p;
    p.name = "dense";
    p.seed = 3;
    p.codeFootprintKB = 64;
    p.runLenMin = 2;
    p.runLenMax = 4;
    Program dense = ProgramBuilder::build(p);

    p.name = "sparse";
    p.runLenMin = 20;
    p.runLenMax = 40;
    Program sparse = ProgramBuilder::build(p);

    double dense_br = static_cast<double>(dense.numStaticBranches()) /
                      static_cast<double>(dense.numInstrs());
    double sparse_br = static_cast<double>(sparse.numStaticBranches()) /
                       static_cast<double>(sparse.numInstrs());
    EXPECT_GT(dense_br, sparse_br * 1.5);
}

TEST(Builder, MemPatternPoolBounded)
{
    Profile p;
    p.seed = 4;
    p.codeFootprintKB = 128;
    p.memPatternPool = 16;
    Program prog = ProgramBuilder::build(p);
    // Diamond load-dep emission may add a handful above the pool bound
    // before the pool fills; it must stay in the same order of magnitude.
    EXPECT_LE(prog.numMemPatterns(), 24u);
}

TEST(ProgramBuilder, RejectsUnencodableProfiles)
{
    // Both limits are checked before generation: a 32 MiB footprint would
    // take seconds to generate, and a distance of 32 would wrap to 0 in
    // the 5-bit field without validate() seeing it.
    Profile big = profileByName("mysql");
    big.codeFootprintKB = 32768;
    Profile far = profileByName("mysql");
    far.maxDepDist = 32;
    for (const auto& [p, field] : {std::pair{big, "codeFootprintKB=32768"},
                                   std::pair{far, "maxDepDist=32"}}) {
        try {
            ProgramBuilder::build(p);
            ADD_FAILURE() << field << " was accepted";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
                << e.what();
        }
    }

    // The largest distance that fits is generated and kept.
    far.maxDepDist = kMaxDepDist;
    far.codeFootprintKB = 64;
    const Program prog = ProgramBuilder::build(far);
    std::uint32_t longest = 0;
    for (InstIdx i = 0; i < prog.numInstrs(); ++i) {
        longest = std::max<std::uint32_t>(
            {longest, static_cast<std::uint32_t>(prog.instrAt(i).dep1),
             static_cast<std::uint32_t>(prog.instrAt(i).dep2)});
    }
    EXPECT_EQ(longest, kMaxDepDist);
}

// ---------------------------------------------------------------- walker

TEST(Walker, FollowsStaticSemantics)
{
    Profile p = profileByName("mysql");
    p.codeFootprintKB = 64;
    Program prog = ProgramBuilder::build(p);
    Walker w(prog);
    for (int i = 0; i < 50000; ++i) {
        ArchInstr a = w.step();
        const Instr& in = prog.instrAt(a.idx);
        switch (in.branch) {
          case BranchKind::None:
            EXPECT_EQ(a.nextPc, a.pc + kInstrBytes);
            break;
          case BranchKind::CondDirect:
            if (a.taken) {
                EXPECT_EQ(a.nextPc, prog.pcOf(in.target));
            } else {
                EXPECT_EQ(a.nextPc, a.pc + kInstrBytes);
            }
            break;
          case BranchKind::Jump:
          case BranchKind::Call:
            EXPECT_EQ(a.nextPc, prog.pcOf(in.target));
            break;
          default:
            EXPECT_TRUE(a.taken);
            EXPECT_EQ(a.nextPc, a.takenTarget);
            break;
        }
        EXPECT_TRUE(prog.validPc(a.nextPc));
    }
}

TEST(Walker, CallsAndReturnsMatch)
{
    Profile p = profileByName("mysql");
    p.codeFootprintKB = 64;
    Program prog = ProgramBuilder::build(p);
    Walker w(prog);
    // Track call/return pairing: after a call at pc X, the matching
    // return must land at X+4.
    std::vector<Addr> expected_returns;
    int checked = 0;
    for (int i = 0; i < 100000 && checked < 100; ++i) {
        ArchInstr a = w.step();
        const Instr& in = prog.instrAt(a.idx);
        if (isCall(in.branch)) {
            expected_returns.push_back(a.pc + kInstrBytes);
        } else if (in.branch == BranchKind::Return &&
                   !expected_returns.empty()) {
            EXPECT_EQ(a.nextPc, expected_returns.back());
            expected_returns.pop_back();
            ++checked;
        }
    }
    EXPECT_GT(checked, 0);
}

TEST(Walker, MemAddressesOnlyForMemOps)
{
    Profile p = profileByName("postgres");
    p.codeFootprintKB = 64;
    Program prog = ProgramBuilder::build(p);
    Walker w(prog);
    for (int i = 0; i < 20000; ++i) {
        ArchInstr a = w.step();
        const Instr& in = prog.instrAt(a.idx);
        bool is_mem = in.type == InstrType::Load ||
                      in.type == InstrType::Store;
        EXPECT_EQ(a.memAddr != kInvalidAddr, is_mem);
    }
}

TEST(Walker, DeterministicReplay)
{
    Profile p = profileByName("drupal");
    p.codeFootprintKB = 64;
    Program prog = ProgramBuilder::build(p);
    Walker a(prog);
    Walker b(prog);
    for (int i = 0; i < 20000; ++i) {
        ArchInstr x = a.step();
        ArchInstr y = b.step();
        ASSERT_EQ(x.pc, y.pc);
        ASSERT_EQ(x.nextPc, y.nextPc);
        ASSERT_EQ(x.memAddr, y.memAddr);
    }
}

/** hashCombine() over every field of @p w's next @p steps instructions. */
std::uint64_t
streamHash(Walker& w, std::uint64_t steps)
{
    std::uint64_t h = 0;
    for (std::uint64_t i = 0; i < steps; ++i) {
        const ArchInstr a = w.step();
        for (std::uint64_t v : {std::uint64_t{a.idx}, a.pc, a.nextPc,
                                std::uint64_t{a.taken}, a.takenTarget,
                                a.memAddr}) {
            h = hashCombine(h, v);
        }
    }
    return h;
}

TEST(Walker, StreamMatchesPinnedHashPastTheGoldenWindow)
{
    // 500K steps, ten times the golden Reports' warmup, on the largest
    // image and on the one that loops most. The hashes and counts were
    // taken from a Walker with a dense count array, so they hold however
    // the counts are stored.
    struct Pinned
    {
        const char* app;
        std::uint64_t hash;
        std::uint32_t entryVisits;
        std::uint32_t maxCount;
    };
    const Pinned pinned[] = {
        {"verilator", 0x80a4e7d83ee1e3e6ull, 39, 110},
        {"xgboost", 0x0678fccbb030700bull, 758, 758},
    };
    for (const Pinned& pin : pinned) {
        const Program prog = ProgramBuilder::build(profileByName(pin.app));
        Walker w(prog);
        EXPECT_EQ(streamHash(w, 500'000), pin.hash) << pin.app;
        // Every step is counted once; the dispatcher loop wrapped to the
        // entry pin.entryVisits times.
        const std::span<const std::uint32_t> counts = w.instanceCounts();
        ASSERT_EQ(counts.size(), prog.numInstrs());
        EXPECT_EQ(std::accumulate(counts.begin(), counts.end(),
                                  std::uint64_t{0}),
                  500'000u)
            << pin.app;
        EXPECT_EQ(counts[prog.entry()], pin.entryVisits) << pin.app;
        EXPECT_EQ(*std::max_element(counts.begin(), counts.end()),
                  pin.maxCount)
            << pin.app;
    }
}

TEST(Walker, CpuRunLeavesUnreachedCountPagesUntouched)
{
    // verilator's 1,030,599 counts span 1,007 pages of 4 KiB. A dense array
    // would make all of them resident when the Cpu is built; the mapping
    // holds only the pages of code the first 20K instructions reached.
    const Program prog = ProgramBuilder::build(profileByName("verilator"));
    Cpu cpu(prog, presets::fdipBaseline());
    cpu.runUntilRetired(20'000);
    const std::span<const std::uint32_t> counts =
        cpu.stream().walker().instanceCounts();
    const auto page = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
    ASSERT_EQ(reinterpret_cast<std::uintptr_t>(counts.data()) % page, 0u);
    const std::size_t pages = (counts.size_bytes() + page - 1) / page;
    std::vector<unsigned char> resident(pages);
    ASSERT_EQ(::mincore(const_cast<std::uint32_t*>(counts.data()),
                        counts.size_bytes(), resident.data()),
              0);
    const auto touched = static_cast<std::size_t>(
        std::count_if(resident.begin(), resident.end(),
                      [](unsigned char r) { return (r & 1) != 0; }));
    EXPECT_GT(touched, 0u);
    EXPECT_LT(touched, pages / 4) << touched << " of " << pages;
}

// ------------------------------------------------------------ true stream

TEST(TrueStream, MatchesFreshWalker)
{
    Profile p = profileByName("tomcat");
    p.codeFootprintKB = 64;
    Program prog = ProgramBuilder::build(p);
    TrueStream s(prog);
    Walker w(prog);
    for (std::uint64_t i = 0; i < 5000; ++i) {
        ArchInstr expect = w.step();
        EXPECT_EQ(s.at(i).pc, expect.pc);
        EXPECT_EQ(s.at(i).nextPc, expect.nextPc);
    }
}

TEST(TrueStream, RandomAccessWithinWindow)
{
    Profile p = profileByName("tomcat");
    p.codeFootprintKB = 64;
    Program prog = ProgramBuilder::build(p);
    TrueStream s(prog);
    Addr pc100 = s.at(100).pc;
    Addr pc50 = s.at(50).pc;
    EXPECT_EQ(s.at(100).pc, pc100);
    EXPECT_EQ(s.at(50).pc, pc50);
}

TEST(TrueStream, RetireBelowShrinksWindow)
{
    Profile p = profileByName("tomcat");
    p.codeFootprintKB = 64;
    Program prog = ProgramBuilder::build(p);
    TrueStream s(prog);
    s.at(999);
    EXPECT_EQ(s.windowSize(), 1000u);
    s.retireBelow(500);
    EXPECT_EQ(s.firstLive(), 500u);
    EXPECT_EQ(s.windowSize(), 500u);
    EXPECT_NE(s.at(500).pc, kInvalidAddr);
}

TEST(TrueStream, WindowGrowthAcrossRetirementMatchesWalker)
{
    Profile p = profileByName("tomcat");
    p.codeFootprintKB = 64;
    Program prog = ProgramBuilder::build(p);
    Walker w(prog);
    std::vector<ArchInstr> truth;
    for (int i = 0; i < 6000; ++i) {
        truth.push_back(w.step());
    }

    // The window widens in steps (growing the ring past 64, 128, ...,
    // 1024 entries) while retirement keeps moving its oldest end, so
    // each growth copies a wrapped ring.
    TrueStream s(prog);
    std::uint64_t retired = 0;
    std::uint64_t ahead = 0;
    for (std::uint64_t width = 40; width <= 1500; width += 20) {
        for (; ahead < retired + width; ++ahead) {
            ASSERT_EQ(s.at(ahead).pc, truth[ahead].pc) << "pos " << ahead;
        }
        retired += 37;
        s.retireBelow(retired);
        ASSERT_EQ(s.firstLive(), retired);
        ASSERT_EQ(s.windowSize(), ahead - retired);
        for (std::uint64_t i = retired; i < ahead; i += 7) {
            ASSERT_EQ(s.at(i).pc, truth[i].pc) << "pos " << i;
            ASSERT_EQ(s.at(i).nextPc, truth[i].nextPc) << "pos " << i;
            ASSERT_EQ(s.at(i).memAddr, truth[i].memAddr) << "pos " << i;
        }
    }
    EXPECT_GT(ahead, 4000u);
}

// ---------------------------------------------------------------- program

TEST(Program, PcIndexRoundTrip)
{
    Profile p = profileByName("mysql");
    p.codeFootprintKB = 64;
    Program prog = ProgramBuilder::build(p);
    for (InstIdx i = 0; i < prog.numInstrs(); i += 101) {
        EXPECT_EQ(prog.indexOf(prog.pcOf(i)), i);
        EXPECT_TRUE(prog.validPc(prog.pcOf(i)));
    }
    EXPECT_FALSE(prog.validPc(prog.kCodeBase - 4));
    EXPECT_FALSE(prog.validPc(prog.kCodeBase + prog.codeBytes()));
    EXPECT_FALSE(prog.validPc(prog.kCodeBase + 2)); // misaligned
}

TEST(Program, ValidateCatchesBadTarget)
{
    std::vector<Instr> instrs(4);
    instrs[0].type = InstrType::Branch;
    instrs[0].branch = BranchKind::Jump;
    instrs[0].target = 1000; // out of range
    Program prog = Program::assemble("bad", std::move(instrs), 0, {}, {},
                                     {}, {});
    EXPECT_NE(prog.validate(), "");
}

TEST(Program, ValidateCatchesKindMismatch)
{
    std::vector<Instr> instrs(2);
    instrs[0].type = InstrType::Alu;
    instrs[0].branch = BranchKind::Jump; // mismatch: Alu can't be a branch
    instrs[0].target = 1;
    Program prog = Program::assemble("bad", std::move(instrs), 0, {}, {},
                                     {}, {});
    EXPECT_NE(prog.validate(), "");
}

TEST(Program, ValidateCatchesUnknownBranchKind)
{
    // An image read from disk can carry any value the 3-bit kind holds.
    std::vector<Instr> instrs(2);
    instrs[0].type = InstrType::Branch;
    instrs[0].branch = static_cast<BranchKind>(7);
    instrs[0].target = 1;
    Program prog = Program::assemble("bad", std::move(instrs), 0, {}, {},
                                     {}, {});
    EXPECT_NE(prog.validate().find("unknown branch kind 7"),
              std::string::npos)
        << prog.validate();
}

TEST(Profiles, AllTenPresent)
{
    EXPECT_EQ(datacenterProfiles().size(), 10u);
    EXPECT_THROW(profileByName("nonexistent"), std::out_of_range);
}

} // namespace
} // namespace udp
