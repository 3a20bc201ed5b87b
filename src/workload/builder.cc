#include "workload/builder.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/intmath.h"

namespace udp {

namespace {

[[noreturn]] void
reject(const Profile& p, const std::string& why)
{
    throw std::invalid_argument("profile " + p.name + ": " + why);
}

std::string
field(const char* name, std::uint64_t value)
{
    return std::string(name) + "=" + std::to_string(value);
}

/**
 * Throws std::invalid_argument naming the first field of @p p that cannot
 * be generated. An Instr's fields and the behaviours are narrow: a code
 * size, dependence distance, fanout or history length that does not fit
 * would be truncated. The other rules keep every budget and draw range
 * non-empty and every divisor non-zero; without them an empty footprint
 * generates until memory runs out, and the rest die of SIGFPE in the
 * build (or, for loopTripMin, in the run).
 */
void
checkProfile(const Profile& p)
{
    const struct
    {
        const char* name;
        std::uint32_t value;
        std::uint32_t max;
        const char* holder;
    } caps[] = {
        {"codeFootprintKB", p.codeFootprintKB,
         (kMaxProgramInstrs - 1) * kInstrBytes / 1024,
         "an Instr's 23-bit instruction indices address"},
        {"maxDepDist", p.maxDepDist, kMaxDepDist,
         "an Instr's dependence field holds"},
        {"switchFanoutMax", p.switchFanoutMax, 0xffff,
         "an indirect behaviour's target count holds"},
        {"indirectHistBits", p.indirectHistBits, 63,
         "a target choice's history mask shifts"},
        {"patternBitsMax", p.patternBitsMax, 255,
         "a cond behaviour's history length holds"},
    };
    for (const auto& c : caps) {
        if (c.value > c.max) {
            reject(p, field(c.name, c.value) + " exceeds " +
                          std::to_string(c.max) + ", the most " + c.holder);
        }
    }
    const std::pair<const char*, std::uint32_t> nonzero[] = {
        {"codeFootprintKB", p.codeFootprintKB},
        {"memPatternPool", p.memPatternPool}, // the dispatcher always loads
        {"switchFanoutMin", p.switchFanoutMin},
        {"loopTripMin", p.loopTripMin},
    };
    for (const auto& [name, value] : nonzero) {
        if (value == 0) {
            reject(p, field(name, value) + " must be at least 1");
        }
    }
    if (p.maxDepDist == 0 && (p.depChance1 > 0 || p.depChance2 > 0)) {
        reject(p, "maxDepDist=0 leaves no distance for depChance1 or "
                  "depChance2 to draw");
    }
    const struct
    {
        const char* min;
        std::uint32_t lo;
        const char* max;
        std::uint32_t hi;
    } ranges[] = {
        {"runLenMin", p.runLenMin, "runLenMax", p.runLenMax},
        {"funcSizeMinInstrs", p.funcSizeMinInstrs, "funcSizeMaxInstrs",
         p.funcSizeMaxInstrs},
        {"switchFanoutMin", p.switchFanoutMin, "switchFanoutMax",
         p.switchFanoutMax},
        {"patternBitsMin", p.patternBitsMin, "patternBitsMax",
         p.patternBitsMax},
        {"loopTripMin", p.loopTripMin, "loopTripMax", p.loopTripMax},
    };
    for (const auto& r : ranges) {
        if (r.lo > r.hi) {
            reject(p, field(r.min, r.lo) + " exceeds " + field(r.max, r.hi));
        }
    }
}

} // namespace

ProgramBuilder::ProgramBuilder(const Profile& p)
    : prof(p),
      coins{chanceThreshold(p.loadFrac + p.storeFrac),
            chanceThreshold(p.loadFrac),
            chanceThreshold(0.8),
            chanceThreshold(0.95),
            chanceThreshold(p.depChance1),
            chanceThreshold(p.depChance2),
            std::max<std::uint64_t>(p.maxDepDist, 1)},
      rng(p.seed)
{
}

Program
ProgramBuilder::build(const Profile& profile)
{
    checkProfile(profile);
    ProgramBuilder b(profile);
    Program prog = b.run();
    std::string err = prog.validate();
    if (!err.empty()) {
        throw std::runtime_error("generated program invalid: " + err);
    }
    return prog;
}

std::uint32_t
ProgramBuilder::makeCondBehavior(bool is_loop_backedge, std::uint32_t trip)
{
    BranchBehavior b;
    b.seed = rng.next();
    b.noise = static_cast<float>(prof.noise);
    if (is_loop_backedge) {
        b.cls = BranchClass::Loop;
        b.trip = std::max<std::uint32_t>(2, trip);
        // Back-edges are still slightly noisy but far more predictable.
        b.noise = static_cast<float>(prof.noise * 0.25);
    } else {
        double total = prof.biasedFrac + prof.patternFrac + prof.loopClassFrac;
        double u = rng.uniform() * (total > 0 ? total : 1.0);
        if (u < prof.biasedFrac) {
            b.cls = BranchClass::Biased;
            double mag = rng.uniform() * (prof.biasHi - prof.biasLo)
                         + prof.biasLo;
            // Half the branches are biased taken, half biased not-taken.
            b.takenProb = static_cast<float>(rng.chance(0.5) ? mag : 1.0 - mag);
        } else if (u < prof.biasedFrac + prof.patternFrac) {
            b.cls = BranchClass::Pattern;
            b.historyBits = static_cast<std::uint8_t>(
                rng.range(prof.patternBitsMin, prof.patternBitsMax));
        } else {
            b.cls = BranchClass::Loop;
            b.trip = static_cast<std::uint32_t>(
                rng.range(prof.loopTripMin, prof.loopTripMax));
        }
    }
    condBehaviors.push_back(b);
    return static_cast<std::uint32_t>(condBehaviors.size() - 1);
}

std::uint32_t
ProgramBuilder::makeMemPattern(bool strided)
{
    MemPattern p;
    p.seed = rng.next();
    std::uint64_t footprint = std::uint64_t{prof.dataFootprintKB} * 1024;
    // Window sizes between 4KB and 64KB, placed within the data footprint.
    std::uint64_t win = std::min<std::uint64_t>(
        footprint, 4096ULL << rng.range(0, 4));
    std::uint64_t max_base_off = footprint > win ? footprint - win : 0;
    p.base = Program::kDataBase +
             (max_base_off ? alignDown(rng.below(max_base_off + 1), 64) : 0);
    p.size = win;
    if (strided) {
        static const std::uint32_t strides[] = {8, 8, 16, 64, 64, 128};
        p.stride = strides[rng.below(std::size(strides))];
    } else {
        p.stride = 0;
    }
    memPatterns.push_back(p);
    return static_cast<std::uint32_t>(memPatterns.size() - 1);
}

void
ProgramBuilder::emitSimple()
{
    // Each coin is an integer compare on a 53-bit draw and each choice a
    // mask or a sum, so past the pool-filling phase nothing branches on a
    // random value; the draws are exactly those of a branch per coin.
    static_assert(static_cast<unsigned>(InstrType::Alu) == 0 &&
                      static_cast<unsigned>(InstrType::Load) == 1 &&
                      static_cast<unsigned>(InstrType::Store) == 2,
                  "the type is computed as mem * (2 - load)");
    const std::uint64_t k = rng.next53();
    const std::uint64_t mem = k < coins.mem;
    const std::uint64_t load = k < coins.load;
    Instr in;
    in.type = static_cast<InstrType>(mem * (2 - load));
    // Patterns come from a bounded shared pool: data locality in real
    // applications comes from many instructions touching the same hot
    // structures, not from per-instruction private regions. The pool's
    // size is tested first: once it is full, this branch always goes on.
    if (memPatterns.size() < prof.memPatternPool && mem) {
        in.behavior = makeMemPattern(rng.chance(prof.strideFrac));
    } else {
        // One draw picks a load or store's pattern, or an ALU op's latency
        // class: mostly 1-cycle, some 3 (mul) and 4 (fp).
        const std::uint64_t v = rng.next();
        const std::uint64_t alu = mem - 1; // all ones for an ALU op
        const std::uint64_t lk = v >> 11;
        const std::uint64_t lat =
            4 - (lk < coins.lat3) - 2 * (lk < coins.lat1);
        in.execLat = static_cast<std::uint8_t>(1 + ((lat - 1) & alu));
        const std::uint64_t pattern =
            v % std::max<std::size_t>(memPatterns.size(), 1);
        in.behavior = (pattern & ~alu) | (kNoBehavior & alu);
    }
    in.dep1 = depDistance(coins.dep1);
    in.dep2 = depDistance(coins.dep2);
    instrs.push_back(in);
}

std::uint64_t
ProgramBuilder::depDistance(std::uint64_t coin)
{
    const bool take = rng.next53() < coin;
    const std::uint64_t d = rng.nextIf(take);
    return (1 + d % coins.depSpan) & (0 - std::uint64_t{take});
}

void
ProgramBuilder::emitLoadForDep()
{
    Instr ld;
    ld.type = InstrType::Load;
    if (memPatterns.size() < prof.memPatternPool) {
        ld.behavior = makeMemPattern(rng.chance(prof.strideFrac));
    } else {
        ld.behavior =
            static_cast<std::uint32_t>(rng.below(memPatterns.size()));
    }
    instrs.push_back(ld);
}

InstIdx
ProgramBuilder::emitBranch(BranchKind kind)
{
    Instr in;
    in.type = InstrType::Branch;
    in.branch = kind;
    instrs.push_back(in);
    return static_cast<InstIdx>(instrs.size() - 1);
}

void
ProgramBuilder::genRun(std::uint32_t max_len)
{
    std::uint32_t len = static_cast<std::uint32_t>(
        rng.range(prof.runLenMin, prof.runLenMax));
    len = std::min(len, std::max<std::uint32_t>(1, max_len));
    for (std::uint32_t i = 0; i < len; ++i) {
        emitSimple();
    }
}

void
ProgramBuilder::genDiamond(std::uint32_t budget, unsigned depth)
{
    // Optionally make the branch condition depend on a fresh load (the
    // compare-feature-and-branch idiom): resolution then waits for the
    // dcache, stretching the wrong-path window after a misprediction.
    bool load_dep = rng.chance(prof.branchLoadDepFrac);
    if (load_dep) {
        emitLoadForDep();
    }

    // cond (taken -> ELSE) / then-block / jump MERGE / ELSE / MERGE
    InstIdx cond = emitBranch(BranchKind::CondDirect);
    instrs[cond].behavior = makeCondBehavior(false, 0);
    if (load_dep) {
        instrs[cond].dep1 = 1;
    }

    std::uint32_t half = budget / 2;
    genBody(half, depth + 1);
    InstIdx jmp = emitBranch(BranchKind::Jump);

    InstIdx else_start = static_cast<InstIdx>(instrs.size());
    instrs[cond].target = else_start;
    genBody(budget - half, depth + 1);

    InstIdx merge = static_cast<InstIdx>(instrs.size());
    instrs[jmp].target = merge;
    // Code after the merge point follows from the caller's continued body.
}

void
ProgramBuilder::genLoop(std::uint32_t budget, unsigned depth)
{
    // Loop bodies are flat straight-line runs: large-footprint datacenter
    // code spends its time streaming across functions, not spinning in
    // deep loop nests (nesting would collapse the dynamic footprint).
    (void)depth;
    InstIdx head = static_cast<InstIdx>(instrs.size());
    std::uint32_t body = std::max<std::uint32_t>(prof.runLenMin,
                                                 std::min(budget, 48u));
    for (std::uint32_t i = 0; i < body; ++i) {
        emitSimple();
    }
    std::uint32_t trip = static_cast<std::uint32_t>(
        rng.range(prof.loopTripMin, prof.loopTripMax));
    InstIdx back = emitBranch(BranchKind::CondDirect);
    instrs[back].behavior = makeCondBehavior(true, trip);
    instrs[back].target = head;
}

void
ProgramBuilder::genSwitch(std::uint32_t budget, unsigned depth)
{
    std::uint32_t fanout = static_cast<std::uint32_t>(
        rng.range(prof.switchFanoutMin, prof.switchFanoutMax));

    bool load_dep = rng.chance(prof.indirectLoadDepFrac);
    if (load_dep) {
        emitLoadForDep();
    }
    InstIdx sw = emitBranch(BranchKind::IndirectJump);
    if (load_dep) {
        instrs[sw].dep1 = 1;
    }

    std::vector<InstIdx> case_entries;
    std::vector<InstIdx> exit_jumps;
    std::uint32_t per_case = std::max<std::uint32_t>(4, budget / fanout);
    for (std::uint32_t c = 0; c < fanout; ++c) {
        case_entries.push_back(static_cast<InstIdx>(instrs.size()));
        genBody(per_case, depth + 1);
        exit_jumps.push_back(emitBranch(BranchKind::Jump));
    }
    InstIdx merge = static_cast<InstIdx>(instrs.size());
    for (InstIdx j : exit_jumps) {
        instrs[j].target = merge;
    }

    IndirectBehavior b;
    b.seed = rng.next();
    b.firstTarget = static_cast<std::uint32_t>(targetPool.size());
    b.numTargets = static_cast<std::uint16_t>(fanout);
    b.historyBits = static_cast<std::uint8_t>(prof.indirectHistBits);
    b.noise = static_cast<float>(prof.indirectNoise);
    for (InstIdx t : case_entries) {
        targetPool.push_back(t);
    }
    indirectBehaviors.push_back(b);
    instrs[sw].behavior =
        static_cast<std::uint32_t>(indirectBehaviors.size() - 1);
}

void
ProgramBuilder::genCall()
{
    if (calleePool.empty() || callSitesEmitted >= prof.maxCallSitesPerFunc) {
        emitSimple();
        return;
    }
    ++callSitesEmitted;
    InstIdx callee = calleePool[rng.below(calleePool.size())];
    InstIdx call = emitBranch(BranchKind::Call);
    instrs[call].target = callee;
}

void
ProgramBuilder::genBody(std::uint32_t budget, unsigned depth)
{
    std::uint32_t start = static_cast<std::uint32_t>(instrs.size());
    while (instrs.size() - start < budget) {
        std::uint32_t remaining =
            budget - static_cast<std::uint32_t>(instrs.size() - start);
        if (remaining < prof.runLenMin + 2 || depth >= prof.maxStructDepth) {
            genRun(remaining);
            break;
        }
        double u = rng.uniform();
        double d = prof.diamondFrac;
        double l = d + prof.loopFrac;
        double s = l + prof.switchFrac;
        double c = s + prof.callFrac;
        if (u < d) {
            genRun(remaining / 4 + 1);
            genDiamond(std::min(remaining / 2, remaining - 4), depth);
        } else if (u < l) {
            genLoop(std::min<std::uint32_t>(remaining,
                                            rng.range(8, 48)),
                    depth);
        } else if (u < s) {
            genSwitch(std::min(remaining, remaining / 2 + 8), depth);
        } else if (u < c) {
            genRun(remaining / 4 + 1);
            genCall();
        } else {
            genRun(remaining);
        }
    }
}

InstIdx
ProgramBuilder::genFunction(std::uint32_t size_budget)
{
    InstIdx entry = static_cast<InstIdx>(instrs.size());
    callSitesEmitted = 0;
    genBody(size_budget, 0);
    emitBranch(BranchKind::Return);
    functions.push_back(entry);
    return entry;
}

Program
ProgramBuilder::run()
{
    const std::uint64_t total_instrs =
        std::uint64_t{prof.codeFootprintKB} * 1024 / kInstrBytes;

    // Reserve ~2% of the budget for the dispatcher.
    const std::uint64_t dispatcher_budget =
        std::max<std::uint64_t>(64, total_instrs / 50);
    const std::uint64_t func_budget = total_instrs - dispatcher_budget;

    instrs.reserve(total_instrs + 4096);

    // Generate functions leaf-level-first so call targets always exist.
    // Level-L functions only call deeper (> L) levels, which bounds the
    // dynamic call tree of one dispatcher iteration.
    const unsigned levels = std::max<std::uint32_t>(1, prof.callLevels);
    // Budget shares per level, deepest first (leaves get the most code).
    std::vector<double> share;
    double total_share = 0.0;
    for (unsigned l = 0; l < levels; ++l) {
        share.push_back(1.0 + 0.7 * l); // level 0 smallest
        total_share += share.back();
    }

    for (unsigned gen = 0; gen < levels; ++gen) {
        // gen 0 = deepest level (leaves), gen levels-1 = level 0.
        unsigned level = levels - 1 - gen;
        calleePool = functions; // everything deeper is callable
        std::size_t level_start = functions.size();
        std::uint64_t level_budget = static_cast<std::uint64_t>(
            func_budget * share[levels - 1 - level] / total_share);
        std::uint64_t level_end_instrs =
            std::min<std::uint64_t>(func_budget,
                                    instrs.size() + level_budget);
        do {
            std::uint32_t size = static_cast<std::uint32_t>(
                rng.range(prof.funcSizeMinInstrs, prof.funcSizeMaxInstrs));
            genFunction(size);
        } while (instrs.size() < level_end_instrs);
        if (level == 0) {
            level0.assign(functions.begin() +
                              static_cast<std::ptrdiff_t>(level_start),
                          functions.end());
        }
    }
    if (level0.empty()) {
        level0 = functions;
    }

    // Dispatcher: an infinite loop around an indirect call that selects a
    // function with hot/cold skew, plus some glue code.
    InstIdx dispatch_entry = static_cast<InstIdx>(instrs.size());

    genRun(8);

    // Build the skewed target pool: hot entries are replicated so that the
    // uniform selection of IndirectBehavior yields hotWeight probability of
    // landing on a hot function.
    std::vector<InstIdx> pool;
    std::uint32_t num_hot =
        std::min<std::uint32_t>(prof.numHotFuncs,
                                static_cast<std::uint32_t>(level0.size()));
    if (num_hot > 0 && prof.hotWeight > 0.0) {
        std::vector<InstIdx> hot;
        for (std::uint32_t i = 0; i < num_hot; ++i) {
            hot.push_back(level0[rng.below(level0.size())]);
        }
        // Pool size target ~512 entries: hotWeight of them hot.
        std::size_t pool_size = std::min<std::size_t>(
            512, std::max<std::size_t>(level0.size(), 64));
        std::size_t hot_slots =
            static_cast<std::size_t>(prof.hotWeight * pool_size);
        for (std::size_t i = 0; i < hot_slots; ++i) {
            pool.push_back(hot[i % hot.size()]);
        }
        while (pool.size() < pool_size) {
            pool.push_back(level0[rng.below(level0.size())]);
        }
    } else {
        pool = level0;
    }
    if (pool.empty()) {
        pool.push_back(dispatch_entry);
    }

    IndirectBehavior sel;
    sel.seed = rng.next();
    sel.firstTarget = static_cast<std::uint32_t>(targetPool.size());
    sel.numTargets = static_cast<std::uint16_t>(
        std::min<std::size_t>(pool.size(), 0xffff));
    sel.historyBits = 0; // per-instance selection: exercises the IBTB
    for (std::uint16_t i = 0; i < sel.numTargets; ++i) {
        targetPool.push_back(pool[i]);
    }
    indirectBehaviors.push_back(sel);

    emitLoadForDep();
    InstIdx icall = emitBranch(BranchKind::IndirectCall);
    instrs[icall].dep1 = 1;
    instrs[icall].behavior =
        static_cast<std::uint32_t>(indirectBehaviors.size() - 1);

    genRun(8);

    InstIdx loop_back = emitBranch(BranchKind::Jump);
    instrs[loop_back].target = dispatch_entry;

    return Program::assemble(prof.name, std::move(instrs), dispatch_entry,
                             std::move(condBehaviors),
                             std::move(indirectBehaviors),
                             std::move(targetPool), std::move(memPatterns));
}

} // namespace udp
