/**
 * @file
 * ProgramBuilder: generates a synthetic Program from a Profile.
 *
 * The builder emits real structured code — straight-line runs, if/else
 * diamonds (creating the merge points that make off-path prefetches
 * useful), natural loops, indirect switches and a call graph — laid out
 * contiguously in the synthetic address space, topped by a dispatcher
 * function that loops forever selecting callees with a configurable
 * hot/cold skew.
 */

#ifndef UDP_WORKLOAD_BUILDER_H
#define UDP_WORKLOAD_BUILDER_H

#include <vector>

#include "common/rng.h"
#include "workload/profile.h"
#include "workload/program.h"

namespace udp {

/** Builds Programs from Profiles. Stateless between build() calls. */
class ProgramBuilder
{
  public:
    /** Generates a validated Program for @p profile. */
    static Program build(const Profile& profile);

  private:
    explicit ProgramBuilder(const Profile& p);

    Program run();

    /** Emits one function body; returns its entry index. */
    InstIdx genFunction(std::uint32_t size_budget);

    /** Emits structured body items until the budget is consumed. */
    void genBody(std::uint32_t budget, unsigned depth);

    void genRun(std::uint32_t max_len);
    void genDiamond(std::uint32_t budget, unsigned depth);
    void genLoop(std::uint32_t budget, unsigned depth);
    void genSwitch(std::uint32_t budget, unsigned depth);
    void genCall();

    /** Emits one non-branch instruction. */
    void emitSimple();
    /** rng.range(1, maxDepDist) when a coin with threshold @p coin comes
     *  up, else 0; the distance is drawn only when the coin comes up. */
    std::uint64_t depDistance(std::uint64_t coin);
    /** Emits a load that the immediately following branch depends on. */
    void emitLoadForDep();
    /** Emits a branch instruction; returns its index for target patching. */
    InstIdx emitBranch(BranchKind kind);

    std::uint32_t makeCondBehavior(bool is_loop_backedge, std::uint32_t trip);
    std::uint32_t makeMemPattern(bool strided);

    /** emitSimple()'s coins as chanceThreshold()s, computed once per
     *  Profile, and its dependence distances' divisor. */
    struct Coins
    {
        std::uint64_t mem;  ///< load or store: loadFrac + storeFrac
        std::uint64_t load; ///< loadFrac
        std::uint64_t lat1; ///< an ALU op takes 1 cycle: 0.8
        std::uint64_t lat3; ///< else 3 cycles (mul), else 4 (fp): 0.95
        std::uint64_t dep1; ///< depChance1
        std::uint64_t dep2; ///< depChance2
        /** maxDepDist, or 1 where no dependence is ever drawn. */
        std::uint64_t depSpan;
    };

    const Profile& prof;
    const Coins coins;
    Rng rng;
    std::vector<Instr> instrs;
    std::vector<BranchBehavior> condBehaviors;
    std::vector<IndirectBehavior> indirectBehaviors;
    std::vector<InstIdx> targetPool;
    std::vector<MemPattern> memPatterns;
    std::vector<InstIdx> functions; ///< entry points generated so far
    /** Functions callable from the level currently being generated
     *  (entries of all deeper levels). */
    std::vector<InstIdx> calleePool;
    /** Entries of the most shallow (level 0) functions. */
    std::vector<InstIdx> level0;
    /** Call sites emitted in the function under construction. */
    std::uint32_t callSitesEmitted = 0;
};

} // namespace udp

#endif // UDP_WORKLOAD_BUILDER_H
