/**
 * @file
 * The synthetic ISA used by the simulator.
 *
 * Instructions are fixed width (4 bytes). Each static instruction carries
 * everything the microarchitectural model needs: execution class and
 * latency, dependence distances (for the dataflow backend), control-flow
 * kind and target, and indices into the Program's behaviour tables that
 * define branch outcomes and load/store address streams.
 */

#ifndef UDP_WORKLOAD_ISA_H
#define UDP_WORKLOAD_ISA_H

#include <cstdint>

#include "common/types.h"

namespace udp {

/** Execution class of an instruction. */
enum class InstrType : std::uint8_t {
    Alu,    ///< integer/fp computation
    Load,   ///< memory read
    Store,  ///< memory write
    Branch, ///< any control-flow instruction
};

/** Control-flow kind; None for non-branches. */
enum class BranchKind : std::uint8_t {
    None,
    CondDirect,   ///< conditional, direct target
    Jump,         ///< unconditional direct
    IndirectJump, ///< unconditional, target from IndirectBehavior
    Call,         ///< direct call, pushes return address
    IndirectCall, ///< indirect call, pushes return address
    Return,       ///< pops return address
};

/** True for kinds that redirect control flow whenever executed. */
constexpr bool
isUnconditional(BranchKind k)
{
    return k != BranchKind::None && k != BranchKind::CondDirect;
}

/** True for kinds that push a return address. */
constexpr bool
isCall(BranchKind k)
{
    return k == BranchKind::Call || k == BranchKind::IndirectCall;
}

/** True for kinds whose target comes from an IndirectBehavior. */
constexpr bool
isIndirect(BranchKind k)
{
    return k == BranchKind::IndirectJump || k == BranchKind::IndirectCall;
}

/**
 * Width of an Instr's target and behaviour fields. A Program holds at most
 * kMaxProgramInstrs instructions, so every instruction index fits, and each
 * behaviour table holds at most kNoBehavior entries, so every index stays
 * below the sentinel. ProgramBuilder::build() rejects a Profile whose code
 * would not fit before it generates anything; Program::validate() checks
 * the counts of every image. The ten datacenter profiles peak at 1,030,599
 * instructions (verilator) and 67,621 conditional behaviours, an eighth of
 * the limit.
 */
inline constexpr unsigned kInstrIndexBits = 23;
inline constexpr std::uint32_t kMaxProgramInstrs =
    std::uint32_t{1} << kInstrIndexBits;

/** Sentinel for "no behaviour/pattern table entry": the all-ones index. */
inline constexpr std::uint32_t kNoBehavior = kMaxProgramInstrs - 1;

/** Largest dependence distance a 5-bit dep field holds. The ten
 *  datacenter profiles use at most 12. */
inline constexpr std::uint32_t kMaxDepDist = 31;

/**
 * One static instruction. Program stores these in a flat array; the pc of
 * instruction i is codeBase + i * kInstrBytes.
 *
 * The fields share one 64-bit word: the ten catalog Programs hold 3.2M
 * instructions, and a sweep keeps them all resident while its workers
 * simulate. A 3-bit kind can hold a value past Return; Program::validate()
 * rejects it.
 */
struct Instr
{
    InstrType type : 2 = InstrType::Alu;
    BranchKind branch : 3 = BranchKind::None;
    /** Execution latency in cycles (ALU classes: 1..4; at most 7). */
    std::uint8_t execLat : 3 = 1;
    /**
     * Dataflow: distances (in dynamic instructions) to up to two producer
     * instructions, at most kMaxDepDist; 0 means no dependence through
     * that slot.
     */
    std::uint64_t dep1 : 5 = 0;
    std::uint64_t dep2 : 5 = 0;
    /** Taken target as instruction index (direct branches/calls). */
    std::uint64_t target : kInstrIndexBits = 0;
    /**
     * Behaviour index: BranchBehavior for CondDirect, IndirectBehavior for
     * indirect kinds, MemPattern for Load/Store; kNoBehavior otherwise.
     */
    std::uint64_t behavior : kInstrIndexBits = kNoBehavior;
};

static_assert(sizeof(Instr) == 8, "keep the static image compact");

} // namespace udp

#endif // UDP_WORKLOAD_ISA_H
