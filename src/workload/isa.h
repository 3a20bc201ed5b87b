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

/** Sentinel for "no behaviour/pattern table entry". */
inline constexpr std::uint32_t kNoBehavior = 0xffffffffu;

/**
 * One static instruction. Program stores these in a flat array; the pc of
 * instruction i is codeBase + i * kInstrBytes.
 *
 * The class, kind and latency share one byte of bit-fields, so an Instr
 * takes 12 bytes: the ten catalog Programs hold 3.2M of them, and a
 * sweep keeps them all resident while its workers simulate. A 3-bit kind
 * can hold a value past Return; Program::validate() rejects it.
 */
struct Instr
{
    InstrType type : 2 = InstrType::Alu;
    BranchKind branch : 3 = BranchKind::None;
    /** Execution latency in cycles (ALU classes: 1..4; at most 7). */
    std::uint8_t execLat : 3 = 1;
    /**
     * Dataflow: distances (in dynamic instructions) to up to two producer
     * instructions; 0 means no dependence through that slot.
     */
    std::uint8_t dep1 = 0;
    std::uint8_t dep2 = 0;
    /** Taken target as instruction index (direct branches/calls). */
    InstIdx target = 0;
    /**
     * Behaviour index: BranchBehavior for CondDirect, IndirectBehavior for
     * indirect kinds, MemPattern for Load/Store; kNoBehavior otherwise.
     */
    std::uint32_t behavior = kNoBehavior;
};

static_assert(sizeof(Instr) == 12, "keep the static image compact");

} // namespace udp

#endif // UDP_WORKLOAD_ISA_H
