/**
 * @file
 * The static program image: a flat array of synthetic instructions plus the
 * behaviour tables they reference. Shared (read-only) between the
 * architectural walker and the speculating frontend.
 */

#ifndef UDP_WORKLOAD_PROGRAM_H
#define UDP_WORKLOAD_PROGRAM_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "workload/isa.h"
#include "workload/outcome.h"

namespace udp {

/**
 * An immutable synthetic program.
 *
 * Instruction i occupies [codeBase + 4i, codeBase + 4i + 4). All targets are
 * instruction indices into the same image. Construction goes through
 * ProgramBuilder; tests may also populate the fields directly via the
 * friend builder-style factory makeForTest().
 */
class Program
{
  public:
    /** Base virtual address of the code segment. */
    static constexpr Addr kCodeBase = 0x400000;
    /** Base virtual address of the data segment. */
    static constexpr Addr kDataBase = 0x10000000;

    Program() = default;

    const std::string& name() const { return name_; }
    std::size_t numInstrs() const { return instrs_.size(); }
    Addr codeBase() const { return kCodeBase; }
    /** Total static code size in bytes. */
    std::uint64_t codeBytes() const { return instrs_.size() * kInstrBytes; }

    /** Entry instruction index. */
    InstIdx entry() const { return entry_; }
    Addr entryPc() const { return pcOf(entry_); }

    Addr pcOf(InstIdx i) const { return kCodeBase + Addr{i} * kInstrBytes; }

    /** True when @p pc addresses an instruction in the image. */
    bool
    validPc(Addr pc) const
    {
        return pc >= kCodeBase && pc < kCodeBase + codeBytes() &&
               (pc - kCodeBase) % kInstrBytes == 0;
    }

    InstIdx
    indexOf(Addr pc) const
    {
        return static_cast<InstIdx>((pc - kCodeBase) / kInstrBytes);
    }

    const Instr& instrAt(InstIdx i) const { return instrs_[i]; }

    const BranchBehavior&
    condBehavior(const Instr& in) const
    {
        return condBehaviors_[in.behavior];
    }

    const IndirectBehavior&
    indirectBehavior(const Instr& in) const
    {
        return indirectBehaviors_[in.behavior];
    }

    const MemPattern&
    memPattern(const Instr& in) const
    {
        return memPatterns_[in.behavior];
    }

    /** Resolves the @p k -th potential target of an indirect behaviour. */
    InstIdx
    indirectTarget(const IndirectBehavior& b, std::uint32_t k) const
    {
        return targetPool_[b.firstTarget + k];
    }

    std::size_t numMemPatterns() const { return memPatterns_.size(); }

    /** Count of static branch instructions (any kind). */
    std::uint64_t numStaticBranches() const;

    /** Test/builder factory: moves raw tables into a Program. */
    static Program
    assemble(std::string name, std::vector<Instr> instrs, InstIdx entry,
             std::vector<BranchBehavior> cond,
             std::vector<IndirectBehavior> indirect,
             std::vector<InstIdx> target_pool,
             std::vector<MemPattern> mem);

    /** Validates internal consistency; returns a diagnostic or "" if OK. */
    std::string validate() const;

  private:
    std::string name_;
    std::vector<Instr> instrs_;
    InstIdx entry_ = 0;
    std::vector<BranchBehavior> condBehaviors_;
    std::vector<IndirectBehavior> indirectBehaviors_;
    std::vector<InstIdx> targetPool_;
    std::vector<MemPattern> memPatterns_;
};

} // namespace udp

#endif // UDP_WORKLOAD_PROGRAM_H
