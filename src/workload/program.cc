#include "workload/program.h"

#include <sstream>
#include <utility>

namespace udp {

std::uint64_t
Program::numStaticBranches() const
{
    std::uint64_t n = 0;
    for (const auto& in : instrs_) {
        if (in.branch != BranchKind::None) {
            ++n;
        }
    }
    return n;
}

Program
Program::assemble(std::string name, std::vector<Instr> instrs, InstIdx entry,
                  std::vector<BranchBehavior> cond,
                  std::vector<IndirectBehavior> indirect,
                  std::vector<InstIdx> target_pool, std::vector<MemPattern> mem)
{
    Program p;
    p.name_ = std::move(name);
    p.instrs_ = std::move(instrs);
    p.entry_ = entry;
    p.condBehaviors_ = std::move(cond);
    p.indirectBehaviors_ = std::move(indirect);
    p.targetPool_ = std::move(target_pool);
    p.memPatterns_ = std::move(mem);
    return p;
}

std::string
Program::validate() const
{
    std::ostringstream err;
    if (instrs_.empty()) {
        return "empty program";
    }
    if (entry_ >= instrs_.size()) {
        return "entry out of range";
    }
    // Past these counts an Instr's 23-bit target or behaviour index would
    // have been truncated (workload/isa.h).
    if (instrs_.size() > kMaxProgramInstrs) {
        err << instrs_.size() << " instructions exceed the "
            << kMaxProgramInstrs << " an instruction index holds";
        return err.str();
    }
    const std::pair<const char*, std::size_t> tables[] = {
        {"cond behaviour", condBehaviors_.size()},
        {"indirect behaviour", indirectBehaviors_.size()},
        {"mem pattern", memPatterns_.size()},
    };
    for (const auto& [table, entries] : tables) {
        if (entries > kNoBehavior) {
            err << table << " table of " << entries << " entries exceeds the "
                << kNoBehavior << " a behaviour index holds";
            return err.str();
        }
    }
    for (std::size_t i = 0; i < instrs_.size(); ++i) {
        const Instr& in = instrs_[i];
        const bool is_branch = in.branch != BranchKind::None;
        if (is_branch != (in.type == InstrType::Branch)) {
            err << "instr " << i << ": branch kind/type mismatch";
            return err.str();
        }
        switch (in.branch) {
          case BranchKind::CondDirect:
            if (in.behavior >= condBehaviors_.size()) {
                err << "instr " << i << ": cond behavior out of range";
                return err.str();
            }
            [[fallthrough]];
          case BranchKind::Jump:
          case BranchKind::Call:
            if (in.target >= instrs_.size()) {
                err << "instr " << i << ": target out of range";
                return err.str();
            }
            break;
          case BranchKind::IndirectJump:
          case BranchKind::IndirectCall: {
            if (in.behavior >= indirectBehaviors_.size()) {
                err << "instr " << i << ": indirect behavior out of range";
                return err.str();
            }
            const IndirectBehavior& b = indirectBehaviors_[in.behavior];
            if (b.numTargets == 0 ||
                std::size_t{b.firstTarget} + b.numTargets > targetPool_.size()) {
                err << "instr " << i << ": indirect target pool out of range";
                return err.str();
            }
            for (std::uint32_t k = 0; k < b.numTargets; ++k) {
                if (targetPool_[b.firstTarget + k] >= instrs_.size()) {
                    err << "instr " << i << ": pooled target out of range";
                    return err.str();
                }
            }
            break;
          }
          case BranchKind::Return:
          case BranchKind::None:
            break;
          default:
            err << "instr " << i << ": unknown branch kind "
                << static_cast<unsigned>(in.branch);
            return err.str();
        }
        if ((in.type == InstrType::Load || in.type == InstrType::Store) &&
            in.behavior >= memPatterns_.size()) {
            err << "instr " << i << ": mem pattern out of range";
            return err.str();
        }
    }
    return "";
}

} // namespace udp
