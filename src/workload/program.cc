#include "workload/program.h"

#include <array>
#include <sstream>
#include <utility>

namespace udp {

namespace {

/** Whether validate() accepts a (type, kind) pair, and if not, why. */
enum class Verdict : std::uint8_t { Legal, KindTypeMismatch, UnknownKind };

/** The behaviour table an instruction's index must fit. */
enum class Table : std::uint8_t { None, Cond, Indirect, Mem };

/** What validate() checks of an instruction, given its type and kind. */
struct Rule
{
    Verdict verdict = Verdict::Legal;
    /** The target must lie in the image. */
    bool target = false;
    Table table = Table::None;
};

constexpr Rule
ruleFor(InstrType type, BranchKind kind)
{
    if ((kind != BranchKind::None) != (type == InstrType::Branch)) {
        return {Verdict::KindTypeMismatch};
    }
    switch (kind) {
      case BranchKind::None:
        return {Verdict::Legal, false,
                type == InstrType::Alu ? Table::None : Table::Mem};
      case BranchKind::CondDirect:
        return {Verdict::Legal, true, Table::Cond};
      case BranchKind::Jump:
      case BranchKind::Call:
        return {Verdict::Legal, true, Table::None};
      case BranchKind::IndirectJump:
      case BranchKind::IndirectCall:
        return {Verdict::Legal, false, Table::Indirect};
      case BranchKind::Return:
        return {};
    }
    return {Verdict::UnknownKind}; // a 3-bit kind past Return
}

constexpr unsigned
ruleIndex(InstrType type, BranchKind kind)
{
    return static_cast<unsigned>(kind) << 2 | static_cast<unsigned>(type);
}

/** ruleFor() of every value an Instr's 2-bit type and 3-bit kind hold. */
constexpr std::array<Rule, 32> kRules = [] {
    std::array<Rule, 32> rules{};
    for (unsigned kind = 0; kind < 8; ++kind) {
        for (unsigned type = 0; type < 4; ++type) {
            const auto t = static_cast<InstrType>(type);
            const auto k = static_cast<BranchKind>(kind);
            rules[ruleIndex(t, k)] = ruleFor(t, k);
        }
    }
    return rules;
}();

/** Indexed by Table. */
constexpr const char* kTableNames[] = {"", "cond behavior",
                                       "indirect behavior", "mem pattern"};

} // namespace

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
    // Per index of Rule::table and Rule::target, the bound an index must
    // stay below; an index no rule constrains meets kMaxProgramInstrs.
    const std::uint32_t n = static_cast<std::uint32_t>(instrs_.size());
    const std::uint32_t behavior_limit[] = {
        kMaxProgramInstrs,
        static_cast<std::uint32_t>(condBehaviors_.size()),
        static_cast<std::uint32_t>(indirectBehaviors_.size()),
        static_cast<std::uint32_t>(memPatterns_.size()),
    };
    const std::uint32_t target_limit[] = {kMaxProgramInstrs, n};
    for (std::uint32_t i = 0; i < n; ++i) {
        const Instr& in = instrs_[i];
        const Rule rule = kRules[ruleIndex(in.type, in.branch)];
        const auto table = static_cast<unsigned>(rule.table);
        const bool bad_behavior = in.behavior >= behavior_limit[table];
        if ((rule.verdict != Verdict::Legal) | bad_behavior |
            (in.target >= target_limit[rule.target])) [[unlikely]] {
            err << "instr " << i << ": ";
            if (rule.verdict == Verdict::KindTypeMismatch) {
                err << "branch kind/type mismatch";
            } else if (rule.verdict == Verdict::UnknownKind) {
                err << "unknown branch kind "
                    << static_cast<unsigned>(in.branch);
            } else if (bad_behavior) {
                err << kTableNames[table] << " out of range";
            } else {
                err << "target out of range";
            }
            return err.str();
        }
        if (rule.table == Table::Indirect) [[unlikely]] {
            const IndirectBehavior& b = indirectBehaviors_[in.behavior];
            if (b.numTargets == 0 ||
                std::size_t{b.firstTarget} + b.numTargets > targetPool_.size()) {
                err << "instr " << i << ": indirect target pool out of range";
                return err.str();
            }
            for (std::uint32_t k = 0; k < b.numTargets; ++k) {
                if (targetPool_[b.firstTarget + k] >= n) {
                    err << "instr " << i << ": pooled target out of range";
                    return err.str();
                }
            }
        }
    }
    return "";
}

} // namespace udp
