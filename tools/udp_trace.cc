/**
 * @file
 * udp_trace: dump the architectural dynamic instruction stream of a
 * workload in a readable text format (for debugging workload models).
 *
 *   udp_trace --app xgboost --count 200
 *   udp_trace --app clang --seed 7 --skip 1000000 --count 50
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "sim/runner.h"
#include "workload/builder.h"
#include "workload/true_stream.h"

namespace {

using namespace udp;

const char*
kindName(BranchKind k)
{
    switch (k) {
      case BranchKind::None: return "";
      case BranchKind::CondDirect: return "cond";
      case BranchKind::Jump: return "jmp";
      case BranchKind::IndirectJump: return "ijmp";
      case BranchKind::Call: return "call";
      case BranchKind::IndirectCall: return "icall";
      case BranchKind::Return: return "ret";
    }
    return "?";
}

const char*
typeName(InstrType t)
{
    switch (t) {
      case InstrType::Alu: return "alu";
      case InstrType::Load: return "ld";
      case InstrType::Store: return "st";
      case InstrType::Branch: return "br";
    }
    return "?";
}

} // namespace

int
main(int argc, char** argv)
{
    std::string app = "mysql";
    std::uint64_t skip = 0;
    std::uint64_t count = 100;
    std::uint64_t seed = 0;

    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char* {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n", a.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--app") {
            app = next();
        } else if (a == "--skip" || a == "--count" || a == "--seed") {
            const char* text = next();
            std::uint64_t& v = a == "--skip"    ? skip
                               : a == "--count" ? count
                                                : seed;
            if (!parseCount(text, &v)) {
                std::fprintf(stderr,
                             "udp_trace: malformed number '%s' for %s\n",
                             text, a.c_str());
                return 2;
            }
        } else {
            std::fprintf(stderr,
                         "usage: udp_trace [--app NAME] "
                         "[--skip N] [--count N] [--seed N]\n");
            return a == "--help" || a == "-h" ? 0 : 2;
        }
    }

    try {
        Profile p = profileByName(app);
        if (seed) {
            p.seed = seed;
        }
        const Program prog = ProgramBuilder::build(p);

        std::printf("# %s: %zu instrs, entry %#llx\n", prog.name().c_str(),
                    prog.numInstrs(),
                    static_cast<unsigned long long>(prog.entryPc()));
        std::printf("# %-12s %-4s %-5s %-8s %-12s %s\n", "pc", "type",
                    "kind", "outcome", "target/mem", "depth");

        Walker w(prog);
        for (std::uint64_t i = 0; i < skip; ++i) {
            w.step();
        }
        for (std::uint64_t i = 0; i < count; ++i) {
            ArchInstr a = w.step();
            const Instr& in = prog.instrAt(a.idx);
            char detail[32] = "";
            if (in.branch != BranchKind::None) {
                std::snprintf(detail, sizeof(detail), "%#llx",
                              static_cast<unsigned long long>(a.nextPc));
            } else if (a.memAddr != kInvalidAddr) {
                std::snprintf(detail, sizeof(detail), "%#llx",
                              static_cast<unsigned long long>(a.memAddr));
            }
            std::printf("  %#-12llx %-4s %-5s %-8s %-12s %zu\n",
                        static_cast<unsigned long long>(a.pc),
                        typeName(in.type), kindName(in.branch),
                        in.branch == BranchKind::CondDirect
                            ? (a.taken ? "taken" : "not-tkn")
                            : "",
                        detail, w.callDepth());
        }
        return 0;
    } catch (const std::exception& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
