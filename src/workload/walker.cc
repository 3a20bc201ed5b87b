#include "workload/walker.h"

#include <sys/mman.h>

#include <algorithm>
#include <cassert>
#include <new>

namespace udp {

namespace {
/** Bound on modelled call depth; deeper calls behave like jumps. */
constexpr std::size_t kMaxCallDepth = 128;

/** Size of @p prog's count mapping; mmap() rejects an empty one. */
std::size_t
countBytes(const Program& prog)
{
    return std::max<std::size_t>(prog.numInstrs(), 1) *
           sizeof(std::uint32_t);
}

/** Maps @p bytes of zero pages that become resident only when written. */
std::uint32_t*
mapZeroed(std::size_t bytes)
{
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED) {
        throw std::bad_alloc();
    }
    // A huge page would make the first step fault in 2 MiB of counts.
    ::madvise(p, bytes, MADV_NOHUGEPAGE);
    return static_cast<std::uint32_t*>(p);
}
} // namespace

void
Walker::Unmap::operator()(std::uint32_t* p) const
{
    ::munmap(p, bytes);
}

Walker::Walker(const Program& prog)
    : program(prog), cur(prog.entry()),
      counts(mapZeroed(countBytes(prog)), Unmap{countBytes(prog)})
{
    callStack.reserve(kMaxCallDepth);
}

ArchInstr
Walker::step()
{
    const Instr& in = program.instrAt(cur);
    ArchInstr out;
    out.idx = cur;
    out.pc = program.pcOf(cur);

    const std::uint32_t count = counts[cur]++;
    InstIdx next = cur + 1;
    if (next >= program.numInstrs()) {
        next = program.entry();
    }

    switch (in.branch) {
      case BranchKind::None:
        if (in.type == InstrType::Load || in.type == InstrType::Store) {
            out.memAddr = memAddress(program.memPattern(in), count);
        }
        break;
      case BranchKind::CondDirect: {
        const BranchBehavior& b = program.condBehavior(in);
        out.taken = condOutcome(b, hist, count);
        out.takenTarget = program.pcOf(in.target);
        hist = (hist << 1) | (out.taken ? 1 : 0);
        if (out.taken) {
            next = in.target;
        }
        break;
      }
      case BranchKind::Jump:
        out.taken = true;
        out.takenTarget = program.pcOf(in.target);
        next = in.target;
        break;
      case BranchKind::Call:
        out.taken = true;
        out.takenTarget = program.pcOf(in.target);
        if (callStack.size() < kMaxCallDepth) {
            callStack.push_back(cur + 1 < program.numInstrs()
                                    ? cur + 1
                                    : program.entry());
        }
        next = in.target;
        break;
      case BranchKind::IndirectJump:
      case BranchKind::IndirectCall: {
        const IndirectBehavior& b = program.indirectBehavior(in);
        std::uint32_t choice = indirectChoice(b, hist, count);
        InstIdx tgt = program.indirectTarget(b, choice);
        out.taken = true;
        out.takenTarget = program.pcOf(tgt);
        if (in.branch == BranchKind::IndirectCall &&
            callStack.size() < kMaxCallDepth) {
            callStack.push_back(cur + 1 < program.numInstrs()
                                    ? cur + 1
                                    : program.entry());
        }
        next = tgt;
        break;
      }
      case BranchKind::Return:
        out.taken = true;
        if (!callStack.empty()) {
            next = callStack.back();
            callStack.pop_back();
        } else {
            next = program.entry();
        }
        out.takenTarget = program.pcOf(next);
        break;
    }

    out.nextPc = program.pcOf(next);
    cur = next;
    ++steps;
    return out;
}

} // namespace udp
