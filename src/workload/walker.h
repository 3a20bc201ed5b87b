/**
 * @file
 * The architectural (true-path) walker: functionally executes a Program one
 * instruction at a time, producing the ground-truth dynamic stream the
 * backend retires and against which the speculating frontend is scored.
 */

#ifndef UDP_WORKLOAD_WALKER_H
#define UDP_WORKLOAD_WALKER_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/types.h"
#include "workload/program.h"

namespace udp {

/** One architecturally executed instruction instance. */
struct ArchInstr
{
    InstIdx idx = 0;
    Addr pc = kInvalidAddr;
    /** Address of the next architectural instruction. */
    Addr nextPc = kInvalidAddr;
    /** Conditional branches only: true outcome. */
    bool taken = false;
    /** Branches only: true target pc when taken (== nextPc if taken). */
    Addr takenTarget = kInvalidAddr;
    /** Loads/stores only: effective address. */
    Addr memAddr = kInvalidAddr;
};

/**
 * Steps through a Program along the architecturally correct path.
 *
 * Keeps the global conditional-outcome history, per-static-instruction
 * instance counts (driving loop trip counts and memory strides) and the
 * call stack. When execution falls off the call stack (return with an empty
 * stack) it restarts at the program entry, modelling a steady-state region
 * that loops forever.
 *
 * The instance counts live in one anonymous private mapping of 4 bytes per
 * static instruction. The kernel zero-fills a page of it on the first step
 * into its 1,024 instructions, so a Walker holds resident only the pages of
 * code its run reached, and constructing one touches none of them.
 */
class Walker
{
  public:
    /** Throws std::bad_alloc when the counts cannot be mapped. */
    explicit Walker(const Program& prog);

    /** Executes and returns the next architectural instruction. */
    ArchInstr step();

    /** Current (next-to-execute) pc. */
    Addr pc() const { return program.pcOf(cur); }

    /** Global conditional outcome history (bit 0 = most recent). */
    std::uint64_t history() const { return hist; }

    /** Number of instructions stepped so far. */
    std::uint64_t numSteps() const { return steps; }

    /** Current call-stack depth. */
    std::size_t callDepth() const { return callStack.size(); }

    /** Executions so far of each static instruction, by index: the
     *  mapping itself, one entry per instruction of the Program. */
    std::span<const std::uint32_t>
    instanceCounts() const
    {
        return {counts.get(), program.numInstrs()};
    }

  private:
    /** Unmaps the counts when the Walker dies. */
    struct Unmap
    {
        std::size_t bytes = 0;
        void operator()(std::uint32_t* p) const;
    };

    const Program& program;
    InstIdx cur;
    std::uint64_t hist = 0;
    std::uint64_t steps = 0;
    std::unique_ptr<std::uint32_t[], Unmap> counts;
    std::vector<InstIdx> callStack;
};

} // namespace udp

#endif // UDP_WORKLOAD_WALKER_H
