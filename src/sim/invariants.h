/**
 * @file
 * Cross-component invariant checker (docs/ROBUSTNESS.md). A cheap subset
 * runs periodically in every build (SimConfig::watchdog.invariantPeriod);
 * configuring with -DUDP_CHECK=ON additionally runs the full (more
 * expensive) sweep every 64 cycles. Each component exposes its own
 * checkInvariants() hook; this layer only aggregates them and raises
 * structured errors.
 */

#ifndef UDP_SIM_INVARIANTS_H
#define UDP_SIM_INVARIANTS_H

#include <string>
#include <vector>

#include "sim/simerror.h"

namespace udp {

class Cpu;

/** One detected violation: which component, and what it reported. */
struct InvariantFailure
{
    /** "ftq", "mshr", "fetch", "rob", "records", "uftq" or "udp" */
    std::string component;
    std::string detail;    ///< component-produced message
};

/**
 * Runs every component invariant hook against @p cpu and returns all
 * violations (empty = healthy). @p full enables the expensive checks
 * (FTQ id monotonicity, ROB/LSQ credit recount) on top of the always-on
 * cheap subset.
 */
std::vector<InvariantFailure> collectInvariantFailures(const Cpu& cpu,
                                                       bool full);

/**
 * Throws InvariantViolation (with the CPU's diagnostic dump attached) for
 * the first violation found; returns normally when healthy.
 */
void checkInvariants(const Cpu& cpu, bool full);

} // namespace udp

#endif // UDP_SIM_INVARIANTS_H
