/**
 * @file
 * Branch outcome and memory address models.
 *
 * Outcomes are pure functions of (behaviour, path history, instance count)
 * so they are reproducible from both the architectural walker (true path)
 * and the wrong-path resolution logic (which has no architectural state).
 */

#ifndef UDP_WORKLOAD_OUTCOME_H
#define UDP_WORKLOAD_OUTCOME_H

#include <cstdint>

#include "common/types.h"

namespace udp {

/** Predictability class of a conditional branch. */
enum class BranchClass : std::uint8_t {
    Biased,  ///< per-instance Bernoulli draw with takenProb (unpredictable beyond bias)
    Pattern, ///< deterministic function of recent global outcome history
    Loop,    ///< taken (trip-1) times then not-taken, repeating
};

/** Static behaviour of one conditional branch. The seed comes first, so
 *  the struct packs into 24 bytes. */
struct BranchBehavior
{
    /** Per-branch seed. */
    std::uint64_t seed = 0;
    /** Probability of taken for Biased. */
    float takenProb = 0.5f;
    /** Probability the base outcome is flipped (unpredictable noise). */
    float noise = 0.0f;
    /** Loop trip count for Loop. */
    std::uint32_t trip = 2;
    BranchClass cls = BranchClass::Biased;
    /** Number of recent history bits feeding a Pattern function. */
    std::uint8_t historyBits = 4;
};

static_assert(sizeof(BranchBehavior) == 24, "keep the cond table compact");

/** Static behaviour of one indirect branch. */
struct IndirectBehavior
{
    /** First entry in Program::targetPool. */
    std::uint32_t firstTarget = 0;
    /** Number of possible targets (>= 1). */
    std::uint16_t numTargets = 1;
    /** History bits that select the target; 0 = per-instance random. */
    std::uint8_t historyBits = 0;
    /** Probability of choosing a random target instead. */
    float noise = 0.0f;
    std::uint64_t seed = 0;
};

/** Address stream of one static load/store. */
struct MemPattern
{
    Addr base = 0;
    /** Region size in bytes (power of two preferred, not required). */
    std::uint64_t size = 4096;
    /** Access stride in bytes; 0 = pseudo-random within the region. */
    std::uint32_t stride = 0;
    std::uint64_t seed = 0;
};

/**
 * True-path outcome of a conditional branch instance.
 *
 * @param b behaviour
 * @param hist global conditional-outcome history (bit 0 = most recent)
 * @param count per-branch instance count (0 for the first execution)
 */
bool condOutcome(const BranchBehavior& b, std::uint64_t hist,
                 std::uint64_t count);

/**
 * Wrong-path outcome of a conditional branch instance: same distribution,
 * but derived only from speculative path state. Loop branches degrade to a
 * (trip-1)/trip biased draw.
 */
bool condOutcomeWrongPath(const BranchBehavior& b, std::uint64_t spec_hist,
                          std::uint64_t salt);

/**
 * True-path target selection for an indirect branch: returns an index in
 * [0, numTargets).
 */
std::uint32_t indirectChoice(const IndirectBehavior& b, std::uint64_t hist,
                             std::uint64_t count);

/** Wrong-path target selection (stateless analogue). */
std::uint32_t indirectChoiceWrongPath(const IndirectBehavior& b,
                                      std::uint64_t spec_hist,
                                      std::uint64_t salt);

/** Address of the @p count -th execution of a load/store pattern. */
Addr memAddress(const MemPattern& p, std::uint64_t count);

} // namespace udp

#endif // UDP_WORKLOAD_OUTCOME_H
