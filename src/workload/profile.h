/**
 * @file
 * Workload profiles: the knobs that shape a synthetic program so it
 * reproduces the frontend characteristics of one of the paper's ten
 * datacenter applications (code footprint, branch predictability, BTB
 * pressure, reuse/hotness, data behaviour, ILP).
 */

#ifndef UDP_WORKLOAD_PROFILE_H
#define UDP_WORKLOAD_PROFILE_H

#include <cstdint>
#include <string>
#include <vector>

namespace udp {

/** Generation parameters for one synthetic application. */
struct Profile
{
    std::string name = "custom";
    std::uint64_t seed = 1;

    // --- code structure -------------------------------------------------
    /** Approximate static code size. */
    std::uint32_t codeFootprintKB = 256;
    std::uint32_t funcSizeMinInstrs = 80;
    std::uint32_t funcSizeMaxInstrs = 600;
    /** Straight-line run length between control-flow constructs. */
    std::uint32_t runLenMin = 4;
    std::uint32_t runLenMax = 16;
    /** Structure mix inside a function body (need not sum to 1). */
    double diamondFrac = 0.45;
    double loopFrac = 0.08;
    double switchFrac = 0.05;
    double callFrac = 0.35;
    std::uint32_t switchFanoutMin = 3;
    std::uint32_t switchFanoutMax = 12;
    std::uint32_t maxStructDepth = 3;
    /** Call-graph depth levels below the dispatcher (bounds the dynamic
     *  call-tree size: level-L functions only call deeper levels). */
    std::uint32_t callLevels = 4;
    /** Cap on static call sites per function (bounds tree branching). */
    std::uint32_t maxCallSitesPerFunc = 3;

    // --- hotness / instruction reuse -------------------------------------
    /** Number of dispatcher targets considered hot. */
    std::uint32_t numHotFuncs = 8;
    /** Probability the top-level dispatcher picks a hot function. */
    double hotWeight = 0.8;

    // --- conditional branch predictability --------------------------------
    double biasedFrac = 0.40;
    double patternFrac = 0.45;
    double loopClassFrac = 0.15;
    /** Taken-probability magnitude range for Biased branches. */
    double biasLo = 0.85;
    double biasHi = 0.99;
    /** Outcome flip probability: the direct driver of mispredictions. */
    double noise = 0.02;
    std::uint32_t patternBitsMin = 2;
    std::uint32_t patternBitsMax = 8;
    std::uint32_t loopTripMin = 3;
    std::uint32_t loopTripMax = 16;

    // --- indirect branches -------------------------------------------------
    double indirectNoise = 0.05;
    std::uint32_t indirectHistBits = 8;

    // --- data side ----------------------------------------------------------
    std::uint32_t dataFootprintKB = 8192;
    /** Number of distinct load/store address patterns shared by all
     *  memory instructions (controls data locality / dcache pressure). */
    std::uint32_t memPatternPool = 48;
    double loadFrac = 0.25;
    double storeFrac = 0.10;
    /** Fraction of loads with a regular stride (stream-prefetchable). */
    double strideFrac = 0.6;

    /** Fraction of diamond branches that depend on an immediately
     *  preceding load (feature compares etc.): lengthens branch
     *  resolution and thus wrong-path excursions. */
    double branchLoadDepFrac = 0.2;
    /** Same for indirect jumps/calls (data-driven dispatch): a
     *  mispredicted target then strands the frontend in disjoint code
     *  for a whole load latency. */
    double indirectLoadDepFrac = 0.3;

    // --- instruction-level parallelism ---------------------------------------
    double depChance1 = 0.7;
    double depChance2 = 0.3;
    std::uint32_t maxDepDist = 12;

    bool operator==(const Profile&) const = default;
};

/**
 * The ten datacenter application profiles evaluated in the paper
 * (Table I / Section III-A), calibrated to this repo's synthetic
 * generator. Order matches the paper's figures.
 */
const std::vector<Profile>& datacenterProfiles();

/** Lookup by name; throws std::out_of_range for unknown names. */
const Profile& profileByName(const std::string& name);

} // namespace udp

#endif // UDP_WORKLOAD_PROFILE_H
