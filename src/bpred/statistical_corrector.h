/**
 * @file
 * Small GEHL-style statistical corrector (the SC of TAGE-SC-L): a few
 * global-history-indexed counter tables that can veto a low/medium
 * confidence TAGE prediction when they strongly disagree.
 */

#ifndef UDP_BPRED_STATISTICAL_CORRECTOR_H
#define UDP_BPRED_STATISTICAL_CORRECTOR_H

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace udp {

/** Configuration. */
struct ScConfig
{
    unsigned numTables = 3;
    unsigned tableBits = 10;
    unsigned ctrBits = 6;
    /** History bits feeding table t: histBits[t]. */
    std::array<unsigned, 4> histBits = {0, 8, 24, 0};
    int initialThreshold = 6;

    bool operator==(const ScConfig&) const = default;
};

/** Per-prediction record retained for update. */
struct ScPrediction
{
    bool used = false; ///< SC overrode TAGE
    bool taken = false;
    int sum = 0;
    std::array<std::uint32_t, 4> index{};
};

/**
 * GEHL corrector over the recent global outcome history (provided by the
 * caller as a packed 64-bit value; update() must receive the same value).
 */
class StatisticalCorrector
{
  public:
    explicit StatisticalCorrector(const ScConfig& cfg);

    /**
     * Computes the corrector's verdict for the branch at @p pc.
     * @param hist packed recent history (bit 0 = most recent outcome)
     * @param tage_taken TAGE's direction
     * @param tage_high_conf when true the corrector never overrides
     */
    ScPrediction predict(Addr pc, std::uint64_t hist, bool tage_taken,
                         bool tage_high_conf) const;

    /** Trains at retire with the true outcome. */
    void update(const ScPrediction& p, bool tage_taken, bool taken);

    std::uint64_t storageBits() const;

  private:
    std::uint32_t indexOf(Addr pc, std::uint64_t hist, unsigned t) const;

    ScConfig cfg;
    std::vector<std::vector<std::int8_t>> tables;
    int threshold;
    int thresholdCtr = 0;
};

} // namespace udp

#endif // UDP_BPRED_STATISTICAL_CORRECTOR_H
