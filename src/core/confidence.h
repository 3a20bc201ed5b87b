/**
 * @file
 * UDP's off-path confidence estimator (paper Section IV-B): accumulates
 * TAGE prediction confidence (+2 low / +1 medium / +0 high) since the last
 * recovery; past a threshold the frontend is assumed to be off-path and
 * FDIP switches from unconditional emission to useful-set-filtered
 * emission. A predicted-taken branch that missed the BTB immediately
 * forces the off-path assumption.
 */

#ifndef UDP_CORE_CONFIDENCE_H
#define UDP_CORE_CONFIDENCE_H

#include "bpred/tage.h"

namespace udp {

/** Configuration. */
struct ConfidenceConfig
{
    unsigned threshold = 8;
    unsigned lowWeight = 2;
    unsigned medWeight = 1;
    unsigned highWeight = 0;
    /** Counter bump after a decode-corrected (BTB-miss) taken branch. */
    unsigned btbMissBump = 6;
    unsigned counterMax = 255;

    bool operator==(const ConfidenceConfig&) const = default;
};

/** The saturating off-path confidence counter. */
class OffPathConfidence
{
  public:
    explicit OffPathConfidence(const ConfidenceConfig& cfg) : cfg_(cfg) {}

    /** A conditional direction was predicted with confidence @p c. */
    void
    onCondPredicted(Confidence c)
    {
        unsigned w = c == Confidence::Low
                         ? cfg_.lowWeight
                         : (c == Confidence::Med ? cfg_.medWeight
                                                 : cfg_.highWeight);
        bump(w);
    }

    /** Decode detected a predicted-taken branch missing from the BTB. */
    void onBtbMissTaken() { bump(cfg_.btbMissBump); }

    /** Branch recovery / resteer: back on a (believed) correct path. */
    void reset() { counter = 0; }

    bool assumedOffPath() const { return counter >= cfg_.threshold; }
    unsigned value() const { return counter; }

  private:
    void
    bump(unsigned w)
    {
        counter = counter + w > cfg_.counterMax ? cfg_.counterMax
                                                : counter + w;
    }

    ConfidenceConfig cfg_;
    unsigned counter = 0;
};

} // namespace udp

#endif // UDP_CORE_CONFIDENCE_H
