/**
 * @file
 * Loop termination predictor (the L of TAGE-SC-L): learns constant trip
 * counts of regular loops and overrides TAGE on the exit iteration.
 */

#ifndef UDP_BPRED_LOOP_PREDICTOR_H
#define UDP_BPRED_LOOP_PREDICTOR_H

#include <cstdint>
#include <vector>

#include "common/types.h"

namespace udp {

/** Loop predictor result. */
struct LoopPrediction
{
    bool valid = false;  ///< confident hit: use this prediction
    bool taken = true;
    std::uint32_t entry = 0; ///< internal index for update
};

/** Configuration. */
struct LoopPredictorConfig
{
    unsigned numEntries = 64; ///< power of two
    unsigned tagBits = 14;
    unsigned confMax = 3;
    std::uint32_t maxTrip = 1 << 14;

    bool operator==(const LoopPredictorConfig&) const = default;
};

/**
 * Tagged table of loop trip counters. Counting is non-speculative (trained
 * at retire); prediction uses the retire-time iteration counter, which is
 * accurate for trips comfortably larger than the in-flight window.
 */
class LoopPredictor
{
  public:
    explicit LoopPredictor(const LoopPredictorConfig& cfg);

    /** Looks up the conditional branch at @p pc. */
    LoopPrediction predict(Addr pc) const;

    /** Trains with the architectural outcome at retire. */
    void update(Addr pc, bool taken);

    std::uint64_t storageBits() const;

  private:
    struct Entry
    {
        std::uint32_t tag = 0;
        std::uint32_t trip = 0;    ///< learned trip count (taken count + 1)
        std::uint32_t count = 0;   ///< current iteration (retire time)
        std::uint8_t conf = 0;
        bool valid = false;
    };

    std::uint32_t indexOf(Addr pc) const;
    std::uint32_t tagOf(Addr pc) const;

    LoopPredictorConfig cfg;
    std::vector<Entry> entries;
};

} // namespace udp

#endif // UDP_BPRED_LOOP_PREDICTOR_H
