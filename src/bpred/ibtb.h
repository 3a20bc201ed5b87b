/**
 * @file
 * Indirect branch target predictor: an ITTAGE-lite design with a
 * direct-mapped last-target base table plus tagged, history-indexed tables.
 */

#ifndef UDP_BPRED_IBTB_H
#define UDP_BPRED_IBTB_H

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.h"

namespace udp {

/** Configuration (defaults size to ~2K total entries per Table II). */
struct IbtbConfig
{
    unsigned baseEntries = 1024;
    unsigned numTagged = 2;
    unsigned taggedEntries = 512; ///< per tagged table
    unsigned tagBits = 10;
    std::array<unsigned, 4> histBits = {10, 24, 0, 0};

    bool operator==(const IbtbConfig&) const = default;
};

/** Per-prediction record for update. */
struct IbtbPrediction
{
    Addr target = kInvalidAddr;
    int provider = -1; ///< tagged table id or -1 for base
    std::array<std::uint32_t, 4> index{};
    std::array<std::uint16_t, 4> tag{};
    std::uint32_t baseIndex = 0;
};

/** Statistics. */
struct IbtbStats
{
    std::uint64_t lookups = 0;
    std::uint64_t mispredicts = 0;
};

/** ITTAGE-lite indirect target predictor. */
class Ibtb
{
  public:
    explicit Ibtb(const IbtbConfig& cfg);

    /**
     * Predicts the target of the indirect branch at @p pc under the packed
     * recent global history @p hist. Returns kInvalidAddr if never seen.
     */
    IbtbPrediction predict(Addr pc, std::uint64_t hist) const;

    /** Trains with the architectural target at retire. */
    void update(Addr pc, const IbtbPrediction& pred, Addr actual);

    const IbtbStats& stats() const { return stats_; }

    std::uint64_t storageBits() const;

  private:
    struct TaggedEntry
    {
        bool valid = false;
        std::uint16_t tag = 0;
        Addr target = kInvalidAddr;
        std::uint8_t conf = 0; ///< 2-bit replace/usefulness confidence
    };

    std::uint32_t taggedIndex(Addr pc, std::uint64_t hist, unsigned t) const;
    std::uint16_t taggedTag(Addr pc, std::uint64_t hist, unsigned t) const;

    IbtbConfig cfg;
    std::vector<Addr> base;
    std::vector<std::vector<TaggedEntry>> tagged;
    mutable IbtbStats stats_;
};

} // namespace udp

#endif // UDP_BPRED_IBTB_H
