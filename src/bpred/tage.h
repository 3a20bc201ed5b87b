/**
 * @file
 * TAGE conditional branch predictor (the TAGE component of TAGE-SC-L [52]),
 * with per-prediction confidence (High/Med/Low) — the signal UDP's off-path
 * confidence counter consumes.
 */

#ifndef UDP_BPRED_TAGE_H
#define UDP_BPRED_TAGE_H

#include <array>
#include <cstdint>
#include <vector>

#include "common/sat_counter.h"
#include "common/types.h"
#include "bpred/history.h"

namespace udp {

/** Prediction confidence exposed to UDP (paper Section IV-B). */
enum class Confidence : std::uint8_t { Low, Med, High };

/** Compile-time cap on the number of tagged tables. */
inline constexpr unsigned kMaxTageTables = 12;

/** Configuration of the TAGE predictor. */
struct TageConfig
{
    unsigned numTables = 10;     ///< tagged tables
    unsigned baseBits = 15;      ///< log2 bimodal entries
    unsigned tableBits = 11;     ///< log2 entries per tagged table
    unsigned tagBits = 11;
    unsigned ctrBits = 3;
    unsigned minHist = 8;
    unsigned maxHist = 640;
    unsigned usefulResetPeriod = 1 << 18; ///< updates between u-bit aging

    bool operator==(const TageConfig&) const = default;
};

/**
 * Snapshot of all speculative history state (for recovery). The folds
 * hold FoldedHistory::comp of the configured tables only; their geometry
 * never changes, so the predictor keeps it.
 */
struct TageHistState
{
    std::uint64_t ghistPos = 0;
    std::uint64_t pathHist = 0;
    std::array<std::uint32_t, kMaxTageTables> idxFold{};
    std::array<std::uint32_t, kMaxTageTables> tagFold1{};
    std::array<std::uint32_t, kMaxTageTables> tagFold2{};
};

/** Per-prediction record, retained until update/squash. */
struct TagePrediction
{
    bool taken = false;          ///< final predicted direction
    Confidence conf = Confidence::Low;
    // Internals needed for a precise update:
    int provider = -1;           ///< providing tagged table, -1 = bimodal
    int alt = -1;                ///< alternate provider, -1 = bimodal
    bool providerPred = false;
    bool altPred = false;
    bool usedAlt = false;        ///< alt overrode a newly-allocated provider
    std::array<std::uint32_t, kMaxTageTables> index{};
    std::array<std::uint16_t, kMaxTageTables> tag{};
    std::uint32_t baseIndex = 0;
};

/**
 * The TAGE predictor. Speculative history is owned by the caller (Bpu) via
 * GlobalHistory; TAGE keeps the folded views and exposes snapshot/restore.
 */
class Tage
{
  public:
    explicit Tage(const TageConfig& cfg, std::uint64_t seed = 0x7a6e);

    /** Predicts the direction of the conditional branch at @p pc. */
    TagePrediction predict(Addr pc) const;

    /**
     * Speculatively inserts outcome @p taken into the history (call for
     * every predicted conditional branch, with the *predicted* direction).
     */
    void specUpdateHistory(bool taken, Addr pc);

    /** Captures all speculative history state. */
    TageHistState snapshot() const;

    /**
     * Restores state captured by snapshot(), then (optionally) re-inserts
     * the resolved outcome of the recovering branch.
     */
    void restore(const TageHistState& s);

    /**
     * Trains the predictor with the architectural outcome. @p pred must be
     * the record produced at prediction time for this branch instance.
     */
    void update(Addr pc, const TagePrediction& pred, bool taken);

    const TageConfig& config() const { return cfg; }

    /** Storage cost in bits (for the paper's hardware budget accounting). */
    std::uint64_t storageBits() const;

  private:
    struct Entry
    {
        std::uint16_t tag = 0;
        SignedSatCounter ctr;
        std::uint8_t useful = 0;
    };

    std::uint32_t tableIndex(Addr pc, unsigned t) const;
    std::uint16_t tableTag(Addr pc, unsigned t) const;
    std::uint32_t baseIndex(Addr pc) const;

    TageConfig cfg;
    std::vector<unsigned> histLen;
    std::vector<std::vector<Entry>> tables;
    std::vector<SatCounter> bimodal;

    GlobalHistory ghist;
    std::uint64_t pathHist = 0;
    std::array<FoldedHistory, kMaxTageTables> idxFold;
    std::array<FoldedHistory, kMaxTageTables> tagFold1;
    std::array<FoldedHistory, kMaxTageTables> tagFold2;

    SignedSatCounter useAltOnNa;
    std::uint64_t tick = 0;
    mutable std::uint64_t allocSeed;
};

} // namespace udp

#endif // UDP_BPRED_TAGE_H
