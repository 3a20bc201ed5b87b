/**
 * @file
 * The branch prediction unit: TAGE-SC-L direction prediction, BTB, indirect
 * target predictor and RAS behind one facade, with speculative history
 * checkpointing used by the decoupled frontend for wrong-path recovery.
 */

#ifndef UDP_BPRED_BPU_H
#define UDP_BPRED_BPU_H

#include <cstdint>
#include <memory>

#include "bpred/btb.h"
#include "bpred/ibtb.h"
#include "bpred/loop_predictor.h"
#include "bpred/ras.h"
#include "bpred/statistical_corrector.h"
#include "bpred/tage.h"

namespace udp {

/** Aggregate configuration of the whole BPU. */
struct BpuConfig
{
    TageConfig tage;
    LoopPredictorConfig loop;
    ScConfig sc;
    BtbConfig btb;        ///< 8K entries (Table II)
    IbtbConfig ibtb;      ///< ~2K entries (Table II)
    unsigned rasEntries = 64;

    bool operator==(const BpuConfig&) const = default;
};

/** Snapshot of all speculative BPU state for one in-flight branch. */
struct BpuCheckpoint
{
    TageHistState tage;
    RasCheckpoint ras;
    std::uint64_t hist64 = 0;
};

/** Full record of one conditional direction prediction. */
struct CondPredRecord
{
    TagePrediction tage;
    LoopPrediction loop;
    ScPrediction sc;
    bool taken = false;       ///< final decision
    Confidence conf = Confidence::Low;
};

/** BPU statistics. */
struct BpuStats
{
    std::uint64_t condPredictions = 0;
    std::uint64_t condMispredicts = 0;
};

/** The branch prediction unit. */
class Bpu
{
  public:
    explicit Bpu(const BpuConfig& cfg);

    /**
     * Predicts the conditional branch at @p pc and speculatively inserts
     * the predicted outcome into the history. Checkpoint *before* calling.
     */
    CondPredRecord predictCond(Addr pc);

    /** Predicts an indirect target (kInvalidAddr when unknown). */
    IbtbPrediction predictIndirect(Addr pc);

    /** Predicts a return target (RAS pop). */
    Addr predictReturn() { return ras_.pop(); }

    /** Notes a call: pushes the return address. */
    void pushReturn(Addr ret) { ras_.push(ret); }

    /**
     * Inserts an unconditional taken CTI into the history. Call for
     * jumps/calls/returns/indirects on the speculative path.
     */
    void notifyUnconditional(Addr pc);

    /** Captures all speculative state (history + RAS). */
    BpuCheckpoint checkpoint() const;

    /**
     * Restores to @p ck (state from just before the recovering branch was
     * predicted), then re-inserts the branch's resolved outcome.
     * @param is_cond the recovering instruction is a conditional branch
     * @param taken its resolved direction (conditional) — unconditional
     *        CTIs re-insert a taken bit when configured
     */
    void recoverTo(const BpuCheckpoint& ck, Addr pc, bool is_cond, bool taken);

    /** Trains the direction predictors at retirement. */
    void trainCond(Addr pc, const CondPredRecord& rec, bool taken);

    /** Trains the indirect predictor at retirement. */
    void trainIndirect(Addr pc, const IbtbPrediction& rec, Addr actual);

    Btb& btb() { return btb_; }
    const Btb& btb() const { return btb_; }
    Ibtb& ibtb() { return ibtb_; }
    Ras& ras() { return ras_; }

    /** Packed recent global history (bit 0 = newest). */
    std::uint64_t history64() const { return hist64; }

    const BpuStats& stats() const { return stats_; }

    std::uint64_t storageBits() const;

  private:
    void pushHistory(bool taken, Addr pc);

    Tage tage_;
    LoopPredictor loop_;
    StatisticalCorrector sc_;
    Btb btb_;
    Ibtb ibtb_;
    Ras ras_;
    std::uint64_t hist64 = 0;
    BpuStats stats_;
};

} // namespace udp

#endif // UDP_BPRED_BPU_H
