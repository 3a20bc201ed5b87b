/**
 * @file
 * The Seniority-FTQ (paper Section IV-B): holds off-path prefetch
 * candidate blocks after they leave the FTQ so that a later retirement of
 * an instruction in the same cache line proves the candidate useful
 * (merge-point reconvergence). Much smaller than the ROB: block-granular
 * and only candidate blocks.
 */

#ifndef UDP_CORE_SENIORITY_FTQ_H
#define UDP_CORE_SENIORITY_FTQ_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/ring.h"
#include "common/types.h"

namespace udp {

/** Behaviour on pipeline flush. */
enum class SftqFlushPolicy : std::uint8_t {
    /**
     * Keep entries across flushes: off-path candidates survive the
     * recovery so post-recovery retirements can match them (the mechanism
     * that makes off-path learning work; default).
     */
    Keep,
    /** Literal reading of the paper: drop entries younger than the flush
     *  point (ablation). */
    DropYounger,
};

/** Configuration. */
struct SeniorityFtqConfig
{
    unsigned capacity = 128;
    SftqFlushPolicy flushPolicy = SftqFlushPolicy::Keep;

    bool operator==(const SeniorityFtqConfig&) const = default;
};

/** Statistics. */
struct SeniorityFtqStats
{
    std::uint64_t inserts = 0;
    std::uint64_t matches = 0;
    std::uint64_t capacityEvictions = 0;
    std::uint64_t flushDrops = 0;
};

/**
 * FIFO of off-path candidate blocks with O(1) line matching. Inserts are
 * deduplicated, so each line is held at most once: the FIFO is a ring of
 * `capacity` slots and the line index an open-addressed set of twice
 * that many, both allocated up front.
 */
class SeniorityFtq
{
  public:
    explicit SeniorityFtq(const SeniorityFtqConfig& cfg);

    /** Inserts a candidate block @p line tagged with its dynamic id. */
    void insert(Addr line, std::uint64_t dyn_id);

    /**
     * Retirement check: does @p line match a held candidate? On a match
     * the candidate is consumed (removed) and true is returned.
     */
    bool matchAndRemove(Addr line);

    /** Pipeline flush at @p squash_after_dyn_id (policy-dependent). */
    void onFlush(std::uint64_t squash_after_dyn_id);

    std::size_t size() const { return fifo.size(); }

    const SeniorityFtqStats& stats() const { return stats_; }

    /** Invariant check (sim/invariants.h): capacity bound and agreement
     *  between the FIFO and its line set. Returns the first violation,
     *  or "". */
    std::string checkInvariants() const;

  private:
    struct Slot
    {
        Addr line = kInvalidAddr;
        std::uint64_t dynId = 0;
    };

    /** Index of @p line in the line set, or of the empty slot that ends
     *  its probe sequence (linear probing; kInvalidAddr marks empty). */
    std::size_t probe(Addr line) const;
    /** Removes @p line, which must be in the set. */
    void unindex(Addr line);

    SeniorityFtqConfig cfg;
    Ring<Slot> fifo;
    std::vector<Addr> lines; ///< open-addressed set of the held lines
    std::size_t linesMask = 0;
    SeniorityFtqStats stats_;
};

} // namespace udp

#endif // UDP_CORE_SENIORITY_FTQ_H
