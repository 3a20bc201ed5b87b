/**
 * @file
 * Global branch history storage with O(1) checkpoint/restore.
 *
 * The history is an append-only circular bit buffer; speculative updates
 * push bits at the head, and recovery simply rewinds the head position.
 * TAGE's folded (compressed) histories are maintained incrementally and
 * snapshotted into prediction checkpoints.
 */

#ifndef UDP_BPRED_HISTORY_H
#define UDP_BPRED_HISTORY_H

#include <cassert>
#include <cstdint>
#include <vector>

#include "common/intmath.h"

namespace udp {

/** Circular global history bit buffer. */
class GlobalHistory
{
  public:
    /** @param capacity_bits a power of two, so positions wrap by mask */
    explicit GlobalHistory(std::size_t capacity_bits = 1 << 16)
        : buf(capacity_bits, 0), mask(capacity_bits - 1)
    {
        assert(isPowerOf2(capacity_bits));
    }

    /** Appends the newest outcome bit. */
    void
    push(bool bit)
    {
        head = (head + 1) & mask;
        buf[head] = bit ? 1 : 0;
    }

    /** Outcome @p age steps in the past (0 = most recent). */
    bool bit(std::size_t age) const { return buf[(head - age) & mask] != 0; }

    /** Packs the most recent @p n bits (n <= 64), bit 0 = newest. */
    std::uint64_t
    recent(unsigned n) const
    {
        std::uint64_t v = 0;
        for (unsigned i = 0; i < n && i < 64; ++i) {
            v |= std::uint64_t{bit(i) ? 1u : 0u} << i;
        }
        return v;
    }

    std::uint64_t position() const { return head; }

    /** Rewinds (or replays) to a previously captured position. */
    void setPosition(std::uint64_t pos) { head = pos & mask; }

    std::size_t capacity() const { return buf.size(); }

  private:
    std::vector<std::uint8_t> buf;
    std::uint64_t mask;
    std::uint64_t head = 0;
};

/**
 * A folded (CSR) history register of `width` bits compressing the last
 * `hist_len` outcome bits, maintained incrementally (Seznec's scheme).
 */
struct FoldedHistory
{
    std::uint32_t comp = 0;
    std::uint16_t width = 1;
    /** hist_len % width: where the bit leaving the window folds in. */
    std::uint16_t outPos = 0;

    void
    configure(unsigned hist_len, unsigned fold_width)
    {
        width = static_cast<std::uint16_t>(fold_width ? fold_width : 1);
        outPos = static_cast<std::uint16_t>(
            static_cast<std::uint16_t>(hist_len) % width);
        comp = 0;
    }

    /**
     * Incremental update after GlobalHistory::push: @p new_bit is the bit
     * just inserted, @p old_bit the bit that left the length-window.
     */
    void
    update(bool new_bit, bool old_bit)
    {
        comp = (comp << 1) | (new_bit ? 1u : 0u);
        comp ^= (old_bit ? 1u : 0u) << outPos;
        comp ^= comp >> width;
        comp &= (1u << width) - 1;
    }
};

} // namespace udp

#endif // UDP_BPRED_HISTORY_H
