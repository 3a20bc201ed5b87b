/**
 * @file
 * Indexable window over the architectural instruction stream.
 *
 * The frontend compares its speculative path against this stream to tag
 * fetched instructions on/off path (ground truth for statistics and for
 * resolving on-path branches); the backend retires against it. Entries are
 * produced lazily by the Walker and discarded once retired.
 */

#ifndef UDP_WORKLOAD_TRUE_STREAM_H
#define UDP_WORKLOAD_TRUE_STREAM_H

#include <cassert>
#include <cstdint>

#include "common/ring.h"
#include "workload/walker.h"

namespace udp {

/** Sliding window of ArchInstr indexed by absolute stream position. */
class TrueStream
{
  public:
    explicit TrueStream(const Program& prog) : walker(prog), buf(64) {}

    /**
     * The instruction at absolute position @p i (extends on demand). The
     * reference is valid until the window next extends.
     */
    const ArchInstr&
    at(std::uint64_t i)
    {
        assert(i >= base && "position already retired");
        while (base + buf.size() <= i) {
            buf.pushBack(walker.step());
        }
        return buf[static_cast<std::size_t>(i - base)];
    }

    /** Discards entries below absolute position @p i. */
    void
    retireBelow(std::uint64_t i)
    {
        while (base < i && !buf.empty()) {
            buf.popFront();
            ++base;
        }
    }

    std::uint64_t firstLive() const { return base; }
    std::size_t windowSize() const { return buf.size(); }

  private:
    Walker walker;
    /** Grows to the in-flight window during warm-up, then stays put. */
    Ring<ArchInstr> buf;
    std::uint64_t base = 0;
};

} // namespace udp

#endif // UDP_WORKLOAD_TRUE_STREAM_H
