#include "core/seniority_ftq.h"

#include <bit>
#include <cassert>
#include <cstdio>

#include "common/rng.h"

namespace udp {

SeniorityFtq::SeniorityFtq(const SeniorityFtqConfig& c)
    : cfg(c), fifo(c.capacity)
{
    assert(cfg.capacity >= 1);
    // At most half full, so probe sequences stay short.
    lines.assign(std::bit_ceil(std::size_t{cfg.capacity} * 2), kInvalidAddr);
    linesMask = lines.size() - 1;
}

std::size_t
SeniorityFtq::probe(Addr line) const
{
    std::size_t i = mix64(line) & linesMask;
    while (lines[i] != line && lines[i] != kInvalidAddr) {
        i = (i + 1) & linesMask;
    }
    return i;
}

void
SeniorityFtq::unindex(Addr line)
{
    std::size_t hole = probe(line);
    assert(lines[hole] == line);
    // Backward-shift deletion: pull each later member of the probe run
    // whose home slot does not lie in (hole, j] into the hole.
    for (std::size_t j = (hole + 1) & linesMask; lines[j] != kInvalidAddr;
         j = (j + 1) & linesMask) {
        std::size_t home = mix64(lines[j]) & linesMask;
        if (((j - home) & linesMask) >= ((j - hole) & linesMask)) {
            lines[hole] = lines[j];
            hole = j;
        }
    }
    lines[hole] = kInvalidAddr;
}

void
SeniorityFtq::insert(Addr line, std::uint64_t dyn_id)
{
    line = lineAddr(line);
    // Deduplicate: consecutive blocks in the same line (and re-fetches of
    // the same region) must not flood the small FIFO.
    std::size_t at = probe(line);
    if (lines[at] == line) {
        return;
    }
    if (fifo.size() >= cfg.capacity) {
        unindex(fifo.front().line);
        fifo.popFront();
        ++stats_.capacityEvictions;
        at = probe(line);
    }
    fifo.pushBack(Slot{line, dyn_id});
    lines[at] = line;
    ++stats_.inserts;
}

bool
SeniorityFtq::matchAndRemove(Addr line)
{
    line = lineAddr(line);
    if (lines[probe(line)] != line) {
        return false;
    }
    ++stats_.matches;
    for (std::size_t i = 0; i < fifo.size(); ++i) {
        if (fifo[i].line == line) {
            fifo.erase(i);
            break;
        }
    }
    unindex(line);
    return true;
}

void
SeniorityFtq::onFlush(std::uint64_t squash_after_dyn_id)
{
    if (cfg.flushPolicy == SftqFlushPolicy::Keep) {
        return;
    }
    while (!fifo.empty() && fifo.back().dynId > squash_after_dyn_id) {
        unindex(fifo.back().line);
        fifo.popBack();
        ++stats_.flushDrops;
    }
}

std::string
SeniorityFtq::checkInvariants() const
{
    char buf[128];
    if (fifo.size() > cfg.capacity) {
        std::snprintf(buf, sizeof(buf), "size %zu exceeds capacity %u",
                      fifo.size(), cfg.capacity);
        return buf;
    }
    std::size_t held = 0;
    for (Addr line : lines) {
        held += line != kInvalidAddr;
    }
    if (held != fifo.size()) {
        std::snprintf(buf, sizeof(buf),
                      "line set holds %zu lines for %zu FIFO slots", held,
                      fifo.size());
        return buf;
    }
    for (std::size_t i = 0; i < fifo.size(); ++i) {
        if (lines[probe(fifo[i].line)] != fifo[i].line) {
            std::snprintf(buf, sizeof(buf),
                          "FIFO slot %zu line 0x%llx is missing from the "
                          "line set",
                          i, static_cast<unsigned long long>(fifo[i].line));
            return buf;
        }
    }
    return "";
}

} // namespace udp
