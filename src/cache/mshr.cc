#include "cache/mshr.h"

#include <algorithm>
#include <cstdio>

namespace udp {

MshrEntry*
MshrFile::find(Addr line)
{
    for (MshrEntry& e : entries) {
        if (e.valid && e.line == line) {
            return &e;
        }
    }
    return nullptr;
}

const MshrEntry*
MshrFile::find(Addr line) const
{
    return const_cast<MshrFile*>(this)->find(line);
}

MshrEntry*
MshrFile::allocate(Addr line, Cycle ready, bool is_prefetch, Cycle now)
{
    for (MshrEntry& e : entries) {
        if (!e.valid) {
            e.valid = true;
            e.line = line;
            setReady(e, ready);
            e.allocatedAt = now;
            e.isPrefetch = is_prefetch;
            e.demandMerged = false;
            e.onPathDemandMerged = false;
            return &e;
        }
    }
    return nullptr;
}

void
MshrFile::setReady(MshrEntry& e, Cycle ready)
{
    e.ready = ready;
    earliestReady = std::min(earliestReady, ready);
}

void
MshrFile::clear()
{
    for (MshrEntry& e : entries) {
        e.valid = false;
    }
    earliestReady = kInvalidCycle;
}

unsigned
MshrFile::numFree() const
{
    unsigned free = 0;
    for (const MshrEntry& e : entries) {
        if (!e.valid) {
            ++free;
        }
    }
    return free;
}

void
MshrFile::noteDemandMerge(MshrEntry& e, bool on_path)
{
    e.demandMerged = true;
    e.onPathDemandMerged = e.onPathDemandMerged || on_path;
}

std::string
MshrFile::checkInvariants(Cycle now) const
{
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const MshrEntry& a = entries[i];
        if (!a.valid) {
            continue;
        }
        if (a.ready < earliestReady) {
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          "entry %zu: line 0x%llx ready=%llu is before the "
                          "earliest-fill bound %llu (it would not drain)",
                          i, static_cast<unsigned long long>(a.line),
                          static_cast<unsigned long long>(a.ready),
                          static_cast<unsigned long long>(earliestReady));
            return buf;
        }
        for (std::size_t j = i + 1; j < entries.size(); ++j) {
            const MshrEntry& b = entries[j];
            if (b.valid && b.line == a.line) {
                char buf[128];
                std::snprintf(buf, sizeof(buf),
                              "duplicate outstanding line 0x%llx "
                              "(entries %zu and %zu)",
                              static_cast<unsigned long long>(a.line), i,
                              j);
                return buf;
            }
        }
        // A fill either has a real completion cycle in the future or it
        // has leaked: drainReady() frees every entry with ready <= now at
        // the start of each cycle, and the sentinel never drains at all.
        if (a.ready == kInvalidCycle || a.ready <= now) {
            char buf[160];
            std::snprintf(
                buf, sizeof(buf),
                "leaked entry %zu: line 0x%llx ready=%llu never drained "
                "(allocated cycle %llu, age %llu)",
                i, static_cast<unsigned long long>(a.line),
                static_cast<unsigned long long>(a.ready),
                static_cast<unsigned long long>(a.allocatedAt),
                static_cast<unsigned long long>(now - a.allocatedAt));
            return buf;
        }
    }
    return "";
}

std::string
MshrFile::dumpState(Cycle now) const
{
    Cycle oldest_age = 0;
    unsigned used = 0;
    for (const MshrEntry& e : entries) {
        if (e.valid) {
            ++used;
            if (now - e.allocatedAt > oldest_age) {
                oldest_age = now - e.allocatedAt;
            }
        }
    }
    char head[96];
    std::snprintf(head, sizeof(head),
                  "[mshr] occupancy=%u/%u oldest_age=%llu\n", used,
                  capacity(), static_cast<unsigned long long>(oldest_age));
    std::string out = head;
    for (std::size_t i = 0; i < entries.size(); ++i) {
        const MshrEntry& e = entries[i];
        if (!e.valid) {
            continue;
        }
        char row[160];
        std::snprintf(row, sizeof(row),
                      "  [%zu] line=0x%llx ready=%llu alloc=%llu pf=%d "
                      "merged=%d\n",
                      i, static_cast<unsigned long long>(e.line),
                      static_cast<unsigned long long>(e.ready),
                      static_cast<unsigned long long>(e.allocatedAt),
                      e.isPrefetch ? 1 : 0, e.demandMerged ? 1 : 0);
        out += row;
    }
    return out;
}

MshrEntry*
MshrFile::validEntryForFault(unsigned nth)
{
    unsigned seen = 0;
    for (MshrEntry& e : entries) {
        if (e.valid && seen++ == nth) {
            return &e;
        }
    }
    return nullptr;
}

} // namespace udp
