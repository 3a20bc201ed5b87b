#include "sim/invariants.h"

#include <algorithm>
#include <cstdio>

#include "backend/backend.h"
#include "cache/memsys.h"
#include "core/udp_engine.h"
#include "core/uftq.h"
#include "frontend/fetch.h"
#include "frontend/ftq.h"
#include "frontend/records.h"
#include "sim/cpu.h"

namespace udp {

namespace {

/**
 * The branch-record pool against the pipeline. Cheap: the live count is
 * within what the in-flight structures can carry. Full: every live
 * record's owner is an in-flight instruction (an undelivered FTQ slot, a
 * decode-queue entry or a ROB entry) that still carries its handle, and
 * no two live records share an owner.
 */
std::string
checkRecords(const Cpu& cpu, bool full)
{
    const BranchRecordPool& recs = cpu.records();
    const SimConfig& cfg = cpu.config();
    const std::size_t bound =
        std::size_t{cfg.backend.robSize} + cfg.fetch.decodeQueueMax +
        cfg.fetch.fetchWidth +
        std::size_t{cfg.ftqPhysical} * kInstrsPerFetchBlock;
    char buf[160];
    if (recs.size() > bound) {
        std::snprintf(buf, sizeof(buf),
                      "%zu live records exceed the in-flight bound %zu",
                      recs.size(), bound);
        return buf;
    }
    if (!full) {
        return "";
    }

    std::vector<bool> carried(recs.slotCount(), false);
    auto carry = [&](RecordHandle h, std::uint64_t dyn_id) {
        if (h < recs.slotCount() && recs.live(h) &&
            recs.owner(h) == dyn_id) {
            carried[h] = true;
        }
    };
    const Ftq& ftq = cpu.ftq();
    for (std::size_t i = 0; i < ftq.size(); ++i) {
        const FtqEntry& e = ftq.at(i);
        for (unsigned k = i == 0 ? cpu.fetch().headDelivered() : 0;
             k < e.numInstrs; ++k) {
            carry(e.instrs[k].record, e.instrs[k].dynId);
        }
    }
    const Ring<DecodedInstr>& dq = cpu.fetch().decodeQueue();
    for (std::size_t i = 0; i < dq.size(); ++i) {
        carry(dq[i].fi.record, dq[i].fi.dynId);
    }
    const Backend& be = cpu.backend();
    for (std::size_t i = 0; i < be.robOccupancy(); ++i) {
        carry(be.robInstr(i).record, be.robInstr(i).dynId);
    }

    std::vector<std::uint64_t> owners;
    for (RecordHandle h = 0; h < recs.slotCount(); ++h) {
        if (!recs.live(h)) {
            continue;
        }
        if (!carried[h]) {
            std::snprintf(buf, sizeof(buf),
                          "record %u of dyn id %llu has no in-flight owner "
                          "carrying it (leaked)",
                          h, static_cast<unsigned long long>(recs.owner(h)));
            return buf;
        }
        owners.push_back(recs.owner(h));
    }
    std::sort(owners.begin(), owners.end());
    auto dup = std::adjacent_find(owners.begin(), owners.end());
    if (dup != owners.end()) {
        std::snprintf(buf, sizeof(buf),
                      "two live records share owner dyn id %llu",
                      static_cast<unsigned long long>(*dup));
        return buf;
    }
    return "";
}

} // namespace

std::vector<InvariantFailure>
collectInvariantFailures(const Cpu& cpu, bool full)
{
    std::vector<InvariantFailure> out;
    auto add = [&out](const char* component, std::string detail) {
        if (!detail.empty()) {
            out.push_back(InvariantFailure{component, std::move(detail)});
        }
    };

    add("ftq", cpu.ftq().checkInvariants(full));
    add("mshr", cpu.mem().checkInvariants(cpu.now()));
    add("fetch", cpu.fetch().checkInvariants());
    add("rob", cpu.backend().checkInvariants(full));
    add("records", checkRecords(cpu, full));
    if (cpu.uftq() != nullptr) {
        add("uftq", cpu.uftq()->checkInvariants());
    }
    if (cpu.udp() != nullptr) {
        add("udp", cpu.udp()->checkInvariants());
    }
    return out;
}

void
checkInvariants(const Cpu& cpu, bool full)
{
    std::vector<InvariantFailure> fails = collectInvariantFailures(cpu, full);
    if (fails.empty()) {
        return;
    }
    throw InvariantViolation(fails.front().component, cpu.now(),
                             fails.front().detail, cpu.dumpState());
}

} // namespace udp
