#include "obs/profiler.h"

#include <cstring>

namespace udp::obs {

const char*
profPhaseName(ProfPhase p)
{
    switch (p) {
    case ProfPhase::Icache: return "icache";
    case ProfPhase::Backend: return "backend";
    case ProfPhase::Fetch: return "fetch";
    case ProfPhase::Bpred: return "bpred";
    case ProfPhase::Prefetch: return "prefetch";
    case ProfPhase::Other: return "other";
    }
    return "?";
}

double
ProfileIntervalRow::totalSec() const
{
    double t = 0.0;
    for (double s : phaseSec) {
        t += s;
    }
    return t;
}

double
ProfileSnapshot::phaseFrac(ProfPhase p) const
{
    if (totalSec <= 0.0) {
        return 0.0;
    }
    return phaseSec[static_cast<std::size_t>(p)] / totalSec;
}

void
CycleProfiler::closeInterval()
{
    phase(cur_);
    ProfileIntervalRow row;
    row.cycleStart = intervalStartCycle_;
    row.cycleEnd = nowCycle_;
    for (std::size_t i = 0; i < kNumProfPhases; ++i) {
        row.phaseSec[i] = acc_[i];
        total_[i] += acc_[i];
        acc_[i] = 0.0;
    }
    intervals_.push_back(row);
    intervalStartCycle_ = nowCycle_ + 1;
}

void
CycleProfiler::clearStats()
{
    std::memset(acc_, 0, sizeof(acc_));
    std::memset(total_, 0, sizeof(total_));
    intervals_.clear();
    cycles_ = 0;
    intervalStartCycle_ = nowCycle_;
}

std::shared_ptr<const ProfileSnapshot>
CycleProfiler::snapshot() const
{
    auto snap = std::make_shared<ProfileSnapshot>();
    snap->cycles = cycles_;
    snap->intervals = intervals_;
    for (std::size_t i = 0; i < kNumProfPhases; ++i) {
        snap->phaseSec[i] = total_[i];
    }
    // Fold the open interval into the copy so the snapshot covers the
    // whole window even when it doesn't end on an interval boundary.
    double open = 0.0;
    for (double s : acc_) {
        open += s;
    }
    if (open > 0.0) {
        ProfileIntervalRow row;
        row.cycleStart = intervalStartCycle_;
        row.cycleEnd = nowCycle_;
        for (std::size_t i = 0; i < kNumProfPhases; ++i) {
            row.phaseSec[i] = acc_[i];
            snap->phaseSec[i] += acc_[i];
        }
        snap->intervals.push_back(row);
    }
    for (double s : snap->phaseSec) {
        snap->totalSec += s;
    }
    return snap;
}

} // namespace udp::obs
