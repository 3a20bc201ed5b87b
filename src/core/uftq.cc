#include "core/uftq.h"

#include <algorithm>
#include <cstdio>

#include "stats/stats.h"

namespace udp {

UftqController::UftqController(Ftq& q, const UftqConfig& c)
    : ftq(q), cfg(c), depth(c.initialDepth)
{
    applyDepth(depth);
}

double
UftqController::combine(double a, double t)
{
    // FTQ = -0.34*QD_AUR + 0.64*QD_ATR + 0.008*QD_AUR^2 + 0.01*QD_ATR^2
    //       - 0.008*QD_AUR*QD_ATR     (paper Section IV-A)
    return -0.34 * a + 0.64 * t + 0.008 * a * a + 0.01 * t * t -
           0.008 * a * t;
}

void
UftqController::applyDepth(unsigned d)
{
    unsigned prev = depth;
    depth = std::clamp<unsigned>(d, cfg.minDepth,
                                 static_cast<unsigned>(
                                     ftq.physicalCapacity()));
    ftq.setCapacity(depth);
    if (telem_ && depth != prev) {
        telem_->onFtqDepthChange(depth);
    }
}

unsigned
UftqController::ruleStep(double measured, double target, bool timeliness_rule)
{
    // Utility rule: ratio above target -> prefetches are paying off, run
    // further ahead; below target -> too much pollution, back off.
    // Timeliness rule: ratio below target -> prefetches are late, deepen
    // the FTQ; above target -> shallower is safe.
    if (measured > target - cfg.deadband && measured < target + cfg.deadband) {
        return depth; // converged: hold
    }
    bool grow = timeliness_rule ? measured < target : measured > target;
    if (grow) {
        ++stats_.increases;
        return depth + cfg.step;
    }
    ++stats_.decreases;
    return depth > cfg.step ? depth - cfg.step : cfg.minDepth;
}

void
UftqController::tick(const MemSysStats& mem, const CacheStats& l1i)
{
    if (cfg.mode == UftqMode::Off) {
        return;
    }
    if (mem.iprefIssued - epochMem.iprefIssued < cfg.epochPrefetches) {
        return;
    }

    // Epoch boundary: compute the two ratios over this epoch, then start
    // the next one here.
    const MemSysStats epoch = counterDelta(mem, epochMem);
    const double utility =
        prefetchUtility(epoch, counterDelta(l1i, epochL1i));
    const double timeliness = prefetchTimeliness(epoch);

    restartEpoch(mem, l1i);

    ++stats_.epochs;

    switch (cfg.mode) {
      case UftqMode::Aur:
        applyDepth(ruleStep(utility, cfg.aur, false));
        break;
      case UftqMode::Atr:
        applyDepth(ruleStep(timeliness, cfg.atr, true));
        break;
      case UftqMode::AtrAur:
        switch (phase) {
          case Phase::SearchAur:
            applyDepth(ruleStep(utility, cfg.aur, false));
            if (++phaseEpochs >= cfg.searchEpochs) {
                qdAur = depth;
                phase = Phase::SearchAtr;
                phaseEpochs = 0;
            }
            break;
          case Phase::SearchAtr:
            applyDepth(ruleStep(timeliness, cfg.atr, true));
            if (++phaseEpochs >= cfg.searchEpochs) {
                qdAtr = depth;
                double combined = combine(qdAur, qdAtr);
                applyDepth(static_cast<unsigned>(
                    std::max(combined, 1.0)));
                ++stats_.applies;
                phase = Phase::Hold;
                phaseEpochs = 0;
            }
            break;
          case Phase::Hold:
            if (++phaseEpochs >= cfg.holdEpochs) {
                phase = Phase::SearchAur;
                phaseEpochs = 0;
            }
            break;
        }
        break;
      case UftqMode::Off:
        break;
    }
}

std::string
UftqController::checkInvariants() const
{
    char buf[128];
    if (depth < cfg.minDepth || depth > ftq.physicalCapacity()) {
        std::snprintf(buf, sizeof(buf),
                      "commanded depth %u outside [%u, %zu]", depth,
                      cfg.minDepth, ftq.physicalCapacity());
        return buf;
    }
    if (depth != ftq.capacity()) {
        std::snprintf(buf, sizeof(buf),
                      "commanded depth %u disagrees with FTQ capacity %zu",
                      depth, ftq.capacity());
        return buf;
    }
    return "";
}

} // namespace udp
