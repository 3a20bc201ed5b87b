#include "stats/telemetry.h"

namespace udp {

const char*
pfSourceName(PfSource s)
{
    switch (s) {
    case PfSource::Fdip:
        return "fdip";
    case PfSource::UdpExtra:
        return "udp_extra";
    case PfSource::Eip:
        return "eip";
    case PfSource::Stream:
        return "stream";
    }
    return "unknown";
}

const char*
pfOutcomeName(PfOutcome o)
{
    switch (o) {
    case PfOutcome::Timely:
        return "timely";
    case PfOutcome::Late:
        return "late";
    case PfOutcome::Unused:
        return "unused";
    case PfOutcome::Polluting:
        return "polluting";
    case PfOutcome::Pending:
        return "pending";
    }
    return "unknown";
}

std::uint64_t
TelemetrySnapshot::issuedTotal() const
{
    std::uint64_t total = 0;
    for (std::size_t s = 0; s < kNumPfSources; ++s) {
        total += issued[s];
    }
    return total;
}

std::uint64_t
TelemetrySnapshot::outcomeTotal(PfOutcome o) const
{
    std::uint64_t total = 0;
    for (std::size_t s = 0; s < kNumPfSources; ++s) {
        total += outcomes[s][static_cast<std::size_t>(o)];
    }
    return total;
}

StatSet
TelemetrySnapshot::toStatSet() const
{
    StatSet s;
    s.add("pf_issued_total", static_cast<double>(issuedTotal()));
    for (std::size_t src = 0; src < kNumPfSources; ++src) {
        s.add(std::string("pf_issued_") +
                  pfSourceName(static_cast<PfSource>(src)),
              static_cast<double>(issued[src]));
    }
    for (std::size_t o = 0; o < kNumPfOutcomes; ++o) {
        auto outcome = static_cast<PfOutcome>(o);
        s.add(std::string("pf_") + pfOutcomeName(outcome) + "_total",
              static_cast<double>(outcomeTotal(outcome)));
        for (std::size_t src = 0; src < kNumPfSources; ++src) {
            s.add(std::string("pf_") + pfOutcomeName(outcome) + "_" +
                      pfSourceName(static_cast<PfSource>(src)),
                  static_cast<double>(outcomes[src][o]));
        }
    }
    s.addDistribution("pf_taxonomy", taxonomy);
    s.addDistribution("pf_late_by", lateBy);
    s.addDistribution("pf_fill_latency", fillLatency);
    s.addDistribution("pf_use_distance", useDistance);
    s.addDistribution("pf_unused_lifetime", unusedLifetime);
    s.add("interval_rows", static_cast<double>(intervals.size()));
    s.add("trace_events", static_cast<double>(events.size()));
    s.add("trace_truncated", traceTruncated ? 1.0 : 0.0);
    return s;
}

void
Telemetry::beginCycle(Cycle now, std::size_t ftq_occupancy)
{
    now_ = now;
    ftqOccSum_ += ftq_occupancy;
    ++ftqOccSamples_;
}

bool
Telemetry::intervalDue() const
{
    return now_ - intervalStart_ >= cfg_.intervalCycles;
}

void
Telemetry::closeInterval(const IntervalCounters& c)
{
    Cycle cycles = now_ - intervalStart_;
    if (cycles == 0) {
        return;
    }
    IntervalRow row;
    row.index = intervalIndex_;
    row.cycleStart = intervalStart_;
    row.cycleEnd = now_;
    row.instructions = c.retired - prev_.retired;
    row.ipc = static_cast<double>(row.instructions) /
              static_cast<double>(cycles);
    row.icacheMpki =
        ratio(static_cast<double>(c.ifetchMisses - prev_.ifetchMisses) *
                  1000.0,
              static_cast<double>(row.instructions));
    row.ftqOccupancy = ratio(static_cast<double>(ftqOccSum_),
                             static_cast<double>(ftqOccSamples_));
    row.prefetchesIssued = c.pfIssued - prev_.pfIssued;
    row.pfAccuracy =
        ratio(static_cast<double>(c.pfUseful - prev_.pfUseful),
              static_cast<double>(row.prefetchesIssued));
    std::uint64_t timely = acc_.outcomeTotal(PfOutcome::Timely);
    std::uint64_t late = acc_.outcomeTotal(PfOutcome::Late);
    std::uint64_t unused = acc_.outcomeTotal(PfOutcome::Unused) +
                           acc_.outcomeTotal(PfOutcome::Polluting);
    row.pfTimely = timely - prevTimely_;
    row.pfLate = late - prevLate_;
    row.pfUnused = unused - prevUnused_;
    acc_.intervals.push_back(row);

    if (cfg_.trace) {
        pushEvent({TraceEvent::Kind::Counter, kTrackCounters, "ipc", now_, 0,
                   0, row.ipc, nullptr});
        pushEvent({TraceEvent::Kind::Counter, kTrackCounters, "icache_mpki",
                   now_, 0, 0, row.icacheMpki, nullptr});
        pushEvent({TraceEvent::Kind::Counter, kTrackCounters,
                   "ftq_occupancy", now_, 0, 0, row.ftqOccupancy, nullptr});
        pushEvent({TraceEvent::Kind::Counter, kTrackCounters, "pf_accuracy",
                   now_, 0, 0, row.pfAccuracy, nullptr});
    }

    prev_ = c;
    prevTimely_ = timely;
    prevLate_ = late;
    prevUnused_ = unused;
    intervalStart_ = now_;
    ++intervalIndex_;
    ftqOccSum_ = 0;
    ftqOccSamples_ = 0;
}

void
Telemetry::onPrefetchIssued(Addr line, PfSource src)
{
    ++acc_.issued[static_cast<std::size_t>(src)];
    // A line can be re-prefetched after eviction; the fresh record wins
    // (the prior one must already have been classified to be evictable).
    live_[line] = PfRec{src, now_, kInvalidCycle, false};
    if (cfg_.trace) {
        pushEvent({TraceEvent::Kind::Span, kTrackPrefetch, pfSourceName(src),
                   now_, 0, line, 0.0, nullptr});
    }
}

void
Telemetry::onPrefetchFill(Addr line, bool displaced_valid)
{
    auto it = live_.find(line);
    if (it == live_.end()) {
        return; // warmup leftover or already classified Late
    }
    it->second.filledAt = now_;
    it->second.displacedValid = displaced_valid;
    acc_.fillLatency.sample(now_ - it->second.issuedAt);
}

void
Telemetry::onPrefetchLateMerge(Addr line, Cycle wait)
{
    auto it = live_.find(line);
    if (it == live_.end()) {
        return;
    }
    acc_.lateBy.sample(wait);
    classify(line, it->second, PfOutcome::Late);
    live_.erase(it);
}

void
Telemetry::onPrefetchFirstUse(Addr line)
{
    auto it = live_.find(line);
    if (it == live_.end()) {
        return;
    }
    if (it->second.filledAt != kInvalidCycle) {
        acc_.useDistance.sample(now_ - it->second.filledAt);
    }
    classify(line, it->second, PfOutcome::Timely);
    live_.erase(it);
}

void
Telemetry::onPrefetchEvicted(Addr line)
{
    auto it = live_.find(line);
    if (it == live_.end()) {
        return;
    }
    if (it->second.filledAt != kInvalidCycle) {
        acc_.unusedLifetime.sample(now_ - it->second.filledAt);
    }
    classify(line, it->second,
             it->second.displacedValid ? PfOutcome::Polluting
                                       : PfOutcome::Unused);
    live_.erase(it);
}

void
Telemetry::classify(Addr line, const PfRec& rec, PfOutcome outcome)
{
    ++acc_.outcomes[static_cast<std::size_t>(rec.src)]
                   [static_cast<std::size_t>(outcome)];
    acc_.taxonomy.sample(static_cast<std::uint64_t>(outcome));
    if (cfg_.trace) {
        pushEvent({TraceEvent::Kind::Span, kTrackPrefetch,
                   pfSourceName(rec.src), now_, 1, line, 0.0,
                   pfOutcomeName(outcome)});
    }
}

void
Telemetry::onFtqPush(Addr start_pc)
{
    if (cfg_.trace) {
        pushEvent({TraceEvent::Kind::Instant, kTrackPipeline, "ftq_push",
                   now_, 0, start_pc, 0.0, nullptr});
    }
}

void
Telemetry::onFtqFlush(std::size_t dropped)
{
    if (cfg_.trace) {
        pushEvent({TraceEvent::Kind::Instant, kTrackPipeline, "ftq_flush",
                   now_, 0, 0, static_cast<double>(dropped), nullptr});
    }
}

void
Telemetry::onResteer(Addr new_pc, bool from_decode)
{
    if (cfg_.trace) {
        pushEvent({TraceEvent::Kind::Instant, kTrackPipeline,
                   from_decode ? "decode_resteer" : "exec_resteer", now_, 0,
                   new_pc, 0.0, nullptr});
    }
}

void
Telemetry::onFetchStall(Addr line, Cycle start, Cycle end)
{
    if (cfg_.trace && end > start) {
        pushEvent({TraceEvent::Kind::Slice, kTrackPipeline,
                   "icache_miss_stall", start, end - start, line, 0.0,
                   nullptr});
    }
}

void
Telemetry::onUdpDrop(Addr line)
{
    if (cfg_.trace) {
        pushEvent({TraceEvent::Kind::Instant, kTrackUdp, "udp_drop", now_, 0,
                   line, 0.0, nullptr});
    }
}

void
Telemetry::onUsefulSetClear()
{
    if (cfg_.trace) {
        pushEvent({TraceEvent::Kind::Instant, kTrackUdp, "useful_set_clear",
                   now_, 0, 0, 0.0, nullptr});
    }
}

void
Telemetry::onFtqDepthChange(std::size_t depth)
{
    if (cfg_.trace) {
        pushEvent({TraceEvent::Kind::Counter, kTrackCounters, "ftq_depth",
                   now_, 0, 0, static_cast<double>(depth), nullptr});
    }
}

void
Telemetry::noteError(const std::string& kind, const std::string& component,
                     Cycle cycle, const std::string& dump)
{
    acc_.errorKind = kind;
    acc_.errorComponent = component;
    acc_.errorCycle = cycle;
    acc_.errorDump = dump;
}

void
Telemetry::clearStats()
{
    acc_ = TelemetrySnapshot{};
    live_.clear();
    intervalStart_ = now_;
    intervalIndex_ = 0;
    ftqOccSum_ = 0;
    ftqOccSamples_ = 0;
    prev_ = IntervalCounters{};
    prevTimely_ = 0;
    prevLate_ = 0;
    prevUnused_ = 0;
}

void
Telemetry::finalize()
{
    for (const auto& [line, rec] : live_) {
        classify(line, rec, PfOutcome::Pending);
    }
    live_.clear();
}

std::shared_ptr<const TelemetrySnapshot>
Telemetry::snapshot() const
{
    return std::make_shared<TelemetrySnapshot>(acc_);
}

void
Telemetry::pushEvent(const TraceEvent& ev)
{
    if (acc_.events.size() >= cfg_.maxTraceEvents) {
        acc_.traceTruncated = true;
        return;
    }
    acc_.events.push_back(ev);
}

} // namespace udp
