#include "stats/telemetry.h"

#include <iterator>
#include <utility>

namespace udp {

namespace {

/** traceEventName()'s table, in TraceName order; the first four are the
 *  PfSource names. */
constexpr const char* kTraceNames[] = {
    "fdip",
    "udp_extra",
    "eip",
    "stream",
    "ipc",
    "icache_mpki",
    "ftq_occupancy",
    "pf_accuracy",
    "ftq_depth",
    "ftq_push",
    "ftq_flush",
    "decode_resteer",
    "exec_resteer",
    "icache_miss_stall",
    "udp_drop",
    "useful_set_clear",
};
static_assert(std::size(kTraceNames) ==
              static_cast<std::size_t>(TraceName::UsefulSetClear) + 1);
static_assert(static_cast<std::size_t>(TraceName::Stream) ==
              static_cast<std::size_t>(PfSource::Stream));

/** An event whose kind reads dur (Slice, Span). */
TraceEvent
timedEvent(TraceEvent::Kind kind, std::uint8_t track, TraceName name,
           Cycle ts, Cycle dur, Addr addr,
           std::uint8_t detail = TraceEvent::kNoDetail)
{
    TraceEvent ev;
    ev.ts = ts;
    ev.addr = addr;
    ev.dur = dur;
    ev.kind = kind;
    ev.track = track;
    ev.name = name;
    ev.detail = detail;
    return ev;
}

/** An event whose kind reads value (Instant, Counter). */
TraceEvent
valuedEvent(TraceEvent::Kind kind, std::uint8_t track, TraceName name,
            Cycle ts, Addr addr, double value)
{
    TraceEvent ev;
    ev.ts = ts;
    ev.addr = addr;
    ev.value = value;
    ev.kind = kind;
    ev.track = track;
    ev.name = name;
    return ev;
}

} // namespace

const char*
traceEventName(TraceName n)
{
    return kTraceNames[static_cast<std::size_t>(n)];
}

const char*
pfSourceName(PfSource s)
{
    return traceEventName(static_cast<TraceName>(s));
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
        using K = TraceEvent::Kind;
        pushEvent(valuedEvent(K::Counter, kTrackCounters, TraceName::Ipc,
                              now_, 0, row.ipc));
        pushEvent(valuedEvent(K::Counter, kTrackCounters,
                              TraceName::IcacheMpki, now_, 0, row.icacheMpki));
        pushEvent(valuedEvent(K::Counter, kTrackCounters,
                              TraceName::FtqOccupancy, now_, 0,
                              row.ftqOccupancy));
        pushEvent(valuedEvent(K::Counter, kTrackCounters,
                              TraceName::PfAccuracy, now_, 0, row.pfAccuracy));
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
        pushEvent(timedEvent(TraceEvent::Kind::Span, kTrackPrefetch,
                             static_cast<TraceName>(src), now_, 0, line));
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
        pushEvent(timedEvent(TraceEvent::Kind::Span, kTrackPrefetch,
                             static_cast<TraceName>(rec.src), now_, 1, line,
                             static_cast<std::uint8_t>(outcome)));
    }
}

void
Telemetry::onFtqPush(Addr start_pc)
{
    if (cfg_.trace) {
        pushEvent(valuedEvent(TraceEvent::Kind::Instant, kTrackPipeline,
                              TraceName::FtqPush, now_, start_pc, 0.0));
    }
}

void
Telemetry::onFtqFlush(std::size_t dropped)
{
    if (cfg_.trace) {
        pushEvent(valuedEvent(TraceEvent::Kind::Instant, kTrackPipeline,
                              TraceName::FtqFlush, now_, 0,
                              static_cast<double>(dropped)));
    }
}

void
Telemetry::onResteer(Addr new_pc, bool from_decode)
{
    if (cfg_.trace) {
        pushEvent(valuedEvent(TraceEvent::Kind::Instant, kTrackPipeline,
                              from_decode ? TraceName::DecodeResteer
                                          : TraceName::ExecResteer,
                              now_, new_pc, 0.0));
    }
}

void
Telemetry::onFetchStall(Addr line, Cycle start, Cycle end)
{
    if (cfg_.trace && end > start) {
        pushEvent(timedEvent(TraceEvent::Kind::Slice, kTrackPipeline,
                             TraceName::IcacheMissStall, start, end - start,
                             line));
    }
}

void
Telemetry::onUdpDrop(Addr line)
{
    if (cfg_.trace) {
        pushEvent(valuedEvent(TraceEvent::Kind::Instant, kTrackUdp,
                              TraceName::UdpDrop, now_, line, 0.0));
    }
}

void
Telemetry::onUsefulSetClear()
{
    if (cfg_.trace) {
        pushEvent(valuedEvent(TraceEvent::Kind::Instant, kTrackUdp,
                              TraceName::UsefulSetClear, now_, 0, 0.0));
    }
}

void
Telemetry::onFtqDepthChange(std::size_t depth)
{
    if (cfg_.trace) {
        pushEvent(valuedEvent(TraceEvent::Kind::Counter, kTrackCounters,
                              TraceName::FtqDepth, now_, 0,
                              static_cast<double>(depth)));
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

std::shared_ptr<const TelemetrySnapshot>
Telemetry::finish()
{
    for (const auto& [line, rec] : live_) {
        classify(line, rec, PfOutcome::Pending);
    }
    live_.clear();
    auto snap = std::make_shared<TelemetrySnapshot>(std::move(acc_));
    acc_ = TelemetrySnapshot{};
    return snap;
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
