/**
 * @file
 * Telemetry layer: prefetch lifecycle tracking, interval stats, and a
 * bounded trace-event log (docs/TELEMETRY.md).
 *
 * The paper's whole argument is measurement: every FDIP/UDP/EIP/stream
 * prefetch is followed from issue -> fill -> first-use / eviction and
 * classified into the utility taxonomy of PAPER.md S3-S5 (timely,
 * late-by-N-cycles, never-used, polluting). The classifications land in
 * Distribution histograms (stats/histogram.h), periodic IntervalRow
 * snapshots stream IPC / MPKI / FTQ occupancy / accuracy through the
 * existing sinks, and an optional bounded TraceEvent log feeds the
 * Chrome-trace exporter (stats/tracefile.h).
 *
 * Cost model: components hold a raw `Telemetry*` that is null when
 * telemetry is disabled, so every hook is a single pointer test on the
 * hot path. With telemetry off, simulation results and bench artifacts
 * are byte-identical to a build without this layer.
 */

#ifndef UDP_STATS_TELEMETRY_H
#define UDP_STATS_TELEMETRY_H

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "stats/histogram.h"
#include "stats/stats.h"

namespace udp {

/** Telemetry knobs; lives in SimConfig::telemetry. */
struct TelemetryConfig {
    /** Master switch. Off => Cpu never allocates a Telemetry object. */
    bool enabled = false;
    /** Interval-row period in cycles. */
    Cycle intervalCycles = 20'000;
    /** Record trace events for the Chrome-trace exporter. */
    bool trace = false;
    /** Trace-event cap per run; excess events are dropped (and flagged). */
    std::size_t maxTraceEvents = 200'000;
    /** If non-empty, runSim writes a Chrome trace here when a SimError
     *  aborts the run (post-mortem slice with the dumpState() payload). */
    std::string errorTracePath;

    bool operator==(const TelemetryConfig&) const = default;
};

/** Who issued a prefetch. Indexes Telemetry counters; keep dense. */
enum class PfSource : std::uint8_t {
    Fdip = 0,     ///< FDIP probe of the fetched line itself
    UdpExtra = 1, ///< UDP super-block extra line
    Eip = 2,      ///< EIP record replay
    Stream = 3,   ///< L1D stream prefetcher
};
inline constexpr std::size_t kNumPfSources = 4;
const char* pfSourceName(PfSource s);

/** Lifecycle outcome of a tracked prefetch. Indexes counters; keep dense. */
enum class PfOutcome : std::uint8_t {
    Timely = 0,    ///< demand hit the resident prefetched line
    Late = 1,      ///< demand merged with the still-in-flight fill
    Unused = 2,    ///< filled line evicted without any demand hit
    Polluting = 3, ///< unused AND its fill displaced a valid line
    Pending = 4,   ///< still live when the measurement window closed
};
inline constexpr std::size_t kNumPfOutcomes = 5;
const char* pfOutcomeName(PfOutcome o);

inline constexpr std::uint8_t kTrackPipeline = 0;
inline constexpr std::uint8_t kTrackPrefetch = 1;
inline constexpr std::uint8_t kTrackUdp = 2;
inline constexpr std::uint8_t kTrackCounters = 3;

/**
 * Name of a trace event: an index into traceEventName()'s static table.
 * The prefetch sources come first, in PfSource order, because a prefetch
 * span is named after its source.
 */
enum class TraceName : std::uint8_t {
    Fdip,
    UdpExtra,
    Eip,
    Stream,
    Ipc,
    IcacheMpki,
    FtqOccupancy,
    PfAccuracy,
    FtqDepth,
    FtqPush,
    FtqFlush,
    DecodeResteer,
    ExecResteer,
    IcacheMissStall,
    UdpDrop,
    UsefulSetClear,
};
const char* traceEventName(TraceName n);

/**
 * One bounded-log trace event (consumed by stats/tracefile.*). It takes
 * 32 bytes: a traced run holds up to TelemetryConfig::maxTraceEvents of
 * them until its trace is written.
 */
struct TraceEvent {
    enum class Kind : std::uint8_t {
        Slice,   ///< duration [ts, ts+dur] on a track (Chrome ph "X")
        Instant, ///< point event (Chrome ph "i")
        Counter, ///< sampled counter value (Chrome ph "C")
        Span,    ///< async begin/end pair keyed by addr (Chrome ph "b"/"e")
    };
    /** The detail of an event without one. */
    static constexpr std::uint8_t kNoDetail = 0xff;

    Cycle ts = 0;
    Addr addr = 0;           ///< line address / async-span id
    /** Slices and spans read dur, instants and counters value: no kind
     *  uses both. */
    union {
        Cycle dur = 0;       ///< Slice duration / Span end (0 = begin)
        double value;        ///< Instant and Counter payload
    };
    Kind kind = Kind::Instant;
    std::uint8_t track = kTrackPipeline; ///< kTrack* constant above
    TraceName name = TraceName::FtqPush;
    /** Span ends only: the PfOutcome shown as the span's outcome, or
     *  kNoDetail. */
    std::uint8_t detail = kNoDetail;
};

static_assert(sizeof(TraceEvent) == 32, "keep traced event logs compact");

/** One periodic interval snapshot row (sink schema in stats/sink.h). */
struct IntervalRow {
    std::uint64_t index = 0;
    Cycle cycleStart = 0;
    Cycle cycleEnd = 0;
    std::uint64_t instructions = 0;
    double ipc = 0.0;
    double icacheMpki = 0.0;
    double ftqOccupancy = 0.0;
    std::uint64_t prefetchesIssued = 0;
    double pfAccuracy = 0.0;
    std::uint64_t pfTimely = 0;
    std::uint64_t pfLate = 0;
    std::uint64_t pfUnused = 0;
};

/**
 * Immutable end-of-run telemetry result, shared out of the simulator via
 * Report::telemetry. Not part of the serialized report schema: sinks emit
 * it through dedicated interval / summary writers instead, keeping report
 * JSON/CSV byte-identical whether or not telemetry ran.
 */
struct TelemetrySnapshot {
    /** Issued prefetches per source (measurement window only). */
    std::uint64_t issued[kNumPfSources] = {};
    /** Outcome counts per source x outcome. */
    std::uint64_t outcomes[kNumPfSources][kNumPfOutcomes] = {};

    /** Linear histogram, one bucket per PfOutcome; sum == issued total. */
    Distribution taxonomy{BucketScale::Linear, kNumPfOutcomes, 1};
    /** Cycles a demand fetch waited on a late prefetch fill (log2). */
    Distribution lateBy{BucketScale::Log2, 24};
    /** Issue -> fill latency of completed prefetches (log2). */
    Distribution fillLatency{BucketScale::Log2, 24};
    /** Fill -> first demand use distance of timely prefetches (log2). */
    Distribution useDistance{BucketScale::Log2, 28};
    /** Fill -> eviction lifetime of never-used prefetches (log2). */
    Distribution unusedLifetime{BucketScale::Log2, 28};

    std::vector<IntervalRow> intervals;
    std::vector<TraceEvent> events;
    bool traceTruncated = false;

    /** SimError post-mortem annotation (empty when the run completed). */
    std::string errorKind;
    std::string errorComponent;
    Cycle errorCycle = 0;
    std::string errorDump;

    std::uint64_t issuedTotal() const;
    std::uint64_t outcomeTotal(PfOutcome o) const;
    /** Flattens the taxonomy + latency distributions into summary stats. */
    StatSet toStatSet() const;
};

/**
 * Live telemetry collector owned by Cpu (only when
 * SimConfig::telemetry.enabled). Components receive a raw pointer via
 * setTelemetry() and null-check it at each hook site.
 */
class Telemetry
{
  public:
    explicit Telemetry(const TelemetryConfig& cfg) : cfg_(cfg) {}

    // ----- per-cycle driving (called by Cpu) ------------------------------
    /** Start-of-cycle: advances the clock, samples FTQ occupancy. */
    void beginCycle(Cycle now, std::size_t ftq_occupancy);
    /** True when the current cycle closes an interval. */
    bool intervalDue() const;
    /** Cumulative counters the Cpu passes when an interval closes. */
    struct IntervalCounters {
        std::uint64_t retired = 0;
        std::uint64_t ifetchMisses = 0;
        std::uint64_t pfIssued = 0;
        std::uint64_t pfUseful = 0;
        std::uint64_t pfUnused = 0;
    };
    void closeInterval(const IntervalCounters& c);
    /** Seeds the interval-delta baseline with the current cumulative
     *  counters. Cpu::clearStats calls it right after clearStats() below
     *  has dropped the baseline with the rest of the window state: the
     *  model's counters keep counting across the window start, so the
     *  first interval's deltas are taken from their values there. */
    void setBaseline(const IntervalCounters& c) { prev_ = c; }

    // ----- prefetch lifecycle hooks ---------------------------------------
    void onPrefetchIssued(Addr line, PfSource src);
    /** MSHR fill drained into the cache still marked prefetch.
     *  @p displaced_valid: the insert evicted a valid resident line. */
    void onPrefetchFill(Addr line, bool displaced_valid);
    /** Demand fetch merged with an in-flight prefetch; waited @p wait. */
    void onPrefetchLateMerge(Addr line, Cycle wait);
    /** Demand hit a resident line with its prefetch bit set. */
    void onPrefetchFirstUse(Addr line);
    /** A filled, never-used prefetched line was evicted. */
    void onPrefetchEvicted(Addr line);

    // ----- trace hooks ----------------------------------------------------
    void onFtqPush(Addr start_pc);
    void onFtqFlush(std::size_t dropped);
    void onResteer(Addr new_pc, bool from_decode);
    void onFetchStall(Addr line, Cycle start, Cycle end);
    void onUdpDrop(Addr line);
    void onUsefulSetClear();
    void onFtqDepthChange(std::size_t depth);

    /** SimError post-mortem: record the error + dumpState() payload. */
    void noteError(const std::string& kind, const std::string& component,
                   Cycle cycle, const std::string& dump);

    /** Resets all window state (start of the measurement window). Live
     *  in-flight records are dropped: only prefetches issued inside the
     *  window are classified, so the taxonomy identity
     *  timely+late+unused+polluting+pending == issued holds exactly. */
    void clearStats();

    /**
     * Ends the run: classifies still-live records as Pending, then moves
     * the accumulated state, event log included, into the returned
     * snapshot without copying it. Call once; the collector is left
     * empty.
     */
    std::shared_ptr<const TelemetrySnapshot> finish();

    Cycle now() const { return now_; }
    const TelemetryConfig& config() const { return cfg_; }

  private:
    struct PfRec {
        PfSource src;
        Cycle issuedAt;
        Cycle filledAt = kInvalidCycle;
        bool displacedValid = false;
    };

    void classify(Addr line, const PfRec& rec, PfOutcome outcome);
    void pushEvent(const TraceEvent& ev);

    TelemetryConfig cfg_;
    TelemetrySnapshot acc_;
    std::unordered_map<Addr, PfRec> live_;

    Cycle now_ = 0;
    Cycle intervalStart_ = 0;
    std::uint64_t intervalIndex_ = 0;

    // FTQ occupancy accumulation for the open interval.
    std::uint64_t ftqOccSum_ = 0;
    std::uint64_t ftqOccSamples_ = 0;

    // Cumulative baselines at the previous interval close.
    IntervalCounters prev_{};
    std::uint64_t prevTimely_ = 0;
    std::uint64_t prevLate_ = 0;
    std::uint64_t prevUnused_ = 0;
};

} // namespace udp

#endif // UDP_STATS_TELEMETRY_H
